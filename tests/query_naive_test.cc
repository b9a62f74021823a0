// Tests for the naive baselines (paper Section 4.1/5.1): equality-merge and
// hash-probe TA correctness, spurious-ancestor behaviour (their defining
// flaw), and agreement between the two naive processors.

#include "query/naive_query.h"

#include <gtest/gtest.h>

#include <set>

#include "index/naive_index.h"
#include "test_util.h"

namespace xrank::query {
namespace {

using index::IndexKind;
using testutil::BuildIndexedCorpus;

TEST(NaiveQueryTest, ReturnsElementAndAllAncestors) {
  auto corpus = BuildIndexedCorpus(
      {{"<r><p><s>apple pear</s></p><q>unrelated</q></r>", "doc"}});
  NaiveIdQueryProcessor processor(corpus->pool(IndexKind::kNaiveId),
                                  corpus->lexicon(IndexKind::kNaiveId),
                                  ScoringOptions{});
  auto response = processor.Execute({"apple", "pear"}, 20);
  ASSERT_TRUE(response.ok()) << response.status();
  // The naive approach returns the section AND its ancestors <p>, <r> —
  // the spurious results of Section 4.1.
  std::set<dewey::DeweyId> result_deweys;
  for (const RankedResult& result : response->results) {
    uint32_t ordinal = result.id.component(0);
    result_deweys.insert(corpus->extracted.ordinal_to_dewey[ordinal]);
  }
  EXPECT_EQ(result_deweys.size(), 3u);
  EXPECT_TRUE(result_deweys.count(dewey::DeweyId({0})));        // <r>
  EXPECT_TRUE(result_deweys.count(dewey::DeweyId({0, 0})));     // <p>
  EXPECT_TRUE(result_deweys.count(dewey::DeweyId({0, 0, 0})));  // <s>
}

TEST(NaiveQueryTest, IdAndRankProcessorsAgree) {
  auto corpus = BuildIndexedCorpus({{testutil::Figure1Xml(), "figure1.xml"}});
  NaiveIdQueryProcessor by_id(corpus->pool(IndexKind::kNaiveId),
                              corpus->lexicon(IndexKind::kNaiveId),
                              ScoringOptions{});
  NaiveRankQueryProcessor by_rank(corpus->pool(IndexKind::kNaiveRank),
                                  corpus->lexicon(IndexKind::kNaiveRank),
                                  ScoringOptions{});
  for (auto keywords : std::vector<std::vector<std::string>>{
           {"xql"}, {"xql", "language"}, {"querying", "xyleme"}}) {
    auto id_response = by_id.Execute(keywords, 50);
    auto rank_response = by_rank.Execute(keywords, 50);
    ASSERT_TRUE(id_response.ok() && rank_response.ok());
    ASSERT_EQ(id_response->results.size(), rank_response->results.size())
        << keywords[0];
    for (size_t i = 0; i < id_response->results.size(); ++i) {
      EXPECT_EQ(id_response->results[i].id, rank_response->results[i].id);
      EXPECT_NEAR(id_response->results[i].rank,
                  rank_response->results[i].rank, 1e-9);
    }
  }
}

TEST(NaiveQueryTest, RankProcessorUsesHashProbes) {
  auto corpus = BuildIndexedCorpus({{testutil::Figure1Xml(), "figure1.xml"}});
  NaiveRankQueryProcessor processor(corpus->pool(IndexKind::kNaiveRank),
                                    corpus->lexicon(IndexKind::kNaiveRank),
                                    ScoringOptions{});
  auto response = processor.Execute({"xql", "language"}, 5);
  ASSERT_TRUE(response.ok());
  EXPECT_GT(response->stats.hash_probes, 0u);
}

TEST(NaiveQueryTest, DisjointKeywordsEmpty) {
  auto corpus = BuildIndexedCorpus({
      {"<a><b>left</b></a>", "d1"},
      {"<a><b>right</b></a>", "d2"},
  });
  NaiveIdQueryProcessor by_id(corpus->pool(IndexKind::kNaiveId),
                              corpus->lexicon(IndexKind::kNaiveId),
                              ScoringOptions{});
  NaiveRankQueryProcessor by_rank(corpus->pool(IndexKind::kNaiveRank),
                                  corpus->lexicon(IndexKind::kNaiveRank),
                                  ScoringOptions{});
  auto id_response = by_id.Execute({"left", "right"}, 5);
  auto rank_response = by_rank.Execute({"left", "right"}, 5);
  ASSERT_TRUE(id_response.ok() && rank_response.ok());
  EXPECT_TRUE(id_response->results.empty());
  EXPECT_TRUE(rank_response->results.empty());
}

TEST(HashIndexTest, LookupFindsAllAndOnlyMembers) {
  auto corpus = BuildIndexedCorpus({{testutil::Figure1Xml(), "figure1.xml"}});
  const index::Lexicon* lexicon = corpus->lexicon(IndexKind::kNaiveRank);
  storage::BufferPool* pool = corpus->pool(IndexKind::kNaiveRank);
  const index::TermInfo* info = lexicon->Find("xql");
  ASSERT_NE(info, nullptr);

  // Member ordinals from the extraction.
  std::set<uint32_t> members;
  for (const index::Posting& posting :
       corpus->extracted.naive_postings.at("xql")) {
    members.insert(posting.id.component(0));
  }
  ASSERT_FALSE(members.empty());
  for (uint32_t ordinal = 0;
       ordinal < corpus->extracted.ordinal_to_dewey.size(); ++ordinal) {
    auto loc = index::HashIndexLookup(pool, *info, ordinal);
    ASSERT_TRUE(loc.ok());
    EXPECT_EQ(loc->has_value(), members.count(ordinal) > 0) << ordinal;
    if (loc->has_value()) {
      // The located posting is really this element's.
      index::DecodedBlock block;
      auto posting = index::ReadPostingAt(
          pool, info->list, **loc, index::DefaultPostingFormat(false),
          &block);
      ASSERT_TRUE(posting.ok());
      EXPECT_EQ(posting->id[0], ordinal);
    }
  }
}

}  // namespace
}  // namespace xrank::query

// Tests for HDIL: the probe primitives over the sparse B+-tree + full list,
// result equivalence with DIL, and the adaptive RDIL->DIL switch
// (paper Section 4.4).

#include "query/hdil_query.h"

#include <gtest/gtest.h>

#include "datagen/dblp_gen.h"
#include "query/dil_query.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace xrank::query {
namespace {

using index::IndexKind;
using testutil::BuildIndexedCorpus;

std::vector<std::pair<std::string, std::string>> SerializeCorpus(
    const datagen::Corpus& corpus) {
  std::vector<std::pair<std::string, std::string>> docs;
  for (const xml::Document& doc : corpus.documents) {
    docs.emplace_back(xml::Serialize(doc), doc.uri);
  }
  return docs;
}

TEST(HdilProbeTest, LongestCommonPrefixMatchesBruteForce) {
  datagen::DblpOptions gen;
  gen.num_papers = 120;
  gen.seed = 3;
  datagen::Corpus corpus_data = datagen::GenerateDblp(gen);
  auto corpus = BuildIndexedCorpus(SerializeCorpus(corpus_data));
  const index::Lexicon* lexicon = corpus->lexicon(IndexKind::kHdil);
  storage::BufferPool* pool = corpus->pool(IndexKind::kHdil);

  // Pick a common term and probe with IDs from another term's postings.
  const index::TermInfo* target = lexicon->Find("sel0");
  ASSERT_NE(target, nullptr);
  const auto& probes = corpus->extracted.dewey_postings.at("sel1");
  const auto& targets = corpus->extracted.dewey_postings.at("sel0");
  for (const index::Posting& probe : probes) {
    auto lcp = HdilLongestCommonPrefix(pool, lexicon, *target, probe.id);
    ASSERT_TRUE(lcp.ok()) << lcp.status();
    size_t expected = 0;
    for (const index::Posting& posting : targets) {
      expected = std::max(expected, probe.id.CommonPrefixLength(posting.id));
    }
    EXPECT_EQ(*lcp, expected) << probe.id.ToString();
  }
}

TEST(HdilProbeTest, ScanPrefixMatchesBruteForce) {
  datagen::DblpOptions gen;
  gen.num_papers = 100;
  gen.seed = 4;
  datagen::Corpus corpus_data = datagen::GenerateDblp(gen);
  auto corpus = BuildIndexedCorpus(SerializeCorpus(corpus_data));
  const index::Lexicon* lexicon = corpus->lexicon(IndexKind::kHdil);
  storage::BufferPool* pool = corpus->pool(IndexKind::kHdil);

  const index::TermInfo* info = lexicon->Find("sel0");
  ASSERT_NE(info, nullptr);
  const auto& postings = corpus->extracted.dewey_postings.at("sel0");
  // Prefixes: document roots and the deep posting IDs themselves.
  std::vector<dewey::DeweyId> prefixes;
  for (size_t i = 0; i < postings.size(); i += 7) {
    prefixes.push_back(postings[i].id);
    prefixes.push_back(postings[i].id.Prefix(1));
  }
  prefixes.push_back(dewey::DeweyId({999}));  // matches nothing
  for (const dewey::DeweyId& prefix : prefixes) {
    std::vector<dewey::DeweyId> scanned;
    ASSERT_TRUE(HdilScanPrefix(pool, lexicon, *info, prefix,
                               [&](const index::PostingView& posting) {
                                 scanned.emplace_back(posting.id);
                                 return true;
                               })
                    .ok());
    std::vector<dewey::DeweyId> expected;
    for (const index::Posting& posting : postings) {
      if (prefix.IsPrefixOf(posting.id)) expected.push_back(posting.id);
    }
    EXPECT_EQ(scanned, expected) << prefix.ToString();
  }
}

TEST(HdilQueryTest, MatchesDilResultsEitherMode) {
  datagen::DblpOptions gen;
  gen.num_papers = 200;
  gen.seed = 5;
  datagen::Corpus corpus_data = datagen::GenerateDblp(gen);
  auto corpus = BuildIndexedCorpus(SerializeCorpus(corpus_data));

  DilQueryProcessor dil(corpus->pool(IndexKind::kDil),
                        corpus->lexicon(IndexKind::kDil), ScoringOptions{});
  HdilQueryProcessor hdil(corpus->pool(IndexKind::kHdil),
                          corpus->lexicon(IndexKind::kHdil),
                          ScoringOptions{});
  const auto& quad = corpus_data.planted.high_correlation[0];
  const auto& low = corpus_data.planted.low_correlation[0];
  std::vector<std::vector<std::string>> queries = {
      {quad[0], quad[1]},          // high correlation: RDIL mode finishes
      {low[0], low[1]},            // low correlation: switches to DIL
      {quad[0], quad[1], quad[2]},
      {"sel1", "sel2"},
  };
  for (const auto& keywords : queries) {
    auto dil_response = dil.Execute(keywords, 10);
    auto hdil_response = hdil.Execute(keywords, 10);
    ASSERT_TRUE(dil_response.ok() && hdil_response.ok());
    ASSERT_EQ(dil_response->results.size(), hdil_response->results.size())
        << keywords[0];
    for (size_t i = 0; i < dil_response->results.size(); ++i) {
      EXPECT_EQ(dil_response->results[i].id, hdil_response->results[i].id)
          << keywords[0] << " i=" << i;
      EXPECT_NEAR(dil_response->results[i].rank,
                  hdil_response->results[i].rank, 1e-9);
    }
  }
}

TEST(HdilQueryTest, SwitchesToDilWhenRankPrefixExhausts) {
  // Keywords that never co-occur: the rank prefixes run dry without
  // producing m results, forcing the DIL fallback (Section 4.4.2).
  std::vector<std::pair<std::string, std::string>> docs;
  for (int i = 0; i < 40; ++i) {
    docs.emplace_back(i % 2 == 0 ? "<a><b>eventerm pad</b></a>"
                                 : "<a><b>oddterm pad</b></a>",
                      std::string("d").append(std::to_string(i)));
  }
  index::HdilOptions hdil_options;
  hdil_options.min_rank_entries = 4;  // tiny prefix to force exhaustion
  hdil_options.rank_fraction = 0.1;
  auto corpus = BuildIndexedCorpus(docs, hdil_options);
  HdilQueryProcessor hdil(corpus->pool(IndexKind::kHdil),
                          corpus->lexicon(IndexKind::kHdil),
                          ScoringOptions{});
  auto response = hdil.Execute({"eventerm", "oddterm"}, 5);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->stats.switched_to_dil);
  EXPECT_TRUE(response->results.empty());
}

TEST(HdilQueryTest, StaysInRdilModeOnCorrelatedKeywords) {
  datagen::DblpOptions gen;
  gen.num_papers = 300;
  gen.high_corr_frequency = 0.3;
  datagen::Corpus corpus_data = datagen::GenerateDblp(gen);
  auto corpus = BuildIndexedCorpus(SerializeCorpus(corpus_data));
  HdilQueryProcessor hdil(corpus->pool(IndexKind::kHdil),
                          corpus->lexicon(IndexKind::kHdil),
                          ScoringOptions{});
  const auto& quad = corpus_data.planted.high_correlation[0];
  auto response = hdil.Execute({quad[0], quad[1]}, 3);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->stats.switched_to_dil);
  EXPECT_TRUE(response->stats.threshold_terminated);
  EXPECT_GE(response->results.size(), 3u);
}

}  // namespace
}  // namespace xrank::query

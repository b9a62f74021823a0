// Tests for disjunctive query semantics (Section 2.2).

#include <gtest/gtest.h>

#include <set>

#include "index/index_builder.h"
#include "query/dil_query.h"
#include "query/rdil_query.h"
#include "test_util.h"

namespace xrank {
namespace {

using index::IndexKind;

// --- disjunctive semantics ---

TEST(DisjunctiveTest, ReturnsElementsWithAnyKeyword) {
  auto corpus = testutil::BuildIndexedCorpus({
      {"<r><a>apple</a><b>pear</b><c>plum</c><d>apple pear</d></r>", "doc"},
  });
  query::ScoringOptions scoring;
  scoring.semantics = query::QuerySemantics::kDisjunctive;
  query::DilQueryProcessor processor(corpus->pool(IndexKind::kDil),
                                     corpus->lexicon(IndexKind::kDil),
                                     scoring);
  auto response = processor.Execute({"apple", "pear"}, 20);
  ASSERT_TRUE(response.ok()) << response.status();
  std::set<std::string> ids;
  for (const auto& result : response->results) {
    ids.insert(result.id.ToString());
  }
  // <a>, <b>, <d> each directly contain a keyword; <c> and ancestors with
  // only R0-descendant occurrences do not qualify.
  EXPECT_EQ(ids, (std::set<std::string>{"0.0", "0.1", "0.3"}));
}

TEST(DisjunctiveTest, BothKeywordsOutrankOne) {
  auto corpus = testutil::BuildIndexedCorpus({
      {"<r><a>apple</a><d>apple pear</d></r>", "doc"},
  });
  query::ScoringOptions scoring;
  scoring.semantics = query::QuerySemantics::kDisjunctive;
  query::DilQueryProcessor processor(corpus->pool(IndexKind::kDil),
                                     corpus->lexicon(IndexKind::kDil),
                                     scoring);
  auto response = processor.Execute({"apple", "pear"}, 20);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->results.size(), 2u);
  // <d> (both keywords) first, <a> (one) second — sibling elements share
  // the same ElemRank, so the keyword-sum decides.
  EXPECT_EQ(response->results[0].id, dewey::DeweyId({0, 1}));
  EXPECT_EQ(response->results[1].id, dewey::DeweyId({0, 0}));
  EXPECT_GT(response->results[0].rank, response->results[1].rank);
}

TEST(DisjunctiveTest, RankOrderedProcessorsRejectDisjunctive) {
  auto corpus = testutil::BuildIndexedCorpus({
      {"<r><a>apple pear</a></r>", "doc"},
  });
  query::ScoringOptions scoring;
  scoring.semantics = query::QuerySemantics::kDisjunctive;
  query::RdilQueryProcessor rdil(corpus->pool(IndexKind::kRdil),
                                 corpus->lexicon(IndexKind::kRdil), scoring);
  auto response = rdil.Execute({"apple", "pear"}, 5);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnimplemented);
}

TEST(DisjunctiveTest, MatchesConjunctiveWhenAllCooccur) {
  // When every keyword occurrence is co-located, disjunctive and
  // conjunctive result sets coincide.
  auto corpus = testutil::BuildIndexedCorpus({
      {"<r><a>apple pear</a><b>apple pear</b></r>", "doc"},
  });
  query::ScoringOptions conjunctive;
  query::ScoringOptions disjunctive;
  disjunctive.semantics = query::QuerySemantics::kDisjunctive;
  query::DilQueryProcessor conj(corpus->pool(IndexKind::kDil),
                                corpus->lexicon(IndexKind::kDil),
                                conjunctive);
  query::DilQueryProcessor disj(corpus->pool(IndexKind::kDil),
                                corpus->lexicon(IndexKind::kDil),
                                disjunctive);
  auto a = conj.Execute({"apple", "pear"}, 10);
  auto b = disj.Execute({"apple", "pear"}, 10);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->results.size(), b->results.size());
  for (size_t i = 0; i < a->results.size(); ++i) {
    EXPECT_EQ(a->results[i].id, b->results[i].id);
    EXPECT_NEAR(a->results[i].rank, b->results[i].rank, 1e-9);
  }
}

}  // namespace
}  // namespace xrank

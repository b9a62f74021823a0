// Tests for the Dewey-stack merge (paper Figure 5): most-specific-result
// computation, spurious-ancestor suppression, independent-occurrence
// semantics, and decay scaling — checked directly against hand-computed
// expectations.

#include "query/dewey_stack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "query/proximity.h"

namespace xrank::query {
namespace {

using dewey::DeweyId;
using index::DecodedBlock;

// An owning copy of a candidate the merger handed out as a view.
struct CandidateResult {
  DeweyId id;
  double overall_rank = 0.0;
  std::vector<double> keyword_ranks;
  uint32_t window = 0;
};

struct MergeRun {
  ScoringOptions scoring;
  std::vector<CandidateResult> results;
  std::map<std::string, CandidateResult> by_id;

  // Each entry is (keyword, a block holding one posting).
  void Run(size_t keywords,
           std::vector<std::pair<size_t, DecodedBlock>> entries,
           size_t min_depth = 1) {
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                const dewey::IdSpan a_id = a.second.at(0).id;
                const dewey::IdSpan b_id = b.second.at(0).id;
                if (!std::ranges::equal(a_id, b_id)) {
                  return dewey::IdLess(a_id, b_id);
                }
                return a.first < b.first;
              });
    DeweyStackMerger merger(keywords, scoring, min_depth,
                            [&](const CandidateView& view) {
                              CandidateResult candidate{
                                  DeweyId(view.id), view.overall_rank,
                                  std::vector<double>(
                                      view.keyword_ranks.begin(),
                                      view.keyword_ranks.end()),
                                  view.window};
                              results.push_back(candidate);
                              by_id[candidate.id.ToString()] = candidate;
                            });
    for (const auto& [keyword, posting] : entries) {
      merger.Add(keyword, posting.at(0));
    }
    merger.Flush();
  }

  bool Has(const std::string& id) const { return by_id.count(id) > 0; }
};

// A block holding the one posting (id, rank, positions).
DecodedBlock P(std::initializer_list<uint32_t> id, float rank,
               std::initializer_list<uint32_t> positions) {
  DecodedBlock posting;
  posting.Append(index::PostingView{std::span<const uint32_t>(id), rank,
                                    std::span<const uint32_t>(positions)});
  return posting;
}

// Paper Figure 6 walk-through: 'XQL Ricardo' over Figure 4's DIL.
// XQL: 5.0.3.0.0 and 6.0.3.8.3; Ricardo: 5.0.3.0.1 and 8.2.1.4.2.
TEST(DeweyStackTest, Figure6WalkThrough) {
  MergeRun run;
  run.scoring.proximity = ProximityMode::kAlwaysOne;
  run.Run(2, {
                 {0, P({5, 0, 3, 0, 0}, 0.3f, {10})},
                 {1, P({5, 0, 3, 0, 1}, 0.4f, {12})},
                 {0, P({6, 0, 3, 8, 3}, 0.2f, {7})},
                 {1, P({8, 2, 1, 4, 2}, 0.5f, {3})},
             });
  // The only element containing both keywords is 5.0.3.0.
  ASSERT_EQ(run.results.size(), 1u);
  const CandidateResult& result = run.results[0];
  EXPECT_EQ(result.id, DeweyId({5, 0, 3, 0}));
  // Each keyword's rank decayed one level: ElemRank * decay^1.
  EXPECT_NEAR(result.keyword_ranks[0], 0.3 * run.scoring.decay, 1e-6);
  EXPECT_NEAR(result.keyword_ranks[1], 0.4 * run.scoring.decay, 1e-6);
  EXPECT_NEAR(result.overall_rank, (0.3 + 0.4) * run.scoring.decay, 1e-6);
}

// Section 2.2 example: 'XQL language' — the subsection directly containing
// both keywords is returned; its section/body ancestors are not; the paper
// element with independent occurrences is.
TEST(DeweyStackTest, MostSpecificAndIndependentOccurrences) {
  MergeRun run;
  run.scoring.proximity = ProximityMode::kAlwaysOne;
  // Model: paper = 1.0; title = 1.0.0 (both keywords); body = 1.0.1;
  // subsection = 1.0.1.0.0 (both keywords).
  run.Run(2, {
                 {0, P({1, 0, 0}, 0.5f, {1})},
                 {1, P({1, 0, 0}, 0.5f, {2})},
                 {0, P({1, 0, 1, 0, 0}, 0.3f, {20})},
                 {1, P({1, 0, 1, 0, 0}, 0.3f, {21})},
             });
  // Results: the title, the subsection — and NOT 1.0.1 / 1.0.1.0 / 1.0
  // (their only occurrences flow through R0 members)... except that 1.0
  // has TWO R0 descendants, and each is suppressed, so 1.0 itself has no
  // independent leftover occurrences and must not be returned either.
  EXPECT_TRUE(run.Has("1.0.0"));
  EXPECT_TRUE(run.Has("1.0.1.0.0"));
  EXPECT_FALSE(run.Has("1.0.1.0"));
  EXPECT_FALSE(run.Has("1.0.1"));
  EXPECT_FALSE(run.Has("1.0"));
  EXPECT_FALSE(run.Has("1"));
  EXPECT_EQ(run.results.size(), 2u);
}

// An ancestor with one R0 child plus an independent partial occurrence of
// each keyword elsewhere IS a result (the <paper> case of Section 2.2).
TEST(DeweyStackTest, AncestorWithIndependentOccurrencesReturned) {
  MergeRun run;
  run.scoring.proximity = ProximityMode::kAlwaysOne;
  // paper = 1.0; subsection 1.0.2.0 contains both; title 1.0.0 has only
  // keyword 0; abstract 1.0.1 has only keyword 1.
  run.Run(2, {
                 {0, P({1, 0, 0}, 0.5f, {1})},
                 {1, P({1, 0, 1}, 0.4f, {5})},
                 {0, P({1, 0, 2, 0}, 0.3f, {30})},
                 {1, P({1, 0, 2, 0}, 0.3f, {31})},
             });
  ASSERT_TRUE(run.Has("1.0.2.0"));
  ASSERT_TRUE(run.Has("1.0"));
  // 1.0's ranks come only from the independent occurrences (decay^1), not
  // from the R0 subtree.
  const CandidateResult& paper = run.by_id["1.0"];
  EXPECT_NEAR(paper.keyword_ranks[0], 0.5 * run.scoring.decay, 1e-6);
  EXPECT_NEAR(paper.keyword_ranks[1], 0.4 * run.scoring.decay, 1e-6);
  // And 1 (the root) is not a result: its occurrences flow through 1.0,
  // which is in R0.
  EXPECT_FALSE(run.Has("1"));
}

TEST(DeweyStackTest, DecayCompoundsPerLevel) {
  MergeRun run;
  run.scoring.decay = 0.5;
  run.scoring.proximity = ProximityMode::kAlwaysOne;
  // Keyword 0 at depth 5, keyword 1 at depth 2; meet at depth 1.
  run.Run(2, {
                 {0, P({3, 0, 0, 0, 0}, 0.8f, {1})},
                 {1, P({3, 1}, 0.6f, {50})},
             });
  ASSERT_TRUE(run.Has("3"));
  const CandidateResult& result = run.by_id["3"];
  // Keyword 0 decays 4 levels: 0.8 * 0.5^4; keyword 1 decays 1: 0.6 * 0.5.
  EXPECT_NEAR(result.keyword_ranks[0], 0.8 * 0.0625, 1e-6);
  EXPECT_NEAR(result.keyword_ranks[1], 0.6 * 0.5, 1e-6);
}

TEST(DeweyStackTest, MaxAggregationTakesBestOccurrence) {
  MergeRun run;
  run.scoring.decay = 0.5;
  run.scoring.aggregation = RankAggregation::kMax;
  run.scoring.proximity = ProximityMode::kAlwaysOne;
  // Two children of 1.0 contain keyword 0 (ranks 0.2 and 0.9); keyword 1
  // directly in a third child.
  run.Run(2, {
                 {0, P({1, 0, 0}, 0.2f, {1})},
                 {0, P({1, 0, 1}, 0.9f, {5})},
                 {1, P({1, 0, 2}, 0.4f, {9})},
             });
  ASSERT_TRUE(run.Has("1.0"));
  EXPECT_NEAR(run.by_id["1.0"].keyword_ranks[0], 0.9 * 0.5, 1e-6);
}

TEST(DeweyStackTest, SumAggregationAddsOccurrences) {
  MergeRun run;
  run.scoring.decay = 0.5;
  run.scoring.aggregation = RankAggregation::kSum;
  run.scoring.proximity = ProximityMode::kAlwaysOne;
  run.Run(2, {
                 {0, P({1, 0, 0}, 0.2f, {1})},
                 {0, P({1, 0, 1}, 0.9f, {5})},
                 {1, P({1, 0, 2}, 0.4f, {9})},
             });
  ASSERT_TRUE(run.Has("1.0"));
  EXPECT_NEAR(run.by_id["1.0"].keyword_ranks[0], (0.2 + 0.9) * 0.5, 1e-6);
}

TEST(DeweyStackTest, ProximityScalesOverallRank) {
  MergeRun run;
  run.scoring.proximity = ProximityMode::kReciprocalWindow;
  // Both keywords directly in one element, 4 words apart -> window 5,
  // tightest possible would be 2, so proximity = 2/5.
  run.Run(2, {
                 {0, P({1, 0}, 0.5f, {10})},
                 {1, P({1, 0}, 0.5f, {14})},
             });
  ASSERT_TRUE(run.Has("1.0"));
  const CandidateResult& result = run.by_id["1.0"];
  EXPECT_EQ(result.window, 5u);
  EXPECT_NEAR(result.overall_rank, (0.5 + 0.5) * (2.0 / 5.0), 1e-6);
}

TEST(DeweyStackTest, SingleKeywordReturnsEveryPostingElement) {
  MergeRun run;
  run.Run(1, {
                 {0, P({1, 0}, 0.5f, {1})},
                 {0, P({1, 0, 2}, 0.3f, {8})},
                 {0, P({2, 1}, 0.2f, {4})},
             });
  // Every directly-containing element is a result; ancestors are not
  // (their occurrences flow through R0 members).
  EXPECT_TRUE(run.Has("1.0"));
  EXPECT_TRUE(run.Has("1.0.2"));
  EXPECT_TRUE(run.Has("2.1"));
  EXPECT_FALSE(run.Has("1"));
  EXPECT_FALSE(run.Has("2"));
  EXPECT_EQ(run.results.size(), 3u);
}

TEST(DeweyStackTest, MinResultDepthSuppressesShallowResults) {
  MergeRun run;
  run.scoring.proximity = ProximityMode::kAlwaysOne;
  run.Run(2,
          {
              {0, P({1, 0, 0}, 0.5f, {1})},
              {1, P({1, 0, 1}, 0.4f, {5})},
              {0, P({1, 2}, 0.5f, {20})},
              {1, P({1, 2}, 0.4f, {21})},
          },
          /*min_depth=*/2);
  EXPECT_TRUE(run.Has("1.0"));
  EXPECT_TRUE(run.Has("1.2"));
  // Depth-1 ancestor "1" would NOT qualify anyway here; check that nothing
  // shallower than 2 was emitted.
  for (const CandidateResult& result : run.results) {
    EXPECT_GE(result.id.depth(), 2u);
  }
}

TEST(DeweyStackTest, NoResultWhenKeywordsInDifferentDocuments) {
  MergeRun run;
  run.Run(2, {
                 {0, P({1, 0}, 0.5f, {1})},
                 {1, P({2, 0}, 0.4f, {2})},
             });
  EXPECT_TRUE(run.results.empty());
}

TEST(DeweyStackTest, EqualIdsAcrossKeywordsMergeIntoOneFrame) {
  MergeRun run;
  run.scoring.proximity = ProximityMode::kAlwaysOne;
  run.Run(3, {
                 {0, P({4, 1}, 0.5f, {1})},
                 {1, P({4, 1}, 0.5f, {2})},
                 {2, P({4, 1}, 0.5f, {3})},
             });
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].id, DeweyId({4, 1}));
  EXPECT_NEAR(run.results[0].overall_rank, 1.5, 1e-6);
}

}  // namespace
}  // namespace xrank::query

// Tests for minimal-window proximity (the keyword-distance dimension of the
// paper's two-dimensional proximity metric, Section 2.3.2.2).

#include "query/proximity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/random.h"

namespace xrank::query {
namespace {

// MinimalWindowSize over owned lists.
uint32_t Window(const std::vector<std::vector<uint32_t>>& lists) {
  std::vector<std::span<const uint32_t>> spans(lists.begin(), lists.end());
  return MinimalWindowSize(spans);
}

TEST(MinimalWindowTest, AdjacentKeywords) {
  EXPECT_EQ(Window({{5}, {6}}), 2u);
}

TEST(MinimalWindowTest, SingleList) {
  EXPECT_EQ(Window({{7, 20, 90}}), 1u);
}

TEST(MinimalWindowTest, PicksTightestCombination) {
  // Lists: {1, 100}, {3, 102}, {50}: best window covers 3..102? No —
  // windows must include one from each: {1,3,50}=50, {100,102,50}=53,
  // {1,102,50}... minimal is [3,50,100]? Check: sorted events make the
  // optimum [3..100] = 98 vs [1..50] missing list2... Actually {1,3,50}
  // spans 1..50 = 50 words.
  EXPECT_EQ(Window({{1, 100}, {3, 102}, {50}}), 50u);
}

TEST(MinimalWindowTest, OverlappingPositions) {
  // The same position in two lists gives window 1.
  EXPECT_EQ(Window({{42}, {42}}), 1u);
}

TEST(MinimalWindowTest, EmptyListMeansNoWindow) {
  EXPECT_EQ(Window({{1, 2}, {}}), 0u);
  EXPECT_EQ(Window({}), 0u);
}

TEST(MinimalWindowTest, UnsortedInputHandled) {
  EXPECT_EQ(Window({{100, 5}, {6, 200}}), 2u);
}

TEST(ProximityTest, ModesAndBounds) {
  EXPECT_DOUBLE_EQ(ProximityFromWindow(ProximityMode::kAlwaysOne, 999, 3),
                   1.0);
  EXPECT_DOUBLE_EQ(ProximityFromWindow(ProximityMode::kReciprocalWindow, 0, 2),
                   0.0);
  // Tightest packing scores 1.
  EXPECT_DOUBLE_EQ(ProximityFromWindow(ProximityMode::kReciprocalWindow, 2, 2),
                   1.0);
  EXPECT_DOUBLE_EQ(ProximityFromWindow(ProximityMode::kReciprocalWindow, 3, 3),
                   1.0);
  // Wider windows decay inversely.
  EXPECT_DOUBLE_EQ(
      ProximityFromWindow(ProximityMode::kReciprocalWindow, 10, 2), 0.2);
  // Never exceeds 1 even for degenerate windows.
  EXPECT_LE(ProximityFromWindow(ProximityMode::kReciprocalWindow, 1, 2), 1.0);
}

// Property: the sliding-window result equals brute force over all pairs of
// covering intervals.
class MinimalWindowPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinimalWindowPropertyTest, MatchesBruteForce) {
  Random rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    size_t lists = 2 + rng.Uniform(3);
    std::vector<std::vector<uint32_t>> positions(lists);
    for (auto& list : positions) {
      size_t count = 1 + rng.Uniform(6);
      for (size_t i = 0; i < count; ++i) {
        list.push_back(static_cast<uint32_t>(rng.Uniform(60)));
      }
    }
    uint32_t fast = Window(positions);

    // Brute force: try every combination via recursive enumeration.
    uint32_t best = UINT32_MAX;
    std::vector<uint32_t> chosen(lists);
    std::function<void(size_t)> enumerate = [&](size_t k) {
      if (k == lists) {
        uint32_t lo = chosen[0], hi = chosen[0];
        for (uint32_t p : chosen) {
          lo = std::min(lo, p);
          hi = std::max(hi, p);
        }
        best = std::min(best, hi - lo + 1);
        return;
      }
      for (uint32_t p : positions[k]) {
        chosen[k] = p;
        enumerate(k + 1);
      }
    };
    enumerate(0);
    EXPECT_EQ(fast, best);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimalWindowPropertyTest,
                         ::testing::Values(7, 77, 777));

}  // namespace
}  // namespace xrank::query

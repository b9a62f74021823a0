#include "query/dewey_stack.h"

#include <algorithm>

#include "common/check.h"
#include "query/proximity.h"

namespace xrank::query {

DeweyStackMerger::DeweyStackMerger(size_t num_keywords,
                                   const ScoringOptions& scoring,
                                   size_t min_result_depth, Callback callback)
    : num_keywords_(num_keywords),
      scoring_(scoring),
      min_result_depth_(std::max<size_t>(min_result_depth, 1)),
      callback_(std::move(callback)),
      arenas_(num_keywords) {
  XRANK_CHECK(num_keywords_ > 0, "merger needs at least one keyword");
}

void DeweyStackMerger::PushFrame(uint32_t component) {
  path_.push_back(component);
  ranks_.resize(ranks_.size() + num_keywords_, 0.0);
  for (const std::vector<uint32_t>& arena : arenas_) {
    starts_.push_back(static_cast<uint32_t>(arena.size()));
  }
  contains_all_.push_back(0);
}

void DeweyStackMerger::PopFrame() {
  const size_t n = num_keywords_;
  const size_t depth = path_.size();
  const size_t top = depth - 1;
  const double* ranks = ranks_.data() + top * n;
  const uint32_t* starts = starts_.data() + top * n;

  size_t present = 0;
  for (size_t k = 0; k < n; ++k) {
    if (arenas_[k].size() > starts[k]) ++present;
  }
  bool qualifies =
      scoring_.semantics == QuerySemantics::kConjunctive
          ? present == n
          : present > 0;
  bool contains_all = contains_all_[top] != 0;

  if (qualifies) {
    // Figure 5 lines 15-18: the element contains every keyword
    // (conjunctive) / at least one keyword (disjunctive).
    contains_all = true;
    if (depth >= min_result_depth_) {
      // Under disjunctive semantics the window covers only the keywords
      // that are present.
      windows_.clear();
      for (size_t k = 0; k < n; ++k) {
        if (arenas_[k].size() > starts[k]) {
          windows_.emplace_back(arenas_[k].data() + starts[k],
                                arenas_[k].size() - starts[k]);
        }
      }
      CandidateView candidate;
      candidate.id = path_;
      candidate.keyword_ranks = std::span<const double>(ranks, n);
      candidate.window = MinimalWindowSize(windows_);
      double proximity = ProximityFromWindow(scoring_.proximity,
                                             candidate.window, present);
      candidate.overall_rank =
          CombineRanks(candidate.keyword_ranks, proximity);
      callback_(candidate);
    }
  }
  if (!qualifies && !contains_all && top > 0) {
    // Lines 19-22: partial occurrences flow into the parent with one level
    // of decay; the positions already lie in the parent's arena suffix.
    double* parent = ranks_.data() + (top - 1) * n;
    for (size_t k = 0; k < n; ++k) {
      if (ranks[k] > 0.0) {
        parent[k] = AggregateRank(scoring_.aggregation, parent[k],
                                  ranks[k] * scoring_.decay);
      }
    }
  } else {
    for (size_t k = 0; k < n; ++k) arenas_[k].resize(starts[k]);
  }
  // Line 23: an element in R0 poisons its ancestors' propagation — their
  // occurrences via this subtree are excluded (Section 2.2's c ∉ R0).
  if (contains_all && top > 0) contains_all_[top - 1] = 1;
  path_.pop_back();
  ranks_.resize(top * n);
  starts_.resize(top * n);
  contains_all_.pop_back();
}

void DeweyStackMerger::Add(size_t keyword_index,
                           const index::PostingView& posting) {
  XRANK_CHECK(!flushed_, "Add after Flush");
  XRANK_CHECK(keyword_index < num_keywords_, "keyword index out of range");
  const dewey::IdSpan id = posting.id;
  ++postings_consumed_;
  // Only a damaged page holds an empty id; it names no element.
  if (id.empty()) return;

  // Longest common prefix with the current stack (Figure 5 lines 10-11).
  const size_t lcp = dewey::CommonPrefixLength(path_, id);

  // Pop the non-matching tail (lines 12-24).
  while (path_.size() > lcp) PopFrame();

  // Push the non-matching part of the new ID (lines 25-28).
  for (size_t i = lcp; i < id.size(); ++i) PushFrame(id[i]);

  // Lines 29-31: attach this posting's rank and positions to the top frame.
  double& rank = ranks_[(path_.size() - 1) * num_keywords_ + keyword_index];
  rank = AggregateRank(scoring_.aggregation, rank,
                       static_cast<double>(posting.elem_rank));
  std::vector<uint32_t>& arena = arenas_[keyword_index];
  arena.insert(arena.end(), posting.positions.begin(),
               posting.positions.end());
}

void DeweyStackMerger::Flush() {
  if (flushed_) return;
  flushed_ = true;
  while (!path_.empty()) PopFrame();
}

}  // namespace xrank::query

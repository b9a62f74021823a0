#ifndef XRANK_QUERY_DEWEY_STACK_H_
#define XRANK_QUERY_DEWEY_STACK_H_

#include <functional>
#include <span>
#include <vector>

#include "index/posting.h"
#include "query/scoring.h"

namespace xrank::query {

// The Dewey-stack merge at the heart of DIL query processing (paper
// Figure 5), also reused by RDIL to verify a candidate subtree. Postings
// must be fed in global Dewey-ID order (across all keywords); the merger
// maintains the stack of components of the current ID, and popping a stack
// frame evaluates the corresponding element:
//
//  * if every keyword's position list is non-empty, the element contains
//    all query keywords — it is emitted as a result and marked ContainsAll
//    (it is in R0, so nothing propagates above it; Section 2.2's exclusion
//    of sub-elements already containing all keywords);
//  * otherwise, unless a descendant already contained all keywords, its
//    position lists and decay-scaled ranks merge into its parent
//    (implementing r(v,k) = ElemRank(v_t) · decay^(t-1), Section 2.3.2.1).
//
// The stack lives in flat arrays that keep their capacity, so feeding a
// posting allocates nothing once they have grown: per depth one component,
// one rank per keyword and the ContainsAll mark; per keyword one position
// arena, in which a frame's positions are the suffix that starts at the
// frame's offset. Propagating positions to the parent therefore moves
// nothing, and a frame whose positions go nowhere truncates the arena.
class DeweyStackMerger {
 public:
  // Receives each result as a view into the stack, valid during the call.
  using Callback = std::function<void(const CandidateView&)>;

  // Results shallower than `min_result_depth` components are suppressed
  // (RDIL verification must not emit ancestors of the verified subtree
  // root, whose other descendants were not scanned).
  DeweyStackMerger(size_t num_keywords, const ScoringOptions& scoring,
                   size_t min_result_depth, Callback callback);

  // Feeds the next posting of keyword `keyword_index`. IDs must be
  // non-decreasing across calls; equal IDs for different keywords are fine.
  void Add(size_t keyword_index, const index::PostingView& posting);

  // Signals end of input: pops and evaluates all remaining frames.
  void Flush();

  uint64_t postings_consumed() const { return postings_consumed_; }

 private:
  void PushFrame(uint32_t component);
  // Pops the top frame, evaluating / propagating per Figure 5 lines 12-24.
  void PopFrame();

  size_t num_keywords_;
  ScoringOptions scoring_;
  size_t min_result_depth_;
  Callback callback_;
  // Frame d (0 = the document root) is element path_[0..d]; its keyword
  // ranks are ranks_[d * n + k] (0 = absent) and its positions of keyword
  // k are arenas_[k][starts_[d * n + k], ...) up to the next frame's start.
  std::vector<uint32_t> path_;
  std::vector<double> ranks_;
  std::vector<uint32_t> starts_;
  std::vector<char> contains_all_;
  std::vector<std::vector<uint32_t>> arenas_;
  std::vector<std::span<const uint32_t>> windows_;  // PopFrame's scratch
  uint64_t postings_consumed_ = 0;
  bool flushed_ = false;
};

}  // namespace xrank::query

#endif  // XRANK_QUERY_DEWEY_STACK_H_

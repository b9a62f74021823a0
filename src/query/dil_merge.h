#ifndef XRANK_QUERY_DIL_MERGE_H_
#define XRANK_QUERY_DIL_MERGE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "query/deadline.h"
#include "query/dewey_stack.h"
#include "query/posting_cursor.h"
#include "query/query.h"
#include "query/result_heap.h"
#include "query/scoring.h"

namespace xrank::query {

// The merges of the DIL lists (paper Section 4.2, Figure 5): the
// exhaustive n-way merge, and three document-at-a-time merges that feed
// the DeweyStackMerger exactly the documents that can still produce or
// change a top-k result, in global Dewey order, so every surviving element
// is scored by the same code path as in the exhaustive merge. Each returns
// bitwise the same ids and ranks as the exhaustive merge: a bound prunes
// only when, inflated by a slack factor, it stays strictly below the
// current k-th result, so ties always survive. See DESIGN.md sections 8,
// 11 and 13.
//
// Every merge takes the query's cursors, each already standing on its
// first posting (PostingCursor::Next), and stops when its lists are done,
// when a bound proves that nothing ahead can enter the top-k, or with
// DeadlineExceeded when `deadline` expires.

// Pruning-efficacy counters, folded into QueryStats by the caller.
struct PruningCounters {
  uint64_t docs_skipped = 0;     // prune decisions that bypassed documents
  uint64_t pivot_advances = 0;   // SkipTo calls driven by bounds
  uint64_t blocks_pruned = 0;    // list pages jumped by those skips
};

// The algorithm that will actually run for `requested` under these scoring
// options: kAuto picks block-max WAND for few-term queries when per-page
// bounds are sound and MaxScore otherwise; BMW degrades to MaxScore under
// sum aggregation, where only the list bounds are sound; everything
// degrades to kExhaustive when no sound list bound exists (decay > 1).
// Never returns kAuto.
MergeAlgorithm ResolveMergeAlgorithm(MergeAlgorithm requested,
                                     const ScoringOptions& scoring,
                                     size_t num_terms);

// Figure 5 lines 6-9: repeatedly consumes the cursor holding the smallest
// Dewey id until every list is exhausted.
Status ExhaustiveMerge(std::vector<PostingCursor>* cursors,
                       DeweyStackMerger* merger, QueryDeadline* deadline);

// Conjunctive document-at-a-time merge. The frontier is the largest current
// document: no earlier document holds every keyword, so the lagging
// cursors leap to it through the skip blocks, and one exhausted list ends
// the query. Under max aggregation (SupportsBlockMaxBounds) an aligned
// frontier is checked against the page-run maxima of every list, and when
// even those cannot reach the k-th result the runs are widened and skipped
// without being decoded.
Status DaatMerge(std::vector<PostingCursor>* cursors,
                 const ScoringOptions& scoring, DeweyStackMerger* merger,
                 TopKAccumulator* accumulator, QueryDeadline* deadline,
                 PruningCounters* counters);

// MaxScore (Turtle & Flood): lists are partitioned by ascending list-level
// bound into a non-essential prefix whose bounds sum below the current
// threshold — documents appearing only there can never qualify and are
// skipped without any cursor work — and the essential rest, which drive
// candidate selection. The partition is re-derived as the threshold rises.
// Under max aggregation, candidate bounds are tightened with per-page
// block maxima and failing candidates skip whole page runs.
Status MaxScoreMerge(std::vector<PostingCursor>* cursors,
                     const ScoringOptions& scoring, DeweyStackMerger* merger,
                     TopKAccumulator* accumulator, QueryDeadline* deadline,
                     PruningCounters* counters);

// Block-max WAND (Ding & Suel). WAND pivot selection: cursors sorted by
// current document; the pivot is the first position where the cumulative
// list bounds reach the threshold — no earlier document can qualify, so
// lagging cursors leap straight to the pivot document. An aligned pivot is
// then re-checked against the page-run maxima and skipped past the run
// when even those cannot reach the threshold. Requires sound per-page
// bounds (SupportsBlockMaxBounds); returns InvalidArgument otherwise.
Status WandMerge(std::vector<PostingCursor>* cursors,
                 const ScoringOptions& scoring, DeweyStackMerger* merger,
                 TopKAccumulator* accumulator, QueryDeadline* deadline,
                 PruningCounters* counters);

}  // namespace xrank::query

#endif  // XRANK_QUERY_DIL_MERGE_H_

#ifndef XRANK_QUERY_DISJUNCTIVE_MERGE_H_
#define XRANK_QUERY_DISJUNCTIVE_MERGE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "query/deadline.h"
#include "query/dewey_stack.h"
#include "query/query.h"
#include "query/result_heap.h"
#include "query/scored_cursor.h"
#include "query/scoring.h"

namespace xrank::query {

// Safe dynamic pruning for disjunctive (and mixed) top-k over the Dewey
// cursor layer: document-at-a-time MaxScore and block-max WAND that
// feed exactly the documents that can still reach the k-th result into the
// DeweyStackMerger, in global Dewey order, so every surviving element is
// scored by the identical code path as the exhaustive merge. Pruning is
// exact: each algorithm returns bitwise the same ids and ranks as the
// exhaustive oracle (comparisons inflate upper bounds by a slack factor
// and only prune on strictly-below, so ties always survive). See DESIGN.md
// section 13.

// Pruning-efficacy counters, folded into QueryStats by the caller.
struct PruningCounters {
  uint64_t docs_skipped = 0;     // prune decisions that bypassed documents
  uint64_t pivot_advances = 0;   // SkipToDocument calls driven by bounds
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

// MaxScore (Turtle & Flood): lists are partitioned by ascending list-level
// bound into a non-essential prefix whose bounds sum below the current
// threshold — documents appearing only there can never qualify and are
// skipped without any cursor work — and the essential rest, which drive
// candidate selection. The partition is re-derived as the threshold rises.
// Under max aggregation, candidate bounds are tightened with per-page
// block maxima and failing candidates skip whole page runs.
Status MaxScoreMerge(std::vector<ScoredCursor>* cursors,
                     const ScoringOptions& scoring, DeweyStackMerger* merger,
                     TopKAccumulator* accumulator, QueryDeadline* deadline,
                     PruningCounters* counters);

// Block-max WAND (Ding & Suel). WAND pivot selection: cursors sorted by
// current document; the pivot is the first position where the cumulative
// list bounds reach the threshold — no earlier document can qualify, so
// lagging cursors leap straight to the pivot document via SkipToDocument.
// An aligned pivot is then re-checked against the page-run maxima and
// skipped past the run when even those cannot reach the threshold.
// Requires sound per-page bounds (SupportsBlockMaxBounds); returns
// InvalidArgument otherwise.
Status WandMerge(std::vector<ScoredCursor>* cursors,
                 const ScoringOptions& scoring, DeweyStackMerger* merger,
                 TopKAccumulator* accumulator, QueryDeadline* deadline,
                 PruningCounters* counters);

}  // namespace xrank::query

#endif  // XRANK_QUERY_DISJUNCTIVE_MERGE_H_

#include "query/dil_merge.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace xrank::query {

namespace {

constexpr uint32_t kNoDoc = PostingCursor::kNoDocument;

// Upper bounds are sums of per-term bounds that each dominate the true
// keyword rank, but the merger sums the true ranks in a different order —
// floating-point addition is not monotone across orders, so a raw
// comparison could under-estimate by an ulp and prune a qualifying
// element. Inflating the bound by this slack (and pruning only on
// strictly-below) makes the comparison safe and keeps ties alive, which is
// what makes pruned results bitwise equal to the exhaustive merge's.
constexpr double kBoundSlack = 1.0 + 1e-9;

// True when `bound` provably cannot reach the threshold.
bool BelowThreshold(double bound, double theta) {
  return bound * kBoundSlack < theta;
}

// One cursor's block-refined share of a candidate bound: the page-run bound
// `rb` and the contribution min(list bound, rb.bound) currently summed into
// the total.
struct RefinedBound {
  PostingCursor* cursor;
  PostingCursor::RankBound rb;
  double contribution;
};

// Adds `cursor`'s share of the bound on document `doc` to `total`: its
// page-run bound, capped by its list bound and recorded in `refined` for
// widening, when `refine` holds and the list has page bounds; its list
// bound otherwise.
void AddBound(PostingCursor* cursor, uint32_t doc, bool refine,
              std::vector<RefinedBound>* refined, double* total) {
  if (refine) {
    PostingCursor::RankBound rb = cursor->DocumentRankBound(doc);
    if (rb.valid) {
      const double contribution = std::min(cursor->score_bound(), rb.bound);
      refined->push_back(RefinedBound{cursor, rb, contribution});
      *total += contribution;
      return;
    }
  }
  *total += cursor->score_bound();
}

// Greedy run widening: while the total stays provably below theta, extend
// the page run of whichever bounded cursor ends first, so the eventual
// skip jumps as many whole pages as the threshold allows instead of one
// run at a time. It stops once every run reaches `limit`, where the skip
// stops anyway.
Status WidenRuns(std::vector<RefinedBound>* refined, double* total,
                 double theta, uint32_t limit, QueryDeadline* deadline) {
  for (;;) {
    XRANK_RETURN_NOT_OK(deadline->Check());
    RefinedBound* binding = nullptr;
    for (RefinedBound& r : *refined) {
      if (r.rb.next_doc == kNoDoc) continue;  // already at end of list
      if (binding == nullptr || r.rb.next_doc < binding->rb.next_doc) {
        binding = &r;
      }
    }
    if (binding == nullptr || binding->rb.next_doc >= limit) {
      return Status::OK();
    }
    double widened =
        std::max(binding->rb.bound, binding->cursor->NextPageRank(binding->rb));
    double contribution = std::min(binding->cursor->score_bound(), widened);
    double candidate = *total - binding->contribution + contribution;
    if (!BelowThreshold(candidate, theta)) return Status::OK();
    *total = candidate;
    binding->contribution = contribution;
    binding->cursor->ExtendBound(&binding->rb);
  }
}

// Nothing ahead in any list can beat the top-k. Charge the never-read
// tails to the prune counter before the caller stops the merge.
void ChargeUnreadTails(const std::vector<PostingCursor>& cursors,
                       PruningCounters* counters) {
  for (const PostingCursor& cursor : cursors) {
    uint32_t last = cursor.extent().page_count;
    if (last > cursor.current_page_index() + 1) {
      counters->blocks_pruned += last - cursor.current_page_index() - 1;
    }
  }
}

// Moves `cursor` to the first posting of document `doc` or later on a
// bound's say-so. A leap over pruned documents (`prune`) charges the list
// pages it jumped to the prune counter.
Status Leap(PostingCursor* cursor, uint32_t doc, bool prune,
            PruningCounters* counters) {
  const uint64_t skipped_before = cursor->pages_skipped();
  XRANK_RETURN_NOT_OK(cursor->SkipTo(doc));
  ++counters->pivot_advances;
  if (prune) {
    counters->blocks_pruned += cursor->pages_skipped() - skipped_before;
  }
  return Status::OK();
}

// What the block-max check of one document decided.
enum class RunCheck {
  kFeed,   // the document may reach the top-k: merge it
  kLeapt,  // the aligned cursors leapt past documents below the threshold
  kDone,   // nothing left in any list can reach the top-k
};

// The bound check of document `doc`, on which exactly the cursors in
// `aligned` stand; the other lists jointly add at most `base` to any
// document before `limit`. When `base` plus the aligned cursors' page-run
// bounds (list bounds without `refine`) stays below theta even with the
// runs widened as far as theta allows, no document before the runs' end
// or `limit` can reach the top-k, and the aligned cursors leap there.
Result<RunCheck> CheckRuns(const std::vector<PostingCursor*>& aligned,
                           uint32_t doc, double base, uint32_t limit,
                           bool refine, double theta,
                           const std::vector<PostingCursor>& cursors,
                           std::vector<RefinedBound>* refined,
                           QueryDeadline* deadline,
                           PruningCounters* counters) {
  double bound = base;
  refined->clear();
  for (PostingCursor* cursor : aligned) {
    AddBound(cursor, doc, refine, refined, &bound);
  }
  if (!BelowThreshold(bound, theta)) return RunCheck::kFeed;
  ++counters->docs_skipped;
  XRANK_RETURN_NOT_OK(WidenRuns(refined, &bound, theta, limit, deadline));
  uint32_t target = limit;
  for (const RefinedBound& r : *refined) {
    target = std::min(target, r.rb.next_doc);
  }
  if (target == kNoDoc) {
    ChargeUnreadTails(cursors, counters);
    return RunCheck::kDone;
  }
  for (PostingCursor* cursor : aligned) {
    XRANK_RETURN_NOT_OK(Leap(cursor, target, /*prune=*/true, counters));
  }
  return RunCheck::kLeapt;
}

// Feeds every posting of document `d` into the merger in global Dewey
// order: repeatedly the smallest current id among the cursors still inside
// the document, the first in `on_doc` on ties. `on_doc` holds exactly the
// cursors standing on `d`, in query order (the caller collects them once,
// so each posting costs a min over that subset, not a rescan of every
// cursor); it is consumed. This is exactly the subsequence of the
// exhaustive merge for `d`, so scoring is identical.
Status FeedDocument(std::vector<PostingCursor*>* on_doc, uint32_t d,
                    DeweyStackMerger* merger, QueryDeadline* deadline) {
  while (!on_doc->empty()) {
    XRANK_RETURN_NOT_OK(deadline->Check());
    size_t smallest = 0;
    for (size_t i = 1; i < on_doc->size(); ++i) {
      if (dewey::IdLess((*on_doc)[i]->current().id,
                        (*on_doc)[smallest]->current().id)) {
        smallest = i;
      }
    }
    PostingCursor* cursor = (*on_doc)[smallest];
    merger->Add(cursor->term(), cursor->current());
    XRANK_RETURN_NOT_OK(cursor->Next());
    if (cursor->doc() != d) on_doc->erase(on_doc->begin() + smallest);
  }
  return Status::OK();
}

// Document-order comparison for WandMerge's cursor ordering (exhausted
// cursors hold kNoDocument and sink to the back); ties break by term slot
// for determinism.
bool DocOrderLess(const std::vector<PostingCursor>& cursors, size_t a,
                  size_t b) {
  const PostingCursor& ca = cursors[a];
  const PostingCursor& cb = cursors[b];
  if (ca.doc() != cb.doc()) return ca.doc() < cb.doc();
  return ca.term() < cb.term();
}

// Restores sortedness after the first `moved` entries of `order` advanced:
// each is re-inserted into the tail it now belongs in (the tail is sorted —
// those cursors did not move, and entries are processed back to front).
// O(moved × n) per decision instead of a full re-sort, the classic WAND
// bookkeeping.
void Reposition(std::vector<size_t>* order,
                const std::vector<PostingCursor>& cursors, size_t moved) {
  for (size_t i = moved; i-- > 0;) {
    const size_t value = (*order)[i];
    size_t j = i;
    while (j + 1 < order->size() &&
           DocOrderLess(cursors, (*order)[j + 1], value)) {
      (*order)[j] = (*order)[j + 1];
      ++j;
    }
    (*order)[j] = value;
  }
}

}  // namespace

MergeAlgorithm ResolveMergeAlgorithm(MergeAlgorithm requested,
                                     const ScoringOptions& scoring,
                                     size_t num_terms) {
  if (requested == MergeAlgorithm::kExhaustive) {
    return MergeAlgorithm::kExhaustive;
  }
  if (!SupportsScorePruning(scoring)) return MergeAlgorithm::kExhaustive;
  // Page bounds are unsound under sum aggregation; MaxScore needs only the
  // list bounds.
  if (!SupportsBlockMaxBounds(scoring)) return MergeAlgorithm::kMaxScore;
  if (requested == MergeAlgorithm::kAuto) {
    // Few-term queries profit most from per-page refinement (the pivot
    // stays cheap); wide disjunctions favor MaxScore's partition, which
    // does no per-candidate sort.
    return num_terms <= 4 ? MergeAlgorithm::kBlockMaxWand
                          : MergeAlgorithm::kMaxScore;
  }
  return requested;
}

Status ExhaustiveMerge(std::vector<PostingCursor>* cursors,
                       DeweyStackMerger* merger, QueryDeadline* deadline) {
  for (;;) {
    XRANK_RETURN_NOT_OK(deadline->Check());
    PostingCursor* smallest = nullptr;
    for (PostingCursor& cursor : *cursors) {
      if (!cursor.live()) continue;
      if (smallest == nullptr ||
          dewey::IdLess(cursor.current().id, smallest->current().id)) {
        smallest = &cursor;
      }
    }
    if (smallest == nullptr) return Status::OK();  // all lists exhausted
    merger->Add(smallest->term(), smallest->current());
    XRANK_RETURN_NOT_OK(smallest->Next());
  }
}

Status DaatMerge(std::vector<PostingCursor>* cursors,
                 const ScoringOptions& scoring, DeweyStackMerger* merger,
                 TopKAccumulator* accumulator, QueryDeadline* deadline,
                 PruningCounters* counters) {
  // Page maxima bound a keyword rank only under max aggregation.
  const bool pruning = SupportsBlockMaxBounds(scoring);
  std::vector<RefinedBound> refined;    // reused across iterations
  refined.reserve(cursors->size());
  std::vector<PostingCursor*> on_doc;  // reused across documents
  on_doc.reserve(cursors->size());

  for (;;) {
    XRANK_RETURN_NOT_OK(deadline->Check());
    // The frontier: no earlier document holds every keyword. An exhausted
    // cursor (kNoDocument) ends the query.
    uint32_t target = 0;
    for (const PostingCursor& cursor : *cursors) {
      target = std::max(target, cursor.doc());
    }
    if (target == kNoDoc) break;

    bool aligned = true;
    for (PostingCursor& cursor : *cursors) {
      if (cursor.doc() >= target) continue;
      XRANK_RETURN_NOT_OK(Leap(&cursor, target, /*prune=*/false, counters));
      if (cursor.doc() != target) aligned = false;
    }
    if (!aligned) continue;  // the frontier moved: recompute it

    // Every cursor stands on the frontier document; their page runs bound
    // it and every document up to the first run boundary.
    on_doc.clear();
    for (PostingCursor& cursor : *cursors) on_doc.push_back(&cursor);
    if (pruning) {
      const double theta = accumulator->KthRank();
      if (std::isfinite(theta)) {
        XRANK_ASSIGN_OR_RETURN(
            RunCheck check,
            CheckRuns(on_doc, target, /*base=*/0.0, /*limit=*/kNoDoc,
                      /*refine=*/true, theta, *cursors, &refined, deadline,
                      counters));
        if (check == RunCheck::kDone) break;
        if (check == RunCheck::kLeapt) continue;  // re-align
      }
    }
    XRANK_RETURN_NOT_OK(FeedDocument(&on_doc, target, merger, deadline));
  }
  return Status::OK();
}

Status MaxScoreMerge(std::vector<PostingCursor>* cursors,
                     const ScoringOptions& scoring, DeweyStackMerger* merger,
                     TopKAccumulator* accumulator, QueryDeadline* deadline,
                     PruningCounters* counters) {
  const size_t n = cursors->size();
  const bool block_refine = SupportsBlockMaxBounds(scoring);
  std::vector<RefinedBound> refined;    // reused across iterations
  refined.reserve(n);
  std::vector<PostingCursor*> aligned;  // essential cursors on the candidate
  aligned.reserve(n);
  std::vector<PostingCursor*> on_doc;   // reused across evaluated documents
  on_doc.reserve(n);

  // Fixed ascending order by list-level bound; prefix[i] bounds what the i
  // cheapest lists can jointly contribute to any one element.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return (*cursors)[a].score_bound() < (*cursors)[b].score_bound();
  });
  std::vector<double> prefix(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + (*cursors)[order[i]].score_bound();
  }

  for (;;) {
    XRANK_RETURN_NOT_OK(deadline->Check());
    const double theta = accumulator->KthRank();  // -inf until the heap fills

    // Non-essential prefix: the longest prefix whose joint bound stays
    // below theta. A document appearing only in those lists can never
    // reach the top-k, so the essential cursors alone drive candidates.
    size_t p = 0;
    while (p < n && BelowThreshold(prefix[p + 1], theta)) ++p;

    uint32_t d = kNoDoc;
    for (size_t i = p; i < n; ++i) {
      d = std::min(d, (*cursors)[order[i]].doc());
    }
    if (d == kNoDoc) {
      // Either the essential lists are exhausted, or (p == n) theta already
      // dominates every list jointly — e.g. a shard-router θ floor raised
      // by an earlier shard before this one scanned anything. Any pages the
      // live cursors never read were avoided by pruning; charge them so the
      // fleet-wide stats reflect the saved work.
      ChargeUnreadTails(*cursors, counters);
      break;
    }

    if (std::isfinite(theta)) {
      // Bound the candidate: the full non-essential prefix plus each
      // essential list standing on `d` (essential cursors past `d` cannot
      // contain it, nor any document before the first of them). Under max
      // aggregation the per-page block maximum tightens the list bound and
      // widens the skip across whole page runs.
      uint32_t next_essential = kNoDoc;
      aligned.clear();
      for (size_t i = p; i < n; ++i) {
        PostingCursor& cursor = (*cursors)[order[i]];
        if (cursor.doc() == d) {
          aligned.push_back(&cursor);
        } else {
          next_essential = std::min(next_essential, cursor.doc());
        }
      }
      XRANK_ASSIGN_OR_RETURN(
          RunCheck check,
          CheckRuns(aligned, d, prefix[p], next_essential, block_refine,
                    theta, *cursors, &refined, deadline, counters));
      if (check == RunCheck::kDone) break;
      if (check == RunCheck::kLeapt) continue;
    }

    // Evaluate `d`: bring the lagging non-essential cursors up to it, then
    // feed the whole document. Postings they discard on the way belong to
    // documents already merged or provably below threshold.
    for (size_t i = 0; i < p; ++i) {
      PostingCursor& cursor = (*cursors)[order[i]];
      if (cursor.doc() < d) {
        XRANK_RETURN_NOT_OK(Leap(&cursor, d, /*prune=*/false, counters));
      }
    }
    on_doc.clear();
    for (PostingCursor& cursor : *cursors) {
      if (cursor.doc() == d) on_doc.push_back(&cursor);
    }
    XRANK_RETURN_NOT_OK(FeedDocument(&on_doc, d, merger, deadline));
  }
  return Status::OK();
}

Status WandMerge(std::vector<PostingCursor>* cursors,
                 const ScoringOptions& scoring, DeweyStackMerger* merger,
                 TopKAccumulator* accumulator, QueryDeadline* deadline,
                 PruningCounters* counters) {
  if (!SupportsBlockMaxBounds(scoring)) {
    return Status::InvalidArgument(
        "block-max WAND needs sound per-page bounds (max aggregation)");
  }
  const size_t n = cursors->size();
  std::vector<RefinedBound> refined;   // reused across iterations
  refined.reserve(n);
  std::vector<PostingCursor*> on_doc;  // reused across evaluated documents
  on_doc.reserve(n);

  // Sorted by current document once; every later advance only moves a
  // prefix of the order forward, which Reposition re-inserts into the
  // still-sorted tail instead of re-sorting all n cursors per iteration.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return DocOrderLess(*cursors, a, b); });

  for (;;) {
    XRANK_RETURN_NOT_OK(deadline->Check());
    if ((*cursors)[order[0]].doc() == kNoDoc) break;  // all exhausted

    const double theta = accumulator->KthRank();
    // Pivot: the first prefix of the sorted cursors whose joint bound can
    // reach theta. Documents before the pivot document live only in the
    // sub-threshold prefix — unreachable, skipped without cursor work.
    size_t pivot = 0;
    if (std::isfinite(theta)) {
      double acc = 0.0;
      pivot = n;
      for (size_t i = 0; i < n; ++i) {
        if ((*cursors)[order[i]].doc() == kNoDoc) break;
        acc += (*cursors)[order[i]].score_bound();
        if (!BelowThreshold(acc, theta)) {
          pivot = i;
          break;
        }
      }
      if (pivot == n) {
        // Even all lists jointly stay below theta (with a shared θ floor
        // this can hold before anything was scanned). The unread pages
        // were pruned, not merely unvisited — account for them.
        ChargeUnreadTails(*cursors, counters);
        break;
      }
    }
    const uint32_t pivot_doc = (*cursors)[order[pivot]].doc();
    if (pivot_doc == kNoDoc) break;

    if ((*cursors)[order[0]].doc() != pivot_doc) {
      // Lagging cursors leap to the pivot document; everything they hop
      // over is covered by the sub-threshold prefix bound.
      ++counters->docs_skipped;
      for (size_t i = 0; i < pivot; ++i) {
        PostingCursor& cursor = (*cursors)[order[i]];
        if (cursor.doc() < pivot_doc) {
          XRANK_RETURN_NOT_OK(
              Leap(&cursor, pivot_doc, /*prune=*/true, counters));
        }
      }
      Reposition(&order, *cursors, pivot);
      continue;
    }

    // Aligned: every cursor on pivot_doc (there may be more beyond the
    // pivot index) participates in its score; the next cursor's document
    // ends the stretch their page runs bound.
    size_t last_eq = pivot;
    while (last_eq + 1 < n &&
           (*cursors)[order[last_eq + 1]].doc() == pivot_doc) {
      ++last_eq;
    }
    on_doc.clear();
    for (size_t i = 0; i <= last_eq; ++i) {
      on_doc.push_back(&(*cursors)[order[i]]);
    }
    if (std::isfinite(theta)) {
      const uint32_t next_doc =
          last_eq + 1 < n ? (*cursors)[order[last_eq + 1]].doc() : kNoDoc;
      XRANK_ASSIGN_OR_RETURN(
          RunCheck check,
          CheckRuns(on_doc, pivot_doc, /*base=*/0.0, next_doc,
                    /*refine=*/true, theta, *cursors, &refined, deadline,
                    counters));
      if (check == RunCheck::kDone) break;
      if (check == RunCheck::kLeapt) {
        Reposition(&order, *cursors, last_eq + 1);
        continue;
      }
    }
    XRANK_RETURN_NOT_OK(FeedDocument(&on_doc, pivot_doc, merger, deadline));
    Reposition(&order, *cursors, last_eq + 1);
  }
  return Status::OK();
}

}  // namespace xrank::query

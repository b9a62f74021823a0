#include "query/disjunctive_merge.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace xrank::query {

namespace {

constexpr uint32_t kNoDoc = ScoredCursor::kNoDocument;

// Upper bounds are sums of per-term bounds that each dominate the true
// keyword rank, but the merger sums the true ranks in a different order —
// floating-point addition is not monotone across orders, so a raw
// comparison could under-estimate by an ulp and prune a qualifying
// element. Inflating the bound by this slack (and pruning only on
// strictly-below) makes the comparison safe and keeps ties alive, which is
// what makes pruned results bitwise equal to the exhaustive oracle.
constexpr double kBoundSlack = 1.0 + 1e-9;

// True when `bound` provably cannot reach the threshold.
bool BelowThreshold(double bound, double theta) {
  return bound * kBoundSlack < theta;
}

uint64_t TotalPagesSkipped(const std::vector<ScoredCursor>& cursors) {
  uint64_t total = 0;
  for (const ScoredCursor& sc : cursors) total += sc.cursor()->pages_skipped();
  return total;
}

// One cursor's block-refined share of a candidate bound: the page-run bound
// `rb` and the contribution min(list bound, rb.bound) currently summed into
// the total.
struct RefinedBound {
  ScoredCursor* sc;
  PostingCursor::RankBound rb;
  double contribution;
};

// Greedy run widening, the same scheme as the conjunctive pruning path:
// while the total stays provably below theta, extend the page run of
// whichever bounded cursor ends first, so the eventual skip jumps as many
// whole pages as the threshold allows instead of one run at a time.
Status WidenRuns(std::vector<RefinedBound>* refined, double* total,
                 double theta, QueryDeadline* deadline) {
  for (;;) {
    XRANK_RETURN_NOT_OK(deadline->Check());
    RefinedBound* binding = nullptr;
    for (RefinedBound& r : *refined) {
      if (r.rb.next_doc == kNoDoc) continue;  // already at end of list
      if (binding == nullptr || r.rb.next_doc < binding->rb.next_doc) {
        binding = &r;
      }
    }
    if (binding == nullptr) return Status::OK();
    double widened = std::max(
        binding->rb.bound, binding->sc->cursor()->NextPageRank(binding->rb));
    double contribution = std::min(binding->sc->score_bound(), widened);
    double candidate = *total - binding->contribution + contribution;
    if (!BelowThreshold(candidate, theta)) return Status::OK();
    *total = candidate;
    binding->contribution = contribution;
    binding->sc->cursor()->ExtendBound(&binding->rb);
  }
}

// The widened runs extend to the end of every list: nothing ahead can beat
// the top-k. Charge the never-read tails to the prune counter (matching
// the conjunctive path) before the caller stops the merge.
void ChargeUnreadTails(const std::vector<ScoredCursor>& cursors,
                       PruningCounters* counters) {
  for (const ScoredCursor& sc : cursors) {
    uint32_t last = sc.cursor()->extent().page_count;
    if (last > sc.cursor()->current_page_index() + 1) {
      counters->blocks_pruned += last - sc.cursor()->current_page_index() - 1;
    }
  }
}

// Feeds every posting of document `d` into the merger in global Dewey
// order: repeatedly the smallest current id among the cursors still inside
// the document. `on_doc` holds exactly the cursors standing on `d` (the
// caller collects them once, so each posting costs a min over that subset,
// not a rescan of every cursor); it is consumed. This is exactly the
// subsequence of the exhaustive merge for `d`, so scoring is identical.
Status FeedDocument(std::vector<ScoredCursor*>* on_doc, uint32_t d,
                    DeweyStackMerger* merger, QueryDeadline* deadline) {
  while (!on_doc->empty()) {
    XRANK_RETURN_NOT_OK(deadline->Check());
    size_t smallest = 0;
    for (size_t i = 1; i < on_doc->size(); ++i) {
      if ((*on_doc)[i]->current().id < (*on_doc)[smallest]->current().id) {
        smallest = i;
      }
    }
    ScoredCursor* sc = (*on_doc)[smallest];
    merger->Add(sc->term(), sc->current());
    XRANK_RETURN_NOT_OK(sc->Next().status());
    if (!sc->live() || sc->doc() != d) {
      (*on_doc)[smallest] = on_doc->back();
      on_doc->pop_back();
    }
  }
  return Status::OK();
}

// Document-order comparison for WandMerge's cursor ordering (exhausted
// cursors hold kNoDocument and sink to the back); ties break by term slot
// for determinism.
bool DocOrderLess(const std::vector<ScoredCursor>& cursors, size_t a,
                  size_t b) {
  const ScoredCursor& ca = cursors[a];
  const ScoredCursor& cb = cursors[b];
  if (ca.doc() != cb.doc()) return ca.doc() < cb.doc();
  return ca.term() < cb.term();
}

// Restores sortedness after the first `moved` entries of `order` advanced:
// each is re-inserted into the tail it now belongs in (the tail is sorted —
// those cursors did not move, and entries are processed back to front).
// O(moved × n) per decision instead of a full re-sort, the classic WAND
// bookkeeping.
void Reposition(std::vector<size_t>* order,
                const std::vector<ScoredCursor>& cursors, size_t moved) {
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

Status MaxScoreMerge(std::vector<ScoredCursor>* cursors,
                     const ScoringOptions& scoring, DeweyStackMerger* merger,
                     TopKAccumulator* accumulator, QueryDeadline* deadline,
                     PruningCounters* counters) {
  const size_t n = cursors->size();
  const bool block_refine = SupportsBlockMaxBounds(scoring);
  std::vector<RefinedBound> refined;   // reused across iterations
  refined.reserve(n);
  std::vector<ScoredCursor*> on_doc;  // reused across evaluated documents
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
      // contain it). Under max aggregation the per-page block maximum
      // tightens the list bound and widens the skip across whole page runs.
      double bound = prefix[p];
      uint32_t next_essential = kNoDoc;  // first essential doc past d
      refined.clear();
      for (size_t i = p; i < n; ++i) {
        ScoredCursor& sc = (*cursors)[order[i]];
        if (!sc.live()) continue;
        if (sc.doc() > d) {
          next_essential = std::min(next_essential, sc.doc());
          continue;
        }
        double u = sc.score_bound();
        if (block_refine) {
          PostingCursor::RankBound rb = sc.cursor()->DocumentRankBound(d);
          if (rb.valid) {
            u = std::min(u, rb.bound);
            refined.push_back(RefinedBound{&sc, rb, u});
          }
        }
        bound += u;
      }
      if (BelowThreshold(bound, theta)) {
        ++counters->docs_skipped;
        XRANK_RETURN_NOT_OK(WidenRuns(&refined, &bound, theta, deadline));
        uint32_t run_end = kNoDoc;  // where the widened block bounds expire
        for (const RefinedBound& r : refined) {
          run_end = std::min(run_end, r.rb.next_doc);
        }
        // Every document in [d, target) is covered by the same bound: it
        // can only appear in the non-essential lists or in the essential
        // cursors currently at `d` (within their widened page runs).
        const uint32_t target = std::min(run_end, next_essential);
        if (target == kNoDoc) {
          ChargeUnreadTails(*cursors, counters);
          break;  // bound holds to the end of all lists
        }
        const uint64_t skipped_before = TotalPagesSkipped(*cursors);
        for (size_t i = p; i < n; ++i) {
          ScoredCursor& sc = (*cursors)[order[i]];
          if (sc.live() && sc.doc() == d) {
            XRANK_RETURN_NOT_OK(sc.SkipTo(target).status());
            ++counters->pivot_advances;
          }
        }
        counters->blocks_pruned += TotalPagesSkipped(*cursors) - skipped_before;
        continue;
      }
    }

    // Evaluate `d`: bring the lagging non-essential cursors up to it, then
    // feed the whole document. Postings they discard on the way belong to
    // documents already merged or provably below threshold.
    for (size_t i = 0; i < p; ++i) {
      ScoredCursor& sc = (*cursors)[order[i]];
      if (sc.live() && sc.doc() < d) {
        XRANK_RETURN_NOT_OK(sc.SkipTo(d).status());
        ++counters->pivot_advances;
      }
    }
    on_doc.clear();
    for (ScoredCursor& sc : *cursors) {
      if (sc.live() && sc.doc() == d) on_doc.push_back(&sc);
    }
    XRANK_RETURN_NOT_OK(FeedDocument(&on_doc, d, merger, deadline));
  }
  return Status::OK();
}

Status WandMerge(std::vector<ScoredCursor>* cursors,
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
  std::vector<ScoredCursor*> on_doc;  // reused across evaluated documents
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
      const uint64_t skipped_before = TotalPagesSkipped(*cursors);
      for (size_t i = 0; i < pivot; ++i) {
        ScoredCursor& sc = (*cursors)[order[i]];
        if (sc.live() && sc.doc() < pivot_doc) {
          XRANK_RETURN_NOT_OK(sc.SkipTo(pivot_doc).status());
          ++counters->pivot_advances;
        }
      }
      counters->blocks_pruned += TotalPagesSkipped(*cursors) - skipped_before;
      Reposition(&order, *cursors, pivot);
      continue;
    }

    // Aligned: every cursor on pivot_doc (there may be more beyond the
    // pivot index) participates in its score; find where they end.
    size_t last_eq = pivot;
    while (last_eq + 1 < n && (*cursors)[order[last_eq + 1]].doc() == pivot_doc) {
      ++last_eq;
    }

    if (std::isfinite(theta)) {
      // Block-max check: replace list-level bounds with the page-run
      // maxima of the aligned cursors. When even those cannot reach
      // theta, no document until the first (widened) run boundary — or the
      // next cursor's document — can, and the aligned pack leaps there.
      double block_bound = 0.0;
      bool valid = true;
      refined.clear();
      for (size_t i = 0; i <= last_eq; ++i) {
        ScoredCursor& sc = (*cursors)[order[i]];
        PostingCursor::RankBound rb = sc.cursor()->DocumentRankBound(pivot_doc);
        if (!rb.valid) {
          valid = false;
          break;
        }
        double u = std::min(sc.score_bound(), rb.bound);
        refined.push_back(RefinedBound{&sc, rb, u});
        block_bound += u;
      }
      if (valid && BelowThreshold(block_bound, theta)) {
        ++counters->docs_skipped;
        XRANK_RETURN_NOT_OK(
            WidenRuns(&refined, &block_bound, theta, deadline));
        uint32_t run_end = kNoDoc;
        for (const RefinedBound& r : refined) {
          run_end = std::min(run_end, r.rb.next_doc);
        }
        const uint32_t next_doc = last_eq + 1 < n
                                      ? (*cursors)[order[last_eq + 1]].doc()
                                      : kNoDoc;
        const uint32_t target = std::min(run_end, next_doc);
        if (target == kNoDoc) {
          ChargeUnreadTails(*cursors, counters);
          break;  // bound holds to the end of all lists
        }
        const uint64_t skipped_before = TotalPagesSkipped(*cursors);
        for (size_t i = 0; i <= last_eq; ++i) {
          ScoredCursor& sc = (*cursors)[order[i]];
          if (sc.live()) {
            XRANK_RETURN_NOT_OK(sc.SkipTo(target).status());
            ++counters->pivot_advances;
          }
        }
        counters->blocks_pruned += TotalPagesSkipped(*cursors) - skipped_before;
        Reposition(&order, *cursors, last_eq + 1);
        continue;
      }
    }

    // The cursors standing on pivot_doc are exactly the aligned prefix.
    on_doc.clear();
    for (size_t i = 0; i <= last_eq; ++i) {
      on_doc.push_back(&(*cursors)[order[i]]);
    }
    XRANK_RETURN_NOT_OK(FeedDocument(&on_doc, pivot_doc, merger, deadline));
    Reposition(&order, *cursors, last_eq + 1);
  }
  return Status::OK();
}

}  // namespace xrank::query

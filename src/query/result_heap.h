#ifndef XRANK_QUERY_RESULT_HEAP_H_
#define XRANK_QUERY_RESULT_HEAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "dewey/dewey_id.h"
#include "query/scoring.h"

namespace xrank::query {

// The order of every ranked list: rank descending, then Dewey id ascending,
// so ties break alike everywhere. TopKAccumulator keeps its entries in it,
// and every gather of disjoint doc-id ranges (core/fan_out.h) sorts by it,
// so a gather ranks exactly as one index over all the ranges would.
inline bool RankOrder(double a_rank, dewey::IdSpan a_id, double b_rank,
                      dewey::IdSpan b_id) {
  if (a_rank != b_rank) return a_rank > b_rank;
  return dewey::IdLess(a_id, b_id);
}

// A monotonically rising top-k threshold shared by cooperating
// accumulators running on different threads — the shard router's θ
// forwarding. Each shard's accumulator publishes its running m-th-best
// rank here and prunes against the maximum of its local θ and this floor,
// so a shard that starts (or progresses) later inherits the bound already
// established elsewhere in the fleet.
//
// Soundness: any cooperating accumulator's m-th-best rank is a lower bound
// on the global m-th-best over the union of their document sets, and every
// pruning test in the merge algorithms is strictly-below-θ (ties are
// kept), so no element that belongs in the global top-m is ever pruned.
class SharedTopKThreshold {
 public:
  // Raises the floor to `theta` if it is higher; returns true when the
  // floor actually rose. Lock-free CAS-max — safe from any thread.
  bool Raise(double theta) {
    double current = theta_.load(std::memory_order_relaxed);
    while (theta > current) {
      if (theta_.compare_exchange_weak(current, theta,
                                       std::memory_order_relaxed)) {
        raises_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  double Get() const { return theta_.load(std::memory_order_relaxed); }

  // Number of successful raises — the θ-forwarding efficacy signal
  // surfaced by the router's counters.
  uint64_t raises() const { return raises_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> theta_{-std::numeric_limits<double>::infinity()};
  std::atomic<uint64_t> raises_{0};
};

// Accumulates query-result candidates and answers the question the
// threshold algorithm asks: "do at least m candidates beat the current
// threshold?" (the TA stopping condition, RDIL lines 26-28), and the
// pruning merges' "what is the m-th best rank?". It keeps only the m best
// (id, rank) pairs, in RankOrder, each id at the highest rank it was added
// with. That is exactly the top m of all candidates: a candidate that does
// not beat the m-th best can never return to the top m, since the m-th
// best only rises, and a later repeat of its id that does beat it enters
// like a new candidate. The kept ids reuse their storage, so an Add
// allocates only while the entries' ids grow.
class TopKAccumulator {
 public:
  explicit TopKAccumulator(size_t m) : m_(m) { entries_.reserve(m); }

  // Joins a shared θ floor (see SharedTopKThreshold): KthRank() returns
  // the maximum of the local m-th-best and the shared floor, and every Add
  // that changes the local m-th-best publishes it. The accumulator itself
  // stays single-threaded; only the shared object is touched atomically.
  // Null (the default) detaches at zero cost.
  void AttachShared(SharedTopKThreshold* shared) { shared_ = shared; }

  // Records a candidate; a repeated id keeps the higher rank (the
  // threshold path can emit an id twice).
  void Add(dewey::IdSpan id, double rank);

  // Number of candidates with rank >= threshold, capped at m.
  size_t CountAtLeast(double threshold) const;

  // Rank of the current m-th best candidate — the block-max pruning
  // threshold θ: a page run whose upper bound is strictly below θ cannot
  // change the top-m. -inf while fewer than m candidates are ranked (no
  // pruning until the heap is full).
  double KthRank() const;

  size_t m() const { return m_; }

  // The top min(m, candidates) results, rank-descending (ties by id so
  // output is deterministic).
  std::vector<RankedResult> TakeTop() const;

 private:
  struct Entry {
    dewey::DeweyId id;
    double rank = 0.0;
  };

  // Local m-th-best rank, ignoring any shared floor (-inf until m ranked).
  double LocalKthRank() const;

  size_t m_;
  SharedTopKThreshold* shared_ = nullptr;
  // At most m entries, best first by RankOrder, ids distinct.
  std::vector<Entry> entries_;
};

}  // namespace xrank::query

#endif  // XRANK_QUERY_RESULT_HEAP_H_

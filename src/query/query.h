#ifndef XRANK_QUERY_QUERY_H_
#define XRANK_QUERY_QUERY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "query/scoring.h"
#include "storage/cost_model.h"

namespace xrank::query {

class QueryTrace;
class SharedTopKThreshold;

// Top-k merge strategy for the Dewey-ordered processors (DIL, and HDIL via
// its DIL delegation). `kAuto` picks per query: the PR-5 conjunctive DAAT
// path for conjunctive semantics, and the cheapest sound pruned algorithm
// (block-max WAND for few terms under max aggregation, MaxScore otherwise)
// for disjunctive semantics. `kExhaustive` is the full n-way merge — the
// safe oracle every pruned algorithm must match result-for-result. The
// pruned algorithms degrade themselves to sound variants (BMW -> MaxScore
// under sum aggregation, anything -> exhaustive when no sound bound
// exists); see DESIGN.md section 13.
enum class MergeAlgorithm : uint8_t {
  kAuto = 0,
  kExhaustive,
  kMaxScore,
  kBlockMaxWand,
};

inline const char* MergeAlgorithmName(MergeAlgorithm algorithm) {
  switch (algorithm) {
    case MergeAlgorithm::kAuto: return "auto";
    case MergeAlgorithm::kExhaustive: return "exhaustive";
    case MergeAlgorithm::kMaxScore: return "maxscore";
    case MergeAlgorithm::kBlockMaxWand: return "bmw";
  }
  return "unknown";
}

// Per-query execution limits, checked cooperatively inside the merge
// loops and posting cursors (see query/deadline.h).
struct QueryOptions {
  // Wall-clock budget in milliseconds; 0 disables the deadline. On expiry
  // Execute returns Status::DeadlineExceeded — unless
  // `allow_partial_results` is set, in which case the top-k accumulated so
  // far is returned with `QueryStats::partial` true. Partial results are
  // a correct ranking of what was scanned, but lower-ranked true results
  // may be missing.
  int64_t deadline_ms = 0;
  bool allow_partial_results = false;
  // Cooperative cancellation: when non-null, the query aborts (with the
  // same partial/DeadlineExceeded semantics as the deadline) as soon as a
  // check observes the flag set. The pointee must outlive the query.
  const std::atomic<bool>* cancel = nullptr;
  // When non-null, the processors record per-stage spans (lexicon lookup,
  // cursor open, merge, rank) and per-term posting/skip counters into this
  // trace (see query/trace.h). Borrowed; must outlive the query. Null (the
  // default) disables tracing at zero hot-path cost.
  QueryTrace* trace = nullptr;
  // Top-k merge strategy (DIL/HDIL). Every choice returns identical results
  // — pruned algorithms are exact, not approximate — so this is purely a
  // performance knob plus the exhaustive oracle for verification.
  MergeAlgorithm algorithm = MergeAlgorithm::kAuto;
  // When non-null, the query's TopKAccumulator publishes its running
  // m-th-best rank into this shared floor and prunes against the maximum
  // of its local θ and the floor (see query/result_heap.h). The range
  // fan-out (core/fan_out.h) hands the same object to every shard or live
  // segment of one query, so later/slower ranges inherit the θ earlier
  // ones have already established. Sound because every pruning test is
  // strictly-below-θ and a cooperating accumulator's m-th-best is a lower
  // bound on the global one — but the local top-k may then omit elements
  // below the fleet θ, so engines bypass their result cache when this is
  // set (a θ-truncated response reflects fleet state, not this index).
  // Borrowed; must outlive the query.
  SharedTopKThreshold* shared_threshold = nullptr;
};

// Execution statistics common to all processors. I/O counts come from the
// cost model attached to the buffer pool the processor runs against.
struct QueryStats {
  uint64_t postings_scanned = 0;   // list entries decoded
  uint64_t pages_skipped = 0;      // list pages jumped via skip blocks
  uint64_t btree_probes = 0;       // RDIL/HDIL index probes
  uint64_t hash_probes = 0;        // Naive-Rank index probes
  uint64_t rounds = 0;             // threshold-algorithm iterations
  uint64_t blocks_pruned = 0;      // list pages skipped via block-max bounds
  uint64_t docs_skipped = 0;       // prune decisions that bypassed documents
  uint64_t pivot_advances = 0;     // cursor advances driven by bound logic
  uint64_t block_cache_hits = 0;   // pages served from the decoded cache
  uint64_t sequential_reads = 0;
  uint64_t random_reads = 0;
  double io_cost = 0.0;            // weighted cost-model units
  double wall_ms = 0.0;
  // Merge strategy actually run ("daat", "exhaustive", "maxscore", "bmw");
  // empty for processors without a strategy choice.
  std::string algorithm;
  bool switched_to_dil = false;    // HDIL adaptivity outcome
  bool threshold_terminated = false;  // TA stopped before exhausting lists
  bool result_cache_hit = false;   // served from the engine's top-k cache
  bool partial = false;            // deadline/cancel cut the scan short
};

struct QueryResponse {
  std::vector<RankedResult> results;  // rank-descending, at most m
  QueryStats stats;
};

// Adds one scan's execution counters into a merged per-query stats block —
// used by the range fan-out (core/fan_out.h) to fold each live segment's or
// shard's scan into one coherent block. Counters sum; `partial` ORs (one
// budget-cut scan makes the whole response partial); the label and
// cache/switch flags are the caller's to set.
inline void MergeQueryStats(QueryStats* into, const QueryStats& from) {
  into->postings_scanned += from.postings_scanned;
  into->pages_skipped += from.pages_skipped;
  into->btree_probes += from.btree_probes;
  into->hash_probes += from.hash_probes;
  into->rounds += from.rounds;
  into->blocks_pruned += from.blocks_pruned;
  into->docs_skipped += from.docs_skipped;
  into->pivot_advances += from.pivot_advances;
  into->block_cache_hits += from.block_cache_hits;
  into->sequential_reads += from.sequential_reads;
  into->random_reads += from.random_reads;
  into->io_cost += from.io_cost;
  into->partial = into->partial || from.partial;
}

// A cost model's read counters at one instant. Every processor snapshots
// its pool's model as a query starts and FillIoStats reports the
// difference as it ends; a null model (a pool without accounting) reports
// nothing.
struct CostSnapshot {
  uint64_t sequential = 0;
  uint64_t random = 0;
  double cost = 0.0;
};

inline CostSnapshot TakeSnapshot(const storage::CostModel* model) {
  CostSnapshot snap;
  if (model != nullptr) {
    snap.sequential = model->sequential_reads();
    snap.random = model->random_reads();
    snap.cost = model->TotalCost();
  }
  return snap;
}

inline void FillIoStats(const storage::CostModel* model,
                        const CostSnapshot& before, QueryStats* stats) {
  if (model == nullptr) return;
  stats->sequential_reads = model->sequential_reads() - before.sequential;
  stats->random_reads = model->random_reads() - before.random;
  stats->io_cost = model->TotalCost() - before.cost;
}

}  // namespace xrank::query

#endif  // XRANK_QUERY_QUERY_H_

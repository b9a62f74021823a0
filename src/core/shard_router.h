#ifndef XRANK_CORE_SHARD_ROUTER_H_
#define XRANK_CORE_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "index/analyzer.h"
#include "query/query.h"
#include "xml/node.h"

namespace xrank::core {

// --- sharding root manifest ("SHARDING" file) -------------------------------
//
// A sharded index root holds one subdirectory per shard, each an ordinary
// committed engine directory with its own MANIFEST, plus a root SHARDING
// file recording the document partition:
//
//   <root>/SHARDING
//   <root>/shard-0000/MANIFEST, DIL.xrank, ...
//   <root>/shard-0001/...
//
// The SHARDING file is committed with the same durability protocol as a
// MANIFEST (tmp write + fsync + rename + directory fsync — see
// index/manifest.h), and shard directories commit independently through
// their own MANIFESTs, so each shard's index swap stays atomic and a crash
// mid-build leaves either no SHARDING file or a fully described root.

constexpr char kShardingFileName[] = "SHARDING";

struct ShardDescriptor {
  std::string dir;         // subdirectory name within the root
  uint32_t doc_base = 0;   // first global document id in this shard
  uint32_t doc_count = 0;  // contiguous ids [doc_base, doc_base + doc_count)
};

struct ShardingManifest {
  std::vector<ShardDescriptor> shards;  // doc_base order, contiguous cover
};

// "shard-0000", "shard-0001", ...
std::string ShardDirName(size_t shard_index);

// Text round-trip ("xrank-sharding v1" header, one "shard ..." line per
// shard, "commit <crc>" trailer covering all preceding bytes).
std::string SerializeShardingManifest(const ShardingManifest& manifest);
Result<ShardingManifest> ParseShardingManifest(std::string_view text);

// Durable write / validated read of `<root>/SHARDING`. Read refuses a
// missing file (NotFound), a torn or CRC-mismatched file (Corruption), and
// a partition that is not a contiguous cover starting at document 0.
Status WriteShardingFile(const std::string& root_dir,
                         const ShardingManifest& manifest);
Result<ShardingManifest> ReadShardingFile(const std::string& root_dir);

// Whether `root_dir` holds a SHARDING file (i.e. is a sharded root rather
// than a single-engine index directory).
bool IsShardedRoot(const std::string& root_dir);

// --- router -----------------------------------------------------------------

struct ShardRouterOptions {
  // Number of shards to partition the corpus into at Build time (ignored
  // by Open, which follows the committed SHARDING file). Must be in
  // [1, document count]: documents split into contiguous equal-size global
  // doc-id ranges, so shard i serves documents [i*N/S, (i+1)*N/S).
  size_t num_shards = 2;

  // Per-shard engine configuration. `engine.disk_dir` is ignored — set
  // `root_dir` instead; each shard gets `<root_dir>/shard-NNNN`.
  // `engine.precomputed_elem_ranks` is overwritten per shard with that
  // shard's slice of the global ElemRank vector, and
  // `engine.graph.ignore_dangling_links` is forced on (a hyperlink across
  // a shard boundary dangles inside the shard's local graph; the global
  // ElemRank computation has already accounted for it).
  EngineOptions engine;

  // Non-empty: disk-backed shards under this root, committed via per-shard
  // MANIFESTs plus the root SHARDING file. Empty: in-memory shards.
  std::string root_dir;

  // Scatter worker threads (0 = one per shard, capped by the shard
  // count). Concurrent router queries serialize their scatters — the
  // shared ThreadPool runs one ParallelFor at a time — so per-query latency
  // uses the full pool while throughput comes from pipelining. 1 runs the
  // shards in shard order on the calling thread, so the θ each shard sees
  // depends only on earlier shards.
  size_t scatter_threads = 0;
};

// Fans queries out over N document-sharded XRankEngines and gathers their
// top-k into one response with fleet-coherent stats.
//
// Partitioning invariant: shard i owns the contiguous global document-id
// range [doc_base, doc_base + doc_count); Dewey ids rebase between the
// shard-local and global spaces by adding/subtracting doc_base to the
// first component (RebaseUp in core/fan_out.h, as for the engine's live
// segments).
// ElemRank is computed ONCE over the global graph and sliced per shard
// (see EngineOptions::precomputed_elem_ranks), so every shard scores
// exactly as the monolithic engine would and the gathered top-k is
// bitwise-identical to it — same ids, same ranks, same tie-breaks.
//
// Thread safety: Query/QueryKeywords may run from any number of threads
// concurrently (scatters serialize on an internal mutex; see
// ShardRouterOptions::scatter_threads). Live updates go through the tail
// shard and are serialized by that engine.
class ShardRouter {
 public:
  // Partitions `documents` (consumed), computes global ElemRank, builds
  // every shard (disk-backed shards commit their own MANIFEST), and — when
  // disk-backed — commits the root SHARDING file last, so a crash anywhere
  // earlier leaves no committed root.
  static Result<std::unique_ptr<ShardRouter>> Build(
      std::vector<xml::Document> documents, const ShardRouterOptions& options);

  // Re-opens a committed sharded root: reads and validates SHARDING,
  // re-derives the global graph and ElemRank from `documents` (the same
  // corpus, in the same order, as the Build), and opens each shard
  // directory — every shard validates its own MANIFEST and re-checksums
  // its files.
  static Result<std::unique_ptr<ShardRouter>> Open(
      std::vector<xml::Document> documents, const ShardRouterOptions& options);

  // Scatter-gather top-m through one RangeFanOut (core/fan_out.h).
  // Semantics match XRankEngine::Query (the forms without `query_options`
  // use options.engine.query), plus:
  //   - θ: every shard shares one running k-th-rank floor, so MaxScore/BMW
  //     pruning in later shards starts from the bound earlier shards
  //     established. Shards therefore bypass their result caches.
  //   - deadline: the remaining budget is re-computed as each shard
  //     starts; with allow_partial_results a shard that misses (or never
  //     starts within) the budget contributes what it scanned and the
  //     response is marked partial, otherwise DeadlineExceeded.
  //   - stats: per-shard QueryStats are merged into one coherent block
  //     (counters sum, `partial` ORs, distinct algorithm labels join with
  //     '+').
  //   - trace: per-shard spans splice into the caller's trace as
  //     "shard[i]" subtrees. Query(text) parses once, in the router.
  // `per_shard_stats` (when non-null) receives each shard's own stats
  // block, in shard order (zeroed entries for shards that never ran).
  Result<EngineResponse> Query(std::string_view query_text, size_t m,
                               index::IndexKind kind);
  Result<EngineResponse> Query(std::string_view query_text, size_t m,
                               index::IndexKind kind,
                               const query::QueryOptions& query_options,
                               std::vector<query::QueryStats>* per_shard_stats =
                                   nullptr);
  Result<EngineResponse> QueryKeywords(const std::vector<std::string>& keywords,
                                       size_t m, index::IndexKind kind);
  Result<EngineResponse> QueryKeywords(
      const std::vector<std::string>& keywords, size_t m, index::IndexKind kind,
      const query::QueryOptions& query_options,
      std::vector<query::QueryStats>* per_shard_stats = nullptr);

  // Live ingest routes to the tail shard — the only shard whose global ids
  // may grow without colliding with a later shard's base range, keeping
  // the contiguous-partition invariant. A URI a live document of another
  // shard holds is refused. Deletes resolve the URI against every shard
  // (NotFound when none holds it).
  Status AddDocument(std::string_view uri, std::string_view xml_text);
  Status DeleteDocument(std::string_view uri);
  Status WaitForMaintenance();

  size_t shard_count() const { return shards_.size(); }
  const ShardDescriptor& shard(size_t i) const { return manifest_.shards[i]; }
  XRankEngine& shard_engine(size_t i) { return *shards_[i].engine; }

  // Fleet-wide serving counters: the sum of every shard's.
  XRankEngine::ServingCounters serving_counters(index::IndexKind kind) const;

  // Router-level observability: the router's own counts, each linked to
  // its router.* registry series.
  struct RouterCounters {
    uint64_t queries = 0;
    uint64_t shard_queries = 0;      // per-shard fan-out calls issued
    uint64_t errors = 0;             // queries that returned non-OK
    uint64_t partial_results = 0;    // responses served with stats.partial
    uint64_t deadline_exceeded = 0;  // queries returning DeadlineExceeded
    uint64_t shards_skipped = 0;     // shards never started (budget spent)
    uint64_t theta_raises = 0;       // shared-θ floor raises across queries
  };
  RouterCounters router_counters() const;

 private:
  struct Shard {
    std::unique_ptr<XRankEngine> engine;
  };

  ShardRouter() = default;

  // Build/Open shared tail: global graph + ElemRank over `documents`,
  // per-shard node-range slicing, then per-shard engine construction via
  // `open_existing` (Open) or fresh builds (Build).
  static Result<std::unique_ptr<ShardRouter>> Assemble(
      std::vector<xml::Document> documents, const ShardRouterOptions& options,
      ShardingManifest manifest, bool open_existing);

  ShardRouterOptions options_;
  // Tokenizes Query(text) once for every shard, as each shard's engine
  // would (options.engine.extraction.analyzer).
  index::Analyzer analyzer_;
  ShardingManifest manifest_;
  std::vector<Shard> shards_;
  std::unique_ptr<ThreadPool> pool_;
  // The pool runs one ParallelFor at a time; concurrent router queries
  // take turns scattering.
  std::mutex scatter_mutex_;

  metrics::Counter queries_{"router.queries"};
  metrics::Counter shard_queries_{"router.shard_queries"};
  metrics::Counter errors_{"router.errors"};
  metrics::Counter partial_results_{"router.partial"};
  metrics::Counter deadline_exceeded_{"router.deadline_exceeded"};
  metrics::Counter shards_skipped_{"router.shards_skipped"};
  metrics::Counter theta_raises_{"router.theta_raises"};
  // Registry-only series.
  metrics::Histogram* const query_us_ =
      metrics::Registry::Instance().GetHistogram("router.query_us");
};

}  // namespace xrank::core

#endif  // XRANK_CORE_SHARD_ROUTER_H_

#ifndef XRANK_CORE_RESULT_CACHE_H_
#define XRANK_CORE_RESULT_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "core/engine.h"

namespace xrank::core {

// Engine-level top-k result cache: an LRU over (normalized query terms, k,
// index kind) -> fully decorated results, sharded by key hash like the
// buffer pool so concurrent lookups of different queries never contend.
//
// Consistency: keys embed the engine's content_seq (see MakeKey), so a
// writer that changes what queries may return (AddDocument/DeleteDocument)
// invalidates every prior entry by construction — stale keys simply stop
// being looked up and age out of the LRU. Segment flushes and compactions,
// which regroup identical content, leave the keys (and therefore every
// cached hit) intact. Clear() remains for wholesale eviction (DropCaches,
// cold-cache benchmarking).
class ResultCache {
 public:
  // `capacity_entries` > 0; `num_shards` == 0 picks an automatic stripe
  // count from the capacity.
  explicit ResultCache(size_t capacity_entries, size_t num_shards = 0);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // Canonical cache key. Keyword order is preserved (a permuted query is a
  // legal separate entry — same results, fewer hits, never wrong).
  // `content_seq` is the engine's logical-content version: it advances on
  // every AddDocument/DeleteDocument but NOT on flush or compaction, so
  // entries go stale exactly when the answer could change — a flush that
  // only regroups identical content keeps every hit warm.
  static std::string MakeKey(const std::vector<std::string>& terms, size_t m,
                             index::IndexKind kind, uint64_t content_seq);

  // On hit, copies the cached response into *out, promotes the entry to
  // most-recently-used, and returns true.
  bool Lookup(const std::string& key, EngineResponse* out);

  // Inserts (or refreshes) the entry, evicting the least-recently-used
  // entry of its shard when the shard is full.
  void Insert(const std::string& key, const EngineResponse& response);

  // Drops every entry (writer-side wholesale invalidation).
  void Clear();

  uint64_t hits() const { return hits_.value(); }
  uint64_t lookups() const { return lookups_.value(); }
  size_t shard_count() const { return shards_.size(); }
  size_t cached_entries() const;

 private:
  struct Shard {
    std::mutex mutex;
    // Front = most recently used.
    std::list<std::pair<std::string, EngineResponse>> lru;
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, EngineResponse>>::
                           iterator>
        index;
  };

  Shard& ShardFor(const std::string& key);

  size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Per-cache counts, linked to the result_cache.* registry series.
  metrics::Counter hits_{"result_cache.hits"};
  metrics::Counter lookups_{"result_cache.lookups"};
  // Registry-only series.
  metrics::Counter* const insertions_;
};

}  // namespace xrank::core

#endif  // XRANK_CORE_RESULT_CACHE_H_

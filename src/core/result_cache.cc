#include "core/result_cache.h"

#include <algorithm>
#include <functional>

#include "common/check.h"

namespace xrank::core {

namespace {

constexpr size_t kMinEntriesPerShard = 32;
constexpr size_t kMaxShards = 8;

size_t ResolveShardCount(size_t capacity_entries, size_t num_shards) {
  if (num_shards > 0) return std::min(num_shards, capacity_entries);
  size_t auto_shards = capacity_entries / kMinEntriesPerShard;
  return std::clamp<size_t>(auto_shards, 1, kMaxShards);
}

}  // namespace

ResultCache::ResultCache(size_t capacity_entries, size_t num_shards)
    : insertions_(metrics::Registry::Instance().GetCounter(
          "result_cache.insertions")) {
  XRANK_CHECK(capacity_entries > 0, "ResultCache capacity must be positive");
  size_t shards = ResolveShardCount(capacity_entries, num_shards);
  shard_capacity_ = (capacity_entries + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::string ResultCache::MakeKey(const std::vector<std::string>& terms,
                                 size_t m, index::IndexKind kind,
                                 uint64_t content_seq) {
  std::string key;
  key += std::to_string(content_seq);
  key += '\x1f';
  key += std::to_string(static_cast<int>(kind));
  key += '\x1f';
  key += std::to_string(m);
  for (const std::string& term : terms) {
    key += '\x1f';
    key += term;
  }
  return key;
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

bool ResultCache::Lookup(const std::string& key, EngineResponse* out) {
  lookups_.Increment();
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *out = it->second->second;
  hits_.Increment();
  return true;
}

void ResultCache::Insert(const std::string& key,
                         const EngineResponse& response) {
  insertions_->Increment();
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = response;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
  }
  shard.lru.emplace_front(key, response);
  shard.index.emplace(key, shard.lru.begin());
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
}

size_t ResultCache::cached_entries() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->index.size();
  }
  return total;
}

}  // namespace xrank::core

#include "index/block_cache.h"

#include <algorithm>

namespace xrank::index {

namespace {

constexpr size_t kMinBytesPerShard = 64 * 1024;
constexpr size_t kMaxShards = 8;

size_t ResolveShardCount(size_t capacity_bytes, size_t num_shards) {
  if (capacity_bytes == 0) return 1;
  if (num_shards > 0) return num_shards;
  size_t auto_shards = capacity_bytes / kMinBytesPerShard;
  return std::clamp<size_t>(auto_shards, 1, kMaxShards);
}

}  // namespace

BlockCache::BlockCache(size_t capacity_bytes, size_t num_shards)
    : bytes_(metrics::Registry::Instance().GetGauge("block_cache.bytes")),
      segment_invalidations_(metrics::Registry::Instance().GetCounter(
          "cache.segment_invalidations")) {
  size_t shards = ResolveShardCount(capacity_bytes, num_shards);
  shard_capacity_bytes_ = capacity_bytes / shards;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t BlockCache::BlockCharge(const Block& block) {
  return sizeof(Block) + block.ArrayBytes();
}

BlockCache::Shard& BlockCache::ShardFor(const Key& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

BlockCache::BlockPtr BlockCache::Lookup(const Key& key) {
  if (shard_capacity_bytes_ == 0) {
    misses_.Increment();
    return nullptr;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.Increment();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.Increment();
  return it->second->block;
}

void BlockCache::Insert(const Key& key, BlockPtr block) {
  if (shard_capacity_bytes_ == 0 || block == nullptr) return;
  size_t charge = BlockCharge(*block);
  if (charge > shard_capacity_bytes_) return;
  Shard& shard = ShardFor(key);
  int64_t bytes_delta = 0;
  uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh: same immutable file bytes decode to the same block, but
      // replace anyway so a re-inserted block's charge stays accurate.
      bytes_delta -= static_cast<int64_t>(it->second->charge);
      it->second->block = std::move(block);
      it->second->charge = charge;
      bytes_delta += static_cast<int64_t>(charge);
      shard.charged_bytes =
          static_cast<size_t>(static_cast<int64_t>(shard.charged_bytes) +
                              bytes_delta);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      while (!shard.lru.empty() &&
             shard.charged_bytes + charge > shard_capacity_bytes_) {
        const Entry& victim = shard.lru.back();
        shard.charged_bytes -= victim.charge;
        bytes_delta -= static_cast<int64_t>(victim.charge);
        shard.index.erase(victim.key);
        shard.lru.pop_back();
        ++evicted;
      }
      shard.lru.push_front(Entry{key, std::move(block), charge});
      shard.index.emplace(key, shard.lru.begin());
      shard.charged_bytes += charge;
      bytes_delta += static_cast<int64_t>(charge);
    }
  }
  insertions_.Increment();
  if (evicted > 0) evictions_.Increment(evicted);
  bytes_->Add(bytes_delta);
}

void BlockCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    bytes_->Add(-static_cast<int64_t>(shard->charged_bytes));
    shard->charged_bytes = 0;
    shard->lru.clear();
    shard->index.clear();
  }
}

size_t BlockCache::EraseFile(uint64_t file_id) {
  size_t erased = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->key.file_id != file_id) {
        ++it;
        continue;
      }
      shard->charged_bytes -= it->charge;
      bytes_->Add(-static_cast<int64_t>(it->charge));
      shard->index.erase(it->key);
      it = shard->lru.erase(it);
      ++erased;
    }
  }
  if (erased > 0) segment_invalidations_->Increment(erased);
  return erased;
}

size_t BlockCache::cached_blocks() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->index.size();
  }
  return total;
}

size_t BlockCache::charged_bytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->charged_bytes;
  }
  return total;
}

}  // namespace xrank::index

#include "storage/buffer_pool.h"

#include <algorithm>

#include "common/check.h"

namespace xrank::storage {

namespace {

// Pools below this capacity stay single-sharded: striping a tiny pool would
// fragment its capacity, and the deterministic single-stream eviction order
// is what the cost-model experiments (and their tests) rely on.
constexpr size_t kMinPagesPerShard = 128;
constexpr size_t kMaxShards = 16;

size_t ResolveShardCount(size_t capacity_pages, size_t num_shards) {
  if (num_shards > 0) return std::min(num_shards, capacity_pages);
  size_t auto_shards = capacity_pages / kMinPagesPerShard;
  return std::clamp<size_t>(auto_shards, 1, kMaxShards);
}

}  // namespace

BufferPool::BufferPool(PageFile* file, size_t capacity_pages,
                       CostModel* cost_model, size_t num_shards)
    : file_(file),
      capacity_(capacity_pages),
      cost_model_(cost_model) {
  XRANK_CHECK(file != nullptr, "BufferPool needs a file");
  XRANK_CHECK(capacity_pages > 0, "BufferPool capacity must be positive");
  size_t shards = ResolveShardCount(capacity_pages, num_shards);
  shard_capacity_ = (capacity_pages + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t BufferPool::ClaimFrame(Shard* shard) {
  if (shard->frames.size() < shard_capacity_) {
    shard->frames.emplace_back();
    return shard->frames.size() - 1;
  }
  // CLOCK sweep: clear reference bits until an unreferenced victim shows
  // up. Terminates within two laps (a full lap clears every bit).
  for (;;) {
    Frame& frame = shard->frames[shard->hand];
    size_t slot = shard->hand;
    shard->hand = (shard->hand + 1) % shard->frames.size();
    if (frame.referenced) {
      frame.referenced = false;
      continue;
    }
    shard->index.erase(frame.page);
    return slot;
  }
}

Status BufferPool::Read(PageId page, Page* out) {
  Shard& shard = ShardFor(page);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(page);
  if (it != shard.index.end()) {
    hits_.Increment();
    Frame& frame = shard.frames[it->second];
    frame.referenced = true;
    *out = frame.data;
    return Status::OK();
  }
  misses_.Increment();
  if (cost_model_ != nullptr) cost_model_->RecordRead(page);
  XRANK_RETURN_NOT_OK(file_->Read(page, out));
  size_t slot = ClaimFrame(&shard);
  Frame& frame = shard.frames[slot];
  frame.page = page;
  frame.referenced = false;  // second chance starts on the first re-use
  frame.data = *out;
  shard.index[page] = slot;
  return Status::OK();
}

Status BufferPool::Write(PageId page, const Page& page_data) {
  XRANK_RETURN_NOT_OK(file_->Write(page, page_data));
  Shard& shard = ShardFor(page);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(page);
  if (it != shard.index.end()) {
    Frame& frame = shard.frames[it->second];
    frame.referenced = true;
    frame.data = page_data;
    return Status::OK();
  }
  size_t slot = ClaimFrame(&shard);
  Frame& frame = shard.frames[slot];
  frame.page = page;
  frame.referenced = false;
  frame.data = page_data;
  shard.index[page] = slot;
  return Status::OK();
}

void BufferPool::DropCache() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->frames.clear();
    shard->index.clear();
    shard->hand = 0;
  }
}

size_t BufferPool::cached_pages() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->index.size();
  }
  return total;
}

}  // namespace xrank::storage

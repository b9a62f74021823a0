#ifndef XRANK_STORAGE_BUFFER_POOL_H_
#define XRANK_STORAGE_BUFFER_POOL_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "storage/cost_model.h"
#include "storage/page_file.h"

namespace xrank::storage {

// Sharded page cache in front of a PageFile. Pages are striped across N
// shards by PageId; each shard holds its own mutex, frame table and CLOCK
// (second-chance) hand, so concurrent readers of pages in distinct shards
// never contend. Cache misses are charged to the CostModel; DropCache()
// simulates the paper's cold-OS-cache experimental setup ("results were
// obtained using a cold operating system cache", Section 5.1).
//
// Thread safety: Read/Write/DropCache and every accessor may be called from
// any number of threads concurrently. hits()/misses()/cached_pages() are
// monotonic snapshots (exact when no concurrent mutator is running).
class BufferPool {
 public:
  // `file` and `cost_model` are borrowed and must outlive the pool;
  // cost_model may be null (no accounting). `num_shards` == 0 picks an
  // automatic stripe count from the capacity (small pools — the unit-test
  // and cost-experiment regime — stay single-sharded and exactly preserve
  // sequential eviction behaviour).
  BufferPool(PageFile* file, size_t capacity_pages, CostModel* cost_model,
             size_t num_shards = 0);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Copies the page into *out (through the cache).
  Status Read(PageId page, Page* out);

  // Writes through the cache to the file.
  Status Write(PageId page, const Page& page_data);

  // Evicts everything — the next read of any page is a physical read.
  void DropCache();

  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  size_t cached_pages() const;
  size_t shard_count() const { return shards_.size(); }
  size_t capacity_pages() const { return capacity_; }
  PageFile* file() const { return file_; }
  CostModel* cost_model() const { return cost_model_; }

 private:
  // One CLOCK frame. Frames are allocated lazily up to the shard capacity;
  // eviction only starts once the shard is full.
  struct Frame {
    PageId page = kInvalidPage;
    bool referenced = false;
    Page data;
  };

  struct Shard {
    std::mutex mutex;
    std::vector<Frame> frames;                  // size <= capacity
    std::unordered_map<PageId, size_t> index;   // page -> frame slot
    size_t hand = 0;                            // CLOCK sweep position
  };

  Shard& ShardFor(PageId page) { return *shards_[page % shards_.size()]; }
  // Returns the frame slot `page` should occupy, evicting via CLOCK if the
  // shard is full. Caller holds the shard mutex.
  size_t ClaimFrame(Shard* shard);

  PageFile* file_;
  size_t capacity_;
  size_t shard_capacity_;
  CostModel* cost_model_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // The per-pool view that ServingCounters attributes to one index, linked
  // to the process-wide pool.* series.
  metrics::Counter hits_{"pool.hits"};
  metrics::Counter misses_{"pool.misses"};
};

}  // namespace xrank::storage

#endif  // XRANK_STORAGE_BUFFER_POOL_H_

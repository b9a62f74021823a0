#ifndef XRANK_STORAGE_COST_MODEL_H_
#define XRANK_STORAGE_COST_MODEL_H_

#include <cstdint>
#include <mutex>

#include "common/metrics.h"
#include "storage/page.h"

namespace xrank::storage {

// Deterministic, hardware-independent I/O accounting. The paper's query
// performance experiments (Figures 10 and 11) are dominated by the disk
// behaviour of a cold OS cache on a 2003-era disk: sequential inverted-list
// scans are cheap per page, random B+-tree / hash probes pay a seek. We
// reproduce that regime with weighted page-read counts; the weights default
// to a 50:1 seek-to-scan ratio.
struct CostModelOptions {
  double sequential_read_cost = 1.0;
  double random_read_cost = 50.0;
};

// Thread safety: a single CostModel is shared by every shard of a
// BufferPool and hence by every concurrent query. The counters are atomic
// (readable without a lock); the scan-stream table is guarded by a mutex.
// Under concurrency the sequential/random split becomes best-effort (two
// interleaved scans may break each other's streams), but the total read
// count stays exact — single-threaded runs reproduce the original model
// bit-for-bit.
class CostModel {
 public:
  explicit CostModel(CostModelOptions options = {}) : options_(options) {}

  // Records a physical page read. A read is sequential if it extends one of
  // the recently active scan streams (page == stream tail + 1); this models
  // OS read-ahead, under which several concurrently merged list scans are
  // each sequential. Anything else is a seek.
  void RecordRead(PageId page) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < stream_count_; ++i) {
      if (page == streams_[i] + 1) {
        sequential_reads_.Increment();
        streams_[i] = page;
        MoveToFront(i);
        return;
      }
    }
    random_reads_.Increment();
    // Start (or replace the coldest) stream at this position.
    if (stream_count_ < kMaxStreams) ++stream_count_;
    for (size_t i = stream_count_; i-- > 1;) streams_[i] = streams_[i - 1];
    streams_[0] = page;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    sequential_reads_.Reset();
    random_reads_.Reset();
    stream_count_ = 0;
  }

  // Forgets the scan-stream state without touching the counters. Called at
  // a cold-cache query boundary (together with BufferPool::DropCache) so a
  // query's first list read is charged as a seek, exactly as it would be
  // against a freshly constructed model — while the monotonic counters keep
  // supporting concurrent before/after snapshots.
  void ResetStreams() {
    std::lock_guard<std::mutex> lock(mutex_);
    stream_count_ = 0;
  }

  uint64_t sequential_reads() const { return sequential_reads_.value(); }
  uint64_t random_reads() const { return random_reads_.value(); }
  uint64_t total_reads() const { return sequential_reads() + random_reads(); }

  // Weighted cost in abstract units (sequential page reads).
  double TotalCost() const {
    return static_cast<double>(sequential_reads()) *
               options_.sequential_read_cost +
           static_cast<double>(random_reads()) * options_.random_read_cost;
  }

  const CostModelOptions& options() const { return options_; }

 private:
  // Number of concurrently tracked scan streams (typical OS read-ahead
  // contexts per file are in this range).
  static constexpr size_t kMaxStreams = 8;

  void MoveToFront(size_t i) {
    PageId tail = streams_[i];
    for (size_t j = i; j > 0; --j) streams_[j] = streams_[j - 1];
    streams_[0] = tail;
  }

  CostModelOptions options_;
  std::mutex mutex_;
  // Per-model counts (which benches diff per query), linked to the io.*
  // registry series. Reset() clears only the per-model view; the registry
  // series are monotonic for the process lifetime.
  metrics::Counter sequential_reads_{"io.sequential_reads"};
  metrics::Counter random_reads_{"io.random_reads"};
  PageId streams_[kMaxStreams] = {};
  size_t stream_count_ = 0;
};

}  // namespace xrank::storage

#endif  // XRANK_STORAGE_COST_MODEL_H_

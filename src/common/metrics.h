#ifndef XRANK_COMMON_METRICS_H_
#define XRANK_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace xrank::metrics {

// Process-wide observability primitives. Every component that wants a
// counter/gauge/histogram asks the Registry for one by name (slow path,
// mutex-guarded, typically once per component construction) and then
// mutates it lock-free through the returned pointer (hot path: one relaxed
// atomic op). Metric objects live for the process lifetime — pointers
// handed out by the Registry never dangle.
//
// The registry is the single aggregation point for what used to be ad-hoc
// counters (QueryStats, CostModel read counts, engine serving counters):
// those APIs stay per-instance for attribution. Instance counters are
// linked to their registry series and QueryStats is folded in per query,
// so one Snapshot() shows the whole process.

// Monotonic counter. A counter constructed with a series name is one
// instance's own count, linked to the registry series of that name: each
// Increment counts into both, so one call records the event for the
// per-instance view and the process-wide one. value() and Reset() see only
// this counter.
class Counter {
 public:
  Counter() = default;
  // Links to the registry series `series`, creating it on first use.
  explicit Counter(std::string_view series);

  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
    if (series_ != nullptr) series_->Increment(n);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
  Counter* const series_ = nullptr;
};

// Instantaneous value (may go down).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<uint64_t> bucket_counts;  // size == Histogram::kNumBuckets
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// Fixed-bucket histogram for latency-like values (canonically microseconds).
// Buckets are powers of two: bucket i holds values in (2^(i-1), 2^i] (bucket
// 0 holds [0, 1]), with a final overflow bucket for everything above the
// largest finite bound (~67 s in microseconds). Observations are a single
// relaxed fetch_add per bucket plus the sum/count updates; percentiles are
// computed on demand from a snapshot by linear interpolation inside the
// straddling bucket.
class Histogram {
 public:
  static constexpr size_t kNumFiniteBuckets = 27;  // bounds 2^0 .. 2^26
  static constexpr size_t kNumBuckets = kNumFiniteBuckets + 1;  // + overflow

  // Upper bound of finite bucket i (inclusive): 1 << i.
  static uint64_t BucketBound(size_t i) { return uint64_t{1} << i; }

  void Observe(uint64_t value) {
    buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  // Percentile p in [0, 100] over everything observed so far. 0 when empty.
  double Percentile(double p) const {
    return PercentileFromCounts(SnapshotCounts(), p);
  }

  HistogramSnapshot TakeSnapshot() const;

  void Reset() {
    for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

  // Percentile math over a raw bucket-count vector (exposed so tests can
  // probe bucket-edge behaviour without racing a live histogram).
  static double PercentileFromCounts(const std::vector<uint64_t>& counts,
                                     double p);

 private:
  static size_t BucketFor(uint64_t value) {
    for (size_t i = 0; i < kNumFiniteBuckets; ++i) {
      if (value <= BucketBound(i)) return i;
    }
    return kNumFiniteBuckets;  // overflow
  }

  std::vector<uint64_t> SnapshotCounts() const;

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

struct RegistrySnapshot {
  // All sorted by name (std::map iteration order).
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  // Convenience lookups for tests and benches; 0 / empty when absent.
  uint64_t counter(std::string_view name) const;
  const HistogramSnapshot* histogram(std::string_view name) const;
};

class Registry {
 public:
  // The process-wide instance. Constructed on first use, never destroyed
  // (metric pointers must stay valid through static teardown).
  static Registry& Instance();

  // Finds or creates the named metric. The returned pointer is stable for
  // the registry's lifetime. Asking for the same name with two different
  // types is a programming error and aborts.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // Consistent-enough copy of every metric (each value is individually
  // atomic; the set of names is captured under the registration mutex).
  RegistrySnapshot Snapshot() const;

  // Zeroes every metric (names and pointers survive). Test/bench use only —
  // concurrent readers may observe partially reset values.
  void ResetForTest();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Human-readable table of a snapshot (counters, gauges, then histograms
// with count/mean/p50/p95/p99).
std::string RenderTable(const RegistrySnapshot& snapshot);

// Strict-JSON rendering:
//   {"counters": {...}, "gauges": {...},
//    "histograms": {"name": {"count":..,"sum":..,"p50":..,"p95":..,"p99":..}}}
std::string RenderJson(const RegistrySnapshot& snapshot);

}  // namespace xrank::metrics

#endif  // XRANK_COMMON_METRICS_H_

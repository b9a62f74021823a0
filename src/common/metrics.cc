#include "common/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "common/check.h"

namespace xrank::metrics {

Counter::Counter(std::string_view series)
    : series_(Registry::Instance().GetCounter(series)) {}

std::vector<uint64_t> Histogram::SnapshotCounts() const {
  std::vector<uint64_t> counts(kNumBuckets);
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::PercentileFromCounts(const std::vector<uint64_t>& counts,
                                       double p) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target observation, 1-based; p=0 maps to the first.
  double target = std::max(1.0, p / 100.0 * static_cast<double>(total));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    double lower =
        i == 0 ? 0.0 : static_cast<double>(BucketBound(i - 1));
    double upper = i < kNumFiniteBuckets
                       ? static_cast<double>(BucketBound(i))
                       : static_cast<double>(BucketBound(kNumFiniteBuckets - 1));
    if (cumulative + counts[i] >= target) {
      if (i >= kNumFiniteBuckets) return upper;  // overflow: clamp
      double within = target - static_cast<double>(cumulative);
      double fraction = within / static_cast<double>(counts[i]);
      return lower + fraction * (upper - lower);
    }
    cumulative += counts[i];
  }
  // p == 100 with rounding: the last non-empty bucket's upper bound.
  for (size_t i = counts.size(); i-- > 0;) {
    if (counts[i] == 0) continue;
    return i < kNumFiniteBuckets
               ? static_cast<double>(BucketBound(i))
               : static_cast<double>(BucketBound(kNumFiniteBuckets - 1));
  }
  return 0.0;
}

HistogramSnapshot Histogram::TakeSnapshot() const {
  HistogramSnapshot snap;
  snap.bucket_counts = SnapshotCounts();
  snap.sum = sum();
  snap.count = 0;
  for (uint64_t c : snap.bucket_counts) snap.count += c;
  snap.p50 = PercentileFromCounts(snap.bucket_counts, 50.0);
  snap.p95 = PercentileFromCounts(snap.bucket_counts, 95.0);
  snap.p99 = PercentileFromCounts(snap.bucket_counts, 99.0);
  return snap;
}

uint64_t RegistrySnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramSnapshot* RegistrySnapshot::histogram(
    std::string_view name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return &v;
  }
  return nullptr;
}

Registry& Registry::Instance() {
  // Leaked on purpose: components cache metric pointers and may use them
  // from static destructors.
  static Registry* instance = new Registry();
  return *instance;
}

Counter* Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  XRANK_CHECK(gauges_.find(name) == gauges_.end() &&
                  histograms_.find(name) == histograms_.end(),
              "metric name registered with a different type");
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  XRANK_CHECK(counters_.find(name) == counters_.end() &&
                  histograms_.find(name) == histograms_.end(),
              "metric name registered with a different type");
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  XRANK_CHECK(counters_.find(name) == counters_.end() &&
                  gauges_.find(name) == gauges_.end(),
              "metric name registered with a different type");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

RegistrySnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace_back(name, histogram->TakeSnapshot());
  }
  return snap;
}

void Registry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

namespace {

void AppendF(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  int n = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (n > 0) out->append(buffer, std::min<size_t>(n, sizeof(buffer) - 1));
}

// JSON string escaping for metric names (conservative: names are ASCII
// identifiers, but a stray quote/backslash must not corrupt the document).
void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          AppendF(out, "\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string RenderTable(const RegistrySnapshot& snapshot) {
  std::string out;
  if (!snapshot.counters.empty()) {
    out += "counters:\n";
    for (const auto& [name, value] : snapshot.counters) {
      AppendF(&out, "  %-40s %12" PRIu64 "\n", name.c_str(), value);
    }
  }
  if (!snapshot.gauges.empty()) {
    out += "gauges:\n";
    for (const auto& [name, value] : snapshot.gauges) {
      AppendF(&out, "  %-40s %12" PRId64 "\n", name.c_str(), value);
    }
  }
  if (!snapshot.histograms.empty()) {
    out += "histograms (us):\n";
    AppendF(&out, "  %-40s %10s %10s %10s %10s %10s\n", "name", "count",
            "mean", "p50", "p95", "p99");
    for (const auto& [name, h] : snapshot.histograms) {
      double mean =
          h.count > 0
              ? static_cast<double>(h.sum) / static_cast<double>(h.count)
              : 0.0;
      AppendF(&out, "  %-40s %10" PRIu64 " %10.1f %10.1f %10.1f %10.1f\n",
              name.c_str(), h.count, mean, h.p50, h.p95, h.p99);
    }
  }
  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

std::string RenderJson(const RegistrySnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(&out, snapshot.counters[i].first);
    AppendF(&out, ": %" PRIu64, snapshot.counters[i].second);
  }
  out += "\n  },\n  \"gauges\": {";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(&out, snapshot.gauges[i].first);
    AppendF(&out, ": %" PRId64, snapshot.gauges[i].second);
  }
  out += "\n  },\n  \"histograms\": {";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& [name, h] = snapshot.histograms[i];
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(&out, name);
    AppendF(&out,
            ": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64
            ", \"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f}",
            h.count, h.sum, h.p50, h.p95, h.p99);
  }
  out += "\n  }\n}\n";
  return out;
}

}  // namespace xrank::metrics

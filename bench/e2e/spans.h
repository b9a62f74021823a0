#ifndef XRANK_BENCH_E2E_SPANS_H_
#define XRANK_BENCH_E2E_SPANS_H_

// Spans of the traced run. The benchmark records its own span around each
// call into a public API (engine or router query, add, delete, flush,
// compaction, and each set-up stage), and imports below it the spans the
// engine records itself through QueryOptions::trace. Everything is kept in
// memory and written once, at exit.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "query/trace.h"

namespace xrank::e2e {

struct Span {
  uint64_t request = 0;  // operation id; spans of one operation share it
  int32_t parent = -1;   // index of the parent span in the log; -1 = root
  std::string name;
  int64_t start_ns = 0;  // steady clock, from the log's construction
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  // Returns the new span's index.
  int32_t Add(uint64_t request, int32_t parent, std::string name,
              int64_t start_ns, int64_t end_ns);

  // Appends `trace`'s span tree below `parent`. `trace_origin_ns` is when
  // the trace was constructed, on this log's clock.
  void Import(uint64_t request, int32_t parent, const query::QueryTrace& trace,
              int64_t trace_origin_ns);

  // {"header": <header_json>, "fields": [...], "spans": [[...], ...]}.
  bool WriteJson(const std::string& path, const std::string& header_json) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

// One traced query's span tree, reduced to what the per-layer metrics need.
struct TraceSummary {
  // Self time (duration minus the direct children's) summed per span name.
  std::map<std::string, int64_t> self_us;
  // Length of the union of the top-level spans: the part of the call some
  // engine span accounts for.
  int64_t covered_us = 0;
  // Durations of the router's "shard[i]" spans, in shard order.
  std::vector<int64_t> shard_us;
};

TraceSummary Summarize(const query::QueryTrace& trace);

}  // namespace xrank::e2e

#endif  // XRANK_BENCH_E2E_SPANS_H_

#ifndef XRANK_QUERY_TRACE_H_
#define XRANK_QUERY_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xrank::query {

// Per-query execution trace: a tree of timed spans (parse -> lexicon ->
// cursor_open -> merge -> rank -> cache, nesting freely — e.g. the HDIL
// processor's DIL fallback opens its own child spans) plus per-term
// posting/skip/probe counters gathered from the cursors.
//
// A trace is owned by one query invocation and is NOT thread-safe: a single
// query runs on a single thread, and concurrent queries each carry their
// own trace. Processors receive it through QueryOptions::trace and must
// tolerate null (tracing off — the default — costs nothing on the hot
// path). All timing is steady-clock, reported in microseconds relative to
// the trace's construction.
class QueryTrace {
 public:
  struct Span {
    std::string name;
    int depth = 0;          // nesting level (0 = top)
    int64_t start_us = 0;   // offset from trace construction
    int64_t duration_us = 0;
    bool open = false;      // still running (only mid-query)
  };

  struct TermStats {
    std::string term;
    std::string codec;           // posting codec decoding this term's pages
    uint64_t postings_read = 0;  // list entries decoded for this term
    uint64_t pages_skipped = 0;  // list pages jumped via skip blocks
    uint64_t btree_probes = 0;   // RDIL/HDIL B+-tree probes against it
    uint64_t hash_probes = 0;    // Naive-Rank hash lookups against it
    uint64_t block_cache_hits = 0;  // pages served from the decoded cache
  };

  QueryTrace() : origin_(std::chrono::steady_clock::now()) {}

  // Spans. BeginSpan returns a handle for the matching EndSpan; unbalanced
  // Begin/End is tolerated (an unclosed span stays marked open). Prefer
  // ScopedSpan below.
  size_t BeginSpan(std::string_view name);
  void EndSpan(size_t handle);

  void AddTermStats(TermStats stats) {
    terms_.push_back(std::move(stats));
  }

  // Free-form key/value annotations attached by the processors (e.g. the
  // merge algorithm that actually ran). Re-annotating a key overwrites it,
  // so a fallback path (HDIL -> DIL) reports its final choice.
  void AddAnnotation(std::string_view key, std::string_view value);

  // Splices another query's finished trace into this one as a synthetic
  // parent span named `name` holding the child's span tree (depths shifted
  // below it, times re-anchored to this trace's clock via the two origins)
  // plus the child's term counters, each term prefixed "name:". The range
  // fan-out (core/fan_out.h) uses this to merge per-range traces — each
  // recorded single-threadedly on its own thread — into the caller's trace
  // after the ranges ran, keeping QueryTrace itself free of locks.
  void MergeChild(std::string_view name, const QueryTrace& child);

  // Query annotations (shown by the renderers and the slow-query log).
  void set_query_text(std::string text) { query_text_ = std::move(text); }
  void set_index_kind(std::string kind) { index_kind_ = std::move(kind); }
  const std::string& query_text() const { return query_text_; }
  const std::string& index_kind() const { return index_kind_; }

  int64_t ElapsedUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<TermStats>& terms() const { return terms_; }
  const std::vector<std::pair<std::string, std::string>>& annotations() const {
    return annotations_;
  }

  // Human-readable rendering: an indented span tree with timings, then the
  // per-term counter table.
  std::string FormatTable() const;

  // Strict-JSON object:
  //   {"query":"...","kind":"...","spans":[{"name":..,"depth":..,
  //    "start_us":..,"duration_us":..}],"terms":[{...}]}
  std::string FormatJson() const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_stack_;  // handles of currently open spans
  std::vector<TermStats> terms_;
  std::vector<std::pair<std::string, std::string>> annotations_;
  std::string query_text_;
  std::string index_kind_;
};

// RAII span guard, null-safe: `ScopedSpan s(trace, "merge");` is a no-op
// when trace == nullptr, so call sites need no branching.
class ScopedSpan {
 public:
  ScopedSpan(QueryTrace* trace, std::string_view name) : trace_(trace) {
    if (trace_ != nullptr) handle_ = trace_->BeginSpan(name);
  }
  ~ScopedSpan() { End(); }

  // Closes the span early (idempotent).
  void End() {
    if (trace_ != nullptr) trace_->EndSpan(handle_);
    trace_ = nullptr;
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  QueryTrace* trace_;
  size_t handle_ = 0;
};

}  // namespace xrank::query

#endif  // XRANK_QUERY_TRACE_H_

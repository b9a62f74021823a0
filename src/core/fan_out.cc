#include "core/fan_out.h"

#include <utility>

namespace xrank::core {

dewey::DeweyId RebaseUp(const dewey::DeweyId& local, uint32_t doc_base) {
  if (doc_base == 0) return local;
  std::vector<uint32_t> components = local.components();
  components[0] += doc_base;
  return dewey::DeweyId(std::move(components));
}

RangeFanOut::RangeFanOut(const query::QueryOptions& query_options,
                         std::string label)
    : caller_(query_options),
      label_(std::move(label)),
      start_(std::chrono::steady_clock::now()),
      threshold_(query_options.shared_threshold != nullptr
                     ? query_options.shared_threshold
                     : &own_threshold_) {}

Status RangeFanOut::Run(size_t n, const RunRange& run,
                        query::QueryStats* stats, ThreadPool* pool,
                        std::mutex* pool_mutex) {
  ranges_.assign(n, Range{});
  const bool tracing = caller_.trace != nullptr;

  auto run_range = [&](size_t i) {
    Range& range = ranges_[i];
    query::QueryOptions options = caller_;
    // A QueryTrace is single-threaded; every range records its own, spliced
    // into the caller's below. It starts with the range, so a range queued
    // behind another on the same worker is not charged for the wait.
    if (tracing) range.trace = query::QueryTrace();
    options.trace = tracing ? &range.trace : nullptr;
    options.shared_threshold = threshold_;
    if (caller_.deadline_ms > 0) {
      const int64_t elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start_)
              .count();
      const int64_t remaining = caller_.deadline_ms - elapsed_ms;
      if (remaining <= 0) {
        range.skipped = true;
        range.status = Status::DeadlineExceeded(
            "query budget spent before " + label_ + " " + std::to_string(i) +
            " started");
        return;
      }
      options.deadline_ms = remaining;
    }
    Result<query::QueryStats> result = run(i, options);
    if (result.ok()) {
      range.ran = true;
      range.stats = std::move(result).value();
    } else {
      range.status = result.status();
    }
  };

  if (pool == nullptr || n == 1) {
    for (size_t i = 0; i < n; ++i) run_range(i);
  } else {
    std::lock_guard<std::mutex> lock(*pool_mutex);
    pool->ParallelFor(0, n, 1,
                      [&](size_t begin, size_t end, size_t /*chunk*/) {
                        for (size_t i = begin; i < end; ++i) run_range(i);
                      });
  }

  Status hard_error;
  bool deadline_hit = false;
  for (size_t i = 0; i < n; ++i) {
    const Range& range = ranges_[i];
    if (tracing && (range.ran || !range.trace.spans().empty())) {
      caller_.trace->MergeChild(label_ + "[" + std::to_string(i) + "]",
                                range.trace);
    }
    if (range.ran) {
      query::MergeQueryStats(stats, range.stats);
    } else if (range.status.code() == StatusCode::kDeadlineExceeded) {
      deadline_hit = true;
    } else if (hard_error.ok()) {
      hard_error = range.status;
    }
  }
  if (!hard_error.ok()) return hard_error;
  if (deadline_hit) {
    if (!caller_.allow_partial_results) {
      return Status::DeadlineExceeded(
          label_ + " fan-out deadline exceeded (" +
          std::to_string(caller_.deadline_ms) + " ms)");
    }
    stats->partial = true;  // a range never contributed
  }
  return Status::OK();
}

}  // namespace xrank::core

#ifndef XRANK_CORE_FAN_OUT_H_
#define XRANK_CORE_FAN_OUT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "dewey/dewey_id.h"
#include "query/query.h"
#include "query/result_heap.h"
#include "query/trace.h"

namespace xrank::core {

// The document id is the first Dewey component (paper Section 4.5), so a
// corpus split into contiguous doc-id ranges (an engine's live segments, a
// router's shards) answers range by range under local ids, which rebase up
// by the range's first document id.
dewey::DeweyId RebaseUp(const dewey::DeweyId& local, uint32_t doc_base);

// The one executor that fans a top-k query out over doc-id ranges: the
// engine's live segments and delta, and the router's shards.
class RangeFanOut {
 public:
  struct Range {
    Status status;         // why the range has no answer, when it has none
    bool ran = false;      // the runner returned OK
    bool skipped = false;  // never started: the budget was already spent
    query::QueryStats stats;
    query::QueryTrace trace;
  };

  // Answers range i under the derived options and returns its stats; the
  // runner keeps the range's results.
  using RunRange = std::function<Result<query::QueryStats>(
      size_t, const query::QueryOptions&)>;

  // `query_options` are the caller's; the query's budget starts now.
  RangeFanOut(const query::QueryOptions& query_options, std::string label);

  // The θ every range shares: the caller's when one is set, otherwise this
  // executor's own.
  query::SharedTopKThreshold* threshold() const { return threshold_; }

  // Runs ranges [0, n), in order on the calling thread or on `pool` under
  // `pool_mutex`, each with the caller's options plus its own trace
  // (started with the range, spliced as "<label>[i]"), the budget left (a
  // range left none is skipped) and the shared θ. Folds the ranges' stats
  // into `*stats` in range order. The first hard failure fails the
  // fan-out; a missed budget marks `*stats` partial under
  // allow_partial_results and is DeadlineExceeded otherwise.
  Status Run(size_t n, const RunRange& run, query::QueryStats* stats,
             ThreadPool* pool = nullptr, std::mutex* pool_mutex = nullptr);

  // Each range's outcome, once Run returned.
  const std::vector<Range>& ranges() const { return ranges_; }

 private:
  const query::QueryOptions caller_;
  const std::string label_;
  const std::chrono::steady_clock::time_point start_;
  // Atomic, so the executor can neither copy nor move and threshold_ stays
  // valid.
  query::SharedTopKThreshold own_threshold_;
  query::SharedTopKThreshold* const threshold_;
  std::vector<Range> ranges_;
};

}  // namespace xrank::core

#endif  // XRANK_CORE_FAN_OUT_H_

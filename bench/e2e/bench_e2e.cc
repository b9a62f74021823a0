// bench_e2e: the end-to-end, layer-attributed serving benchmark.
//
//   bench_e2e --workload W --seed N --seconds S --trace 0|1
//             [--tiny] [--tmp DIR] [--report PATH] [--spans PATH]
//
// One process runs one workload (workloads.h). --seed derives the corpus
// and the whole operation stream.
//
// --trace 0, the load run: set up the engine (or router), drive it with one
// closed-loop client (plus the open-loop writer of dblp-live-ingest) over
// the workload's fixed query sequence, in rounds, for --seconds with
// tracing off, then set up twice more to time set-up. It reports the
// end-to-end metrics BENCHMARK.json lists, with timings expressed at the
// reference host speed (host_probe.h).
//
// --trace 1, the traced run: one client runs a fixed operation sequence
// twice, untraced and then traced, from the same cache state. The traced
// pass records the benchmark's spans around each public call plus the
// engine's own spans, and yields the per-layer metrics; the set-up is
// re-timed stage by stage through the public build calls.
//
// Answers are checked in both modes (README.md, "Correctness"). The last
// line on stdout is one JSON object {"correct", "attempted", "failed",
// "metrics"}; a wrong answer makes the exit code 1.

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/shard_router.h"
#include "graph/builder.h"
#include "host_probe.h"
#include "index/dil_index.h"
#include "index/hdil_index.h"
#include "index/index_builder.h"
#include "rank/elem_rank.h"
#include "spans.h"
#include "storage/page.h"
#include "workloads.h"
#include "xml/parser.h"

#ifndef XRANK_E2E_BUILD_TYPE
#define XRANK_E2E_BUILD_TYPE "unknown"
#endif

namespace xrank::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 3;
constexpr double kWarmupShare = 0.10;
constexpr uint64_t kMinRounds = 3;
// The host probe runs this many times per round of the load run's sequence.
constexpr size_t kProbesPerRound = 4;
// dblp workloads re-run a seeded one-in-16 sample of their queries against
// the exhaustive merge, at most kMaxReferenceChecks of them: an exhaustive
// disjunctive query over the large corpus takes a good part of a second.
constexpr uint64_t kReferenceSampleEvery = 16;
constexpr size_t kMaxReferenceChecks = 16;
// Traced live-ingest: every this-many-th operation is a write.
constexpr size_t kTracedWriteEvery = 8;
// The background maintenance policy the traced run replays inline.
constexpr size_t kFlushEveryAdds = 4;
constexpr size_t kCompactAtSegments = 4;

int64_t NowNs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

void SleepUntilNs(int64_t ns) {
  int64_t delta = ns - NowNs();
  if (delta > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(delta));
}

size_t Cores() { return std::max(1u, std::thread::hardware_concurrency()); }

size_t LoadQueries(const WorkloadSpec& spec, bool tiny) {
  return tiny ? spec.load_queries / 8 : spec.load_queries;
}

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string tmp_dir = "bench_e2e.tmp";
  std::string report_path;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (flag != "--tiny") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag.c_str());
        return false;
      }
      value = argv[++i];
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args->spec = FindWorkload(value);
      if (args->spec == nullptr) {
        std::fprintf(stderr, "error: unknown workload '%s' (one of: %s)\n",
                     value.c_str(), WorkloadNames().c_str());
        return false;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        std::fprintf(stderr, "error: bad --seed '%s'\n", value.c_str());
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0)) {
        std::fprintf(stderr, "error: bad --seconds '%s'\n", value.c_str());
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "error: --trace takes 0 or 1\n");
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--tmp") {
      args->tmp_dir = value;
    } else if (flag == "--report") {
      args->report_path = value;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->spec == nullptr) {
    std::fprintf(stderr, "error: --workload is required (one of: %s)\n",
                 WorkloadNames().c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Statistics and the report

// Samples of one timing or ratio; quantiles interpolate linearly.
class Dist {
 public:
  void Add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }
  size_t n() const { return values_.size(); }
  double Quantile(double q) const {
    if (values_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    double pos = q * static_cast<double>(values_.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values_.size() - 1);
    return values_[lo] +
           (pos - static_cast<double>(lo)) * (values_[hi] - values_[lo]);
  }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  size_t samples = 0;
};

struct Report {
  std::vector<Metric> metrics;  // the metrics BENCHMARK.json lists for the mode
  std::vector<Metric> extras;   // shown and written to --report, not gated
  std::string breakdown_json;   // traced run: uncached 2-keyword breakdown

  void Add(std::string name, std::string unit, double value, size_t samples) {
    metrics.push_back({std::move(name), std::move(unit), value, samples});
  }
  void Extra(std::string name, std::string unit, double value,
             size_t samples) {
    extras.push_back({std::move(name), std::move(unit), value, samples});
  }
  // p50 and p95 (gated when `gated`), then p99 and max (never gated).
  void AddTiming(const std::string& base, const Dist& d, bool gated) {
    auto add = [&](const std::string& suffix, double q, bool gate) {
      Metric m{base + suffix, "us", d.Quantile(q), d.n()};
      (gate ? metrics : extras).push_back(std::move(m));
    };
    add("_p50_us", 0.50, gated);
    add("_p95_us", 0.95, gated);
    add("_p99_us", 0.99, false);
    add("_max_us", 1.00, false);
  }
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool samples) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"";
    if (samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

// Records failed operations (errors and wrong answers) and keeps the first
// few messages for the log.
class Failures {
 public:
  void Record(const std::string& message) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++count_;
    if (messages_.size() < 8) messages_.push_back(message);
  }
  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }
  void Print() const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& m : messages_) {
      std::fprintf(stderr, "FAILED: %s\n", m.c_str());
    }
  }

 private:
  mutable std::mutex mutex_;
  uint64_t count_ = 0;
  std::vector<std::string> messages_;
};

// ---------------------------------------------------------------------------
// The served target: one engine, or a router over shards

struct Target {
  const WorkloadSpec* spec = nullptr;
  std::unique_ptr<core::XRankEngine> engine;
  std::unique_ptr<core::ShardRouter> router;
  std::string dir;  // empty when in memory

  Result<core::EngineResponse> Query(
      const std::string& text, const query::QueryOptions& options,
      std::vector<query::QueryStats>* per_shard = nullptr) {
    if (router) {
      return router->Query(text, kTopM, spec->kind, options, per_shard);
    }
    return engine->Query(text, kTopM, spec->kind, options);
  }
  core::XRankEngine::ServingCounters Counters() const {
    return router ? router->serving_counters(spec->kind)
                  : engine->serving_counters(spec->kind);
  }
  void DropCaches() {
    if (!router) return engine->DropCaches();
    for (size_t i = 0; i < router->shard_count(); ++i) {
      router->shard_engine(i).DropCaches();
    }
  }
  index::IndexStats IndexStats() {
    if (!router) return engine->index_stats(spec->kind);
    index::IndexStats sum;
    for (size_t i = 0; i < router->shard_count(); ++i) {
      const index::IndexStats& s =
          router->shard_engine(i).index_stats(spec->kind);
      sum.list_pages += s.list_pages;
      sum.index_pages += s.index_pages;
      sum.lexicon_pages += s.lexicon_pages;
      sum.list_used_bytes += s.list_used_bytes;
    }
    return sum;
  }
};

Result<std::vector<xml::Document>> ParseCorpus(const Corpus& corpus) {
  std::vector<xml::Document> documents;
  documents.reserve(corpus.documents.size());
  for (const XmlDocument& doc : corpus.documents) {
    XRANK_ASSIGN_OR_RETURN(xml::Document parsed,
                           xml::ParseDocument(doc.text, doc.uri));
    documents.push_back(std::move(parsed));
  }
  return documents;
}

// setup_s: from the corpus's XML bytes to a serving engine, including the
// disk commit.
Result<Target> SetUp(const WorkloadSpec& spec, const Corpus& corpus,
                     const std::string& dir, bool inline_maintenance,
                     double* seconds) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  // The router creates its root itself; an engine wants it to exist.
  std::filesystem::create_directories(
      spec.sharded ? std::filesystem::path(dir).parent_path()
                   : std::filesystem::path(dir),
      ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());

  Clock::time_point start = Clock::now();
  XRANK_ASSIGN_OR_RETURN(std::vector<xml::Document> documents,
                         ParseCorpus(corpus));
  Target target;
  target.spec = &spec;
  target.dir = spec.disk_backed ? dir : "";
  if (spec.sharded) {
    XRANK_ASSIGN_OR_RETURN(
        target.router,
        core::ShardRouter::Build(std::move(documents),
                                 RouterOptionsFor(spec, target.dir)));
  } else {
    XRANK_ASSIGN_OR_RETURN(
        target.engine,
        core::XRankEngine::Build(
            std::move(documents),
            EngineOptionsFor(spec, target.dir, inline_maintenance)));
  }
  *seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return target;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

// Bytes the index occupies: the committed directory when disk-backed, the
// served index's pages otherwise.
double StoredBytes(Target& target) {
  if (!target.dir.empty()) {
    return static_cast<double>(DirectoryBytes(target.dir));
  }
  index::IndexStats s = target.IndexStats();
  return static_cast<double>((s.list_pages + s.index_pages + s.lexicon_pages) *
                             storage::kPageSize);
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Answers and their checks

struct Answer {
  std::vector<dewey::DeweyId> ids;
  std::vector<double> ranks;
};

Answer AnswerOf(const core::EngineResponse& response) {
  Answer answer;
  for (const core::EngineResult& result : response.results) {
    answer.ids.push_back(result.id);
    answer.ranks.push_back(result.rank);
  }
  return answer;
}

// Ids exactly; ranks within `tolerance` (0: bitwise).
bool SameAnswer(const Answer& a, const Answer& b, double tolerance) {
  if (a.ids != b.ids) return false;
  for (size_t i = 0; i < a.ranks.size(); ++i) {
    if (tolerance == 0.0 ? a.ranks[i] != b.ranks[i]
                         : std::fabs(a.ranks[i] - b.ranks[i]) > tolerance) {
      return false;
    }
  }
  return true;
}

// Every response: at most m results, rank-descending.
bool WellFormed(const core::EngineResponse& response) {
  if (response.results.size() > kTopM) return false;
  for (size_t i = 1; i < response.results.size(); ++i) {
    if (response.results[i].rank > response.results[i - 1].rank) return false;
  }
  return true;
}

// Acknowledged deletes (live-ingest): no query that starts after the
// acknowledgement may return the document.
class DeleteLog {
 public:
  void Ack(const std::string& uri, int64_t ns) {
    std::lock_guard<std::mutex> lock(mutex_);
    acked_ns_[uri] = ns;
  }
  bool DeletedBefore(const std::string& uri, int64_t ns) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = acked_ns_.find(uri);
    return it != acked_ns_.end() && it->second < ns;
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, int64_t> acked_ns_;
};

// Checks one query's outcome; returns false (after recording why) when the
// operation failed.
bool CheckQuery(const Result<core::EngineResponse>& response,
                const std::string& text, int64_t start_ns,
                const DeleteLog* deletes, Failures* failures) {
  if (!response.ok()) {
    failures->Record("query '" + text + "': " + response.status().ToString());
    return false;
  }
  if (!WellFormed(*response)) {
    failures->Record("query '" + text + "': more than m results or not "
                     "rank-descending");
    return false;
  }
  if (deletes != nullptr) {
    for (const core::EngineResult& result : response->results) {
      if (deletes->DeletedBefore(result.document_uri, start_ns)) {
        failures->Record("query '" + text + "' returned deleted document " +
                         result.document_uri);
        return false;
      }
    }
  }
  return true;
}

// Each query id's first answer. A later execution of the same id must
// repeat it exactly, result-cache hits included. `check` marks what the
// reference check re-runs: every distinct xmark query, and a seeded
// one-in-16 sample of the dblp queries.
struct ReferenceSet {
  struct Entry {
    std::string text;
    Answer answer;
    bool check = false;
  };
  std::map<size_t, Entry> first;
};

bool Sampled(uint64_t seed, size_t id) {
  return Random(seed).Fork(0x73616d706c65).Fork(id).Uniform(
             kReferenceSampleEvery) == 0;
}

// Live-ingest keeps nothing: its index changes under the queries.
void Remember(const WorkloadSpec& spec, uint64_t seed, const QueryOp& op,
              Answer answer, ReferenceSet* refs, Failures* failures) {
  if (spec.live) return;
  auto [it, inserted] = refs->first.try_emplace(op.id);
  if (inserted) {
    it->second = {op.text, std::move(answer),
                  spec.xmark || Sampled(seed, op.id)};
  } else if (!SameAnswer(it->second.answer, answer, 0.0)) {
    failures->Record("query '" + op.text + "' changed its answer");
  }
}

// xmark: every distinct HDIL answer against DIL's exhaustive merge (ids
// exactly, ranks within 1e-9). dblp: the sample, at most
// kMaxReferenceChecks of it, against the exhaustive merge of the same
// index, bitwise. Runs untimed, on up to `threads`.
uint64_t CheckReferences(const WorkloadSpec& spec, uint64_t seed,
                         Target& target, const ReferenceSet& refs,
                         size_t threads, Failures* failures) {
  // One reference per distinct text, so that no reference query can be
  // answered from a cache entry another one wrote.
  std::map<std::string, const ReferenceSet::Entry*> by_text;
  for (const auto& [id, entry] : refs.first) {
    if (entry.check) by_text.emplace(entry.text, &entry);
  }
  std::vector<const ReferenceSet::Entry*> work;
  for (const auto& [text, entry] : by_text) work.push_back(entry);
  if (!spec.xmark && work.size() > kMaxReferenceChecks) {
    Random pick = Random(seed).Fork(0x726566);
    for (size_t i = 0; i < kMaxReferenceChecks; ++i) {
      std::swap(work[i], work[i + pick.Uniform(work.size() - i)]);
    }
    work.resize(kMaxReferenceChecks);
  }
  // The result cache is keyed by the terms, not by the merge algorithm: a
  // warm cache would hand back the answer under test as its own reference.
  target.DropCaches();
  query::QueryOptions exhaustive;
  exhaustive.algorithm = query::MergeAlgorithm::kExhaustive;
  std::atomic<size_t> next{0};
  auto worker = [&] {
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= work.size()) break;
      const ReferenceSet::Entry& entry = *work[i];
      Result<core::EngineResponse> reference =
          spec.xmark ? target.engine->Query(entry.text, kTopM,
                                            index::IndexKind::kDil, exhaustive)
                     : target.Query(entry.text, exhaustive);
      if (!reference.ok()) {
        failures->Record("reference for '" + entry.text +
                         "': " + reference.status().ToString());
      } else if (reference->stats.result_cache_hit) {
        failures->Record("reference for '" + entry.text +
                         "' came from the result cache");
      } else if (!SameAnswer(entry.answer, AnswerOf(*reference),
                             spec.xmark ? 1e-9 : 0.0)) {
        failures->Record("query '" + entry.text +
                         "' disagrees with the exhaustive reference");
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  return work.size();
}

// ---------------------------------------------------------------------------
// The live-ingest writer's operations

struct Writer {
  const Corpus* corpus = nullptr;
  std::vector<std::string> live_uris;  // base and acknowledged adds
  size_t next_fresh = 0;
  Random rng;

  Writer(const Corpus& c, uint64_t seed)
      : corpus(&c), rng(Random(seed).Fork(0x777269746572)) {
    for (const XmlDocument& doc : c.documents) live_uris.push_back(doc.uri);
  }

  struct Op {
    bool is_delete = false;
    std::string uri;
    const std::string* text = nullptr;
  };
  // Null op (empty uri) once the fresh documents run out.
  Op Next() {
    Op op;
    if (rng.Bernoulli(kDeleteShare) && !live_uris.empty()) {
      size_t i = rng.Uniform(live_uris.size());
      op.is_delete = true;
      op.uri = live_uris[i];
      live_uris[i] = live_uris.back();
      live_uris.pop_back();
    } else if (next_fresh < corpus->fresh.size()) {
      const XmlDocument& doc = corpus->fresh[next_fresh++];
      op.uri = doc.uri;
      op.text = &doc.text;
    }
    return op;
  }
  Status Apply(core::XRankEngine& engine, const Op& op) {
    if (op.is_delete) return engine.DeleteDocument(op.uri);
    Status status = engine.AddDocument(op.uri, *op.text);
    if (status.ok()) live_uris.push_back(op.uri);
    return status;
  }
};

// ---------------------------------------------------------------------------
// The load run (--trace 0)

struct LoadOutcome {
  // Per position of the query sequence, its median over the measured rounds.
  Dist query_us;
  double median_sum_us = 0.0;
  uint64_t rounds = 0;       // measured rounds
  uint64_t executions = 0;   // measured query executions
  uint64_t cache_hits = 0;   // among them
  double measured_s = 0.0;
  Dist probe_ms;             // the host probe, during the measured rounds
  Dist write_us;    // from the scheduled send time
  Dist add_us;      // service time, from the call
  Dist delete_us;
  Dist lag_us;      // how late the writer issued each operation
  uint64_t attempted = 0;
  uint64_t references = 0;
  double peak_rss_mib = 0.0;  // one set-up and the measured phase
  core::XRankEngine::ServingCounters before, after;
  core::XRankEngine::UpdateCounters updates_before, updates_after;
};

// The client runs the workload's fixed query sequence in rounds. On
// the static workloads an untimed first round leaves every cache (result
// cache, block cache, buffer pool) in the state each later round starts
// from, so every measured round does the same work; live-ingest, whose
// index changes under the queries, warms up on the first tenth only.
// Measured rounds then run until --seconds have passed, and at least
// kMinRounds of them (live-ingest: for --seconds exactly). A position's
// latency is its median over the rounds, so the query mix is the sequence
// itself, however fast the code is. The host probe runs before the first
// measured query and then every quarter round.
LoadOutcome RunLoad(const Args& args, const Corpus& corpus, Target& target,
                    HostProbe* probe, Failures* failures) {
  const WorkloadSpec& spec = *args.spec;
  const std::vector<QueryOp> sequence =
      QuerySequence(spec, corpus, args.seed, LoadQueries(spec, args.tiny));
  const size_t warmup =
      spec.live ? static_cast<size_t>(static_cast<double>(sequence.size()) *
                                      kWarmupShare)
                : sequence.size();
  const int64_t measure_ns = static_cast<int64_t>(args.seconds * 1e9);

  DeleteLog deletes;
  LoadOutcome out;
  ReferenceSet refs;
  std::atomic<int64_t> measure_start{std::numeric_limits<int64_t>::max()};
  std::atomic<bool> stop{false};

  auto client = [&] {
    std::vector<std::vector<double>> rounds_us(sequence.size());
    auto run = [&](size_t i, bool measured) {
      const QueryOp& op = sequence[i];
      int64_t t0 = NowNs();
      Result<core::EngineResponse> response =
          target.Query(op.text, query::QueryOptions{});
      int64_t t1 = NowNs();
      ++out.attempted;
      if (!CheckQuery(response, op.text, t0, spec.live ? &deletes : nullptr,
                      failures)) {
        return;
      }
      Remember(spec, args.seed, op, AnswerOf(*response), &refs, failures);
      if (!measured) return;
      ++out.executions;
      rounds_us[i].push_back(static_cast<double>(t1 - t0) / 1e3);
      if (response->stats.result_cache_hit) ++out.cache_hits;
    };
    for (size_t i = 0; i < warmup; ++i) run(i, false);

    out.probe_ms.Add(probe->RunMs());
    out.before = target.Counters();
    if (spec.live) out.updates_before = target.engine->update_counters();
    const int64_t start = NowNs();
    measure_start.store(start);
    auto measuring = [&] { return NowNs() - start < measure_ns; };
    const size_t probe_every =
        std::max<size_t>(1, sequence.size() / kProbesPerRound);
    size_t executed = 0;
    auto run_measured = [&](size_t i) {
      run(i, true);
      if (++executed % probe_every == 0) out.probe_ms.Add(probe->RunMs());
    };
    if (spec.live) {
      // The writer's schedule is in wall time, so only a window of exactly
      // --seconds holds the same number of writes however fast the
      // queries run; whole rounds would stretch the window, and the writes
      // in it, on a slow host.
      for (size_t i = 0; measuring(); i = (i + 1) % sequence.size()) {
        run_measured(i);
        if (i + 1 == sequence.size()) ++out.rounds;
      }
    } else {
      while (out.rounds < kMinRounds || measuring()) {
        for (size_t i = 0; i < sequence.size(); ++i) run_measured(i);
        ++out.rounds;
      }
    }
    out.measured_s = static_cast<double>(NowNs() - start) / 1e9;
    out.after = target.Counters();
    stop.store(true);
    for (std::vector<double>& us : rounds_us) {
      if (us.empty()) continue;  // failed in every round
      Dist d;
      for (double x : us) d.Add(x);
      out.query_us.Add(d.Quantile(0.5));
      out.median_sum_us += d.Quantile(0.5);
    }
  };

  uint64_t writer_attempted = 0;
  auto writer = [&] {
    Writer w(corpus, args.seed);
    const int64_t period_ns = static_cast<int64_t>(1e9 / kWriterOpsPerSecond);
    for (int64_t due = NowNs();; due += period_ns) {
      SleepUntilNs(due);
      if (stop.load()) break;
      Writer::Op op = w.Next();
      if (op.uri.empty()) {
        failures->Record("live-ingest ran out of fresh documents");
        return;
      }
      int64_t issued = NowNs();
      Status status = w.Apply(*target.engine, op);
      int64_t done = NowNs();
      ++writer_attempted;
      if (!status.ok()) {
        failures->Record((op.is_delete ? "delete " : "add ") + op.uri + ": " +
                         status.ToString());
        continue;
      }
      if (op.is_delete) deletes.Ack(op.uri, done);
      if (due >= measure_start.load()) {
        out.write_us.Add(static_cast<double>(done - due) / 1e3);
        out.lag_us.Add(static_cast<double>(issued - due) / 1e3);
        (op.is_delete ? out.delete_us : out.add_us)
            .Add(static_cast<double>(done - issued) / 1e3);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(client);
  if (spec.live) threads.emplace_back(writer);
  for (std::thread& t : threads) t.join();
  if (spec.live) {
    Status maintenance = target.engine->WaitForMaintenance();
    if (!maintenance.ok()) {
      failures->Record("background maintenance: " + maintenance.ToString());
    }
    out.updates_after = target.engine->update_counters();
  }
  // Before the untimed reference check, which runs several queries at once.
  out.peak_rss_mib = PeakRssMib();

  out.attempted += writer_attempted;
  out.references =
      CheckReferences(spec, args.seed, target, refs, Cores(), failures);
  return out;
}

// ---------------------------------------------------------------------------
// The traced run (--trace 1)

// The set-up re-timed stage by stage through the public build calls, with
// the options the engine (or router) uses.
struct SetupStages {
  double parse_s = 0, graph_s = 0, elemrank_s = 0, extract_s = 0, build_s = 0;
  int iterations = 0;
  size_t documents = 0;
};

template <typename Fn>
double Seconds(Fn&& fn) {
  Clock::time_point start = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Status BuildIndexes(const index::TermPostingsMap& postings,
                    const core::EngineOptions& options) {
  for (index::IndexKind kind : options.indexes) {
    auto file = storage::PageFile::CreateInMemory();
    auto built = kind == index::IndexKind::kHdil
                     ? index::BuildHdilIndex(postings, std::move(file),
                                             options.hdil, options.build)
                     : index::BuildDilIndex(postings, std::move(file),
                                            options.build);
    XRANK_RETURN_NOT_OK(built.status());
  }
  return Status::OK();
}

Result<SetupStages> RetimeSetup(const WorkloadSpec& spec, const Corpus& corpus,
                                SpanLog* log) {
  SetupStages stages;
  core::EngineOptions options = spec.sharded
                                    ? RouterOptionsFor(spec, "").engine
                                    : EngineOptionsFor(spec, "", false);
  index::ExtractionOptions extraction = options.extraction;
  extraction.build_naive = false;
  auto span = [&](const char* name, auto&& fn) {
    int64_t t0 = log->Now();
    double s = Seconds(fn);
    log->Add(0, -1, name, t0, log->Now());
    return s;
  };

  Result<std::vector<xml::Document>> parsed = Status::Internal("not parsed");
  stages.parse_s =
      span("setup.xml.parse", [&] { parsed = ParseCorpus(corpus); });
  XRANK_RETURN_NOT_OK(parsed.status());
  const std::vector<xml::Document>& documents = parsed.value();
  stages.documents = documents.size();

  auto build_graph = [&](size_t begin, size_t end, graph::BuilderOptions bo,
                         graph::XmlGraph* out) -> Status {
    graph::GraphBuilder builder(bo);
    for (size_t d = begin; d < end; ++d) {
      XRANK_RETURN_NOT_OK(builder.AddDocument(documents[d]));
    }
    XRANK_ASSIGN_OR_RETURN(*out, std::move(builder).Finalize());
    return Status::OK();
  };
  Status status;
  graph::XmlGraph graph;
  stages.graph_s = span("setup.graph.build", [&] {
    status = build_graph(0, documents.size(), options.graph, &graph);
  });
  XRANK_RETURN_NOT_OK(status);
  Result<rank::ElemRankResult> ranks = Status::Internal("not ranked");
  stages.elemrank_s = span("setup.rank.elemrank", [&] {
    ranks = rank::ComputeElemRank(graph, options.elem_rank);
  });
  XRANK_RETURN_NOT_OK(ranks.status());
  stages.iterations = ranks->iterations;

  if (!spec.sharded) {
    Result<index::ExtractionResult> extracted =
        Status::Internal("not extracted");
    stages.extract_s = span("setup.index.extract", [&] {
      extracted = index::ExtractPostings(graph, ranks->ranks, extraction);
    });
    XRANK_RETURN_NOT_OK(extracted.status());
    stages.build_s = span("setup.index.build", [&] {
      status = BuildIndexes(extracted->dewey_postings, options);
    });
    if (!status.ok()) return status;
    return stages;
  }

  // The router builds each shard from its document range and its slice of
  // the global ranks, with cross-shard links left dangling.
  const size_t shards = RouterOptionsFor(spec, "").num_shards;
  graph::BuilderOptions shard_graph = options.graph;
  shard_graph.ignore_dangling_links = true;
  size_t node_offset = 0;
  for (size_t i = 0; i < shards; ++i) {
    size_t begin = i * documents.size() / shards;
    size_t end = (i + 1) * documents.size() / shards;
    graph::XmlGraph local;
    stages.graph_s += span("setup.graph.build", [&] {
      status = build_graph(begin, end, shard_graph, &local);
    });
    XRANK_RETURN_NOT_OK(status);
    if (node_offset + local.node_count() > ranks->ranks.size()) {
      return Status::Internal("shard graphs outgrow the global graph");
    }
    std::vector<double> slice(
        ranks->ranks.begin() + static_cast<ptrdiff_t>(node_offset),
        ranks->ranks.begin() +
            static_cast<ptrdiff_t>(node_offset + local.node_count()));
    node_offset += local.node_count();
    Result<index::ExtractionResult> extracted =
        Status::Internal("not extracted");
    stages.extract_s += span("setup.index.extract", [&] {
      extracted = index::ExtractPostings(local, slice, extraction);
    });
    XRANK_RETURN_NOT_OK(extracted.status());
    stages.build_s += span("setup.index.build", [&] {
      status = BuildIndexes(extracted->dewey_postings, options);
    });
    XRANK_RETURN_NOT_OK(status);
  }
  return stages;
}

// Per-layer accumulators over the measured operations of the traced pass.
struct Layers {
  uint64_t queries = 0, misses = 0, hits = 0;
  Dist hit_us;
  std::map<std::string, Dist> self_us;  // misses where the span ran
  double wall_us = 0, unattributed_us = 0;
  uint64_t postings = 0, results = 0, pruned = 0, skipped = 0, pivots = 0,
           probes = 0, switched = 0, sequential = 0, random = 0;
  double io_cost = 0;
  std::map<std::string, uint64_t> algorithms;
  uint64_t labelled = 0;  // executions the algorithm shares divide by
  Dist shard_max_us, gather_us, shard_skew;
  Dist add_us, delete_us, flush_ms, compact_ms;
  uint64_t compactions = 0;
  // Uncached 2-keyword queries: mean self time per span name.
  uint64_t two_kw = 0;
  double two_kw_wall_us = 0, two_kw_unattributed_us = 0;
  std::map<std::string, double> two_kw_self_us;
};

struct PassOutcome {
  double query_wall_us = 0;  // measured queries only
  std::vector<Answer> answers;
  uint64_t attempted = 0;
  core::XRankEngine::ServingCounters before, after;
  core::ShardRouter::RouterCounters router_before, router_after;
};

// One pass over the fixed operation sequence. The traced pass fills
// `layers` and `log`; both passes must return identical answers.
PassOutcome RunPass(const Args& args, const Corpus& corpus, Target& target,
                    size_t operations, bool traced, Layers* layers,
                    SpanLog* log, ReferenceSet* refs, Failures* failures) {
  const WorkloadSpec& spec = *args.spec;
  const size_t warmup = static_cast<size_t>(
      static_cast<double>(operations) * kWarmupShare);
  const std::vector<QueryOp> sequence =
      QuerySequence(spec, corpus, args.seed, operations);
  size_t next_query = 0;
  std::unique_ptr<Writer> writer;
  if (spec.live) writer = std::make_unique<Writer>(corpus, args.seed);
  size_t adds_since_flush = 0;
  PassOutcome out;
  DeleteLog deletes;

  // Times a public maintenance call, with its own span when traced.
  auto maintenance = [&](bool measured, uint64_t request, const char* name,
                         Dist* ms, auto&& call) {
    int64_t t0 = log->Now();
    Status status = call();
    int64_t t1 = log->Now();
    if (!status.ok()) {
      failures->Record(std::string(name) + ": " + status.ToString());
    }
    if (traced && measured) {
      log->Add(request, -1, name, t0, t1);
      ms->Add(static_cast<double>(t1 - t0) / 1e6);
    }
  };

  for (size_t i = 0; i < operations; ++i) {
    const bool measured = i >= warmup;
    const uint64_t request = i + 1;
    if (i == warmup) {
      out.before = target.Counters();
      if (target.router) out.router_before = target.router->router_counters();
    }
    ++out.attempted;
    if (spec.live && i % kTracedWriteEvery == kTracedWriteEvery - 1) {
      Writer::Op op = writer->Next();
      if (op.uri.empty()) {
        failures->Record("live-ingest ran out of fresh documents");
        break;
      }
      int64_t t0 = log->Now();
      Status status = writer->Apply(*target.engine, op);
      int64_t t1 = log->Now();
      if (!status.ok()) {
        failures->Record((op.is_delete ? "delete " : "add ") + op.uri + ": " +
                         status.ToString());
        continue;
      }
      if (op.is_delete) deletes.Ack(op.uri, t1);
      if (traced && measured) {
        log->Add(request, -1,
                 op.is_delete ? "engine.delete_document"
                              : "engine.add_document",
                 t0, t1);
        (op.is_delete ? layers->delete_us : layers->add_us)
            .Add(static_cast<double>(t1 - t0) / 1e3);
      }
      if (!op.is_delete && ++adds_since_flush == kFlushEveryAdds) {
        adds_since_flush = 0;
        maintenance(measured, request, "engine.flush", &layers->flush_ms,
                    [&] { return target.engine->Flush(); });
        if (target.engine->update_counters().segment_count >=
            kCompactAtSegments) {
          maintenance(measured, request, "engine.compact_segments",
                      &layers->compact_ms,
                      [&] { return target.engine->CompactSegments(); });
          if (traced && measured) ++layers->compactions;
        }
      }
      continue;
    }

    const QueryOp& op = sequence[next_query++];
    const std::string& text = op.text;
    query::QueryOptions options;
    int64_t origin = log->Now();
    query::QueryTrace trace;
    if (traced) options.trace = &trace;
    std::vector<query::QueryStats> per_shard;
    int64_t t0 = log->Now();
    Result<core::EngineResponse> response =
        target.Query(text, options, &per_shard);
    int64_t t1 = log->Now();
    if (!CheckQuery(response, text, t0, spec.live ? &deletes : nullptr,
                    failures)) {
      out.answers.emplace_back();
      continue;
    }
    out.answers.push_back(AnswerOf(*response));
    if (traced && refs != nullptr) {
      Remember(spec, args.seed, op, out.answers.back(), refs, failures);
    }
    if (!measured) continue;
    const double wall_us = static_cast<double>(t1 - t0) / 1e3;
    out.query_wall_us += wall_us;
    if (!traced) continue;

    int32_t root = log->Add(request, -1,
                            spec.sharded ? "router.query" : "engine.query", t0,
                            t1);
    log->Import(request, root, trace, origin);
    TraceSummary summary = Summarize(trace);
    const query::QueryStats& stats = response->stats;
    ++layers->queries;
    layers->wall_us += wall_us;
    const double unattributed =
        std::max(0.0, wall_us - static_cast<double>(summary.covered_us));
    layers->unattributed_us += unattributed;
    if (stats.result_cache_hit) {
      ++layers->hits;
      layers->hit_us.Add(wall_us);
      continue;
    }
    ++layers->misses;
    for (const auto& [name, us] : summary.self_us) {
      if (name.rfind("shard[", 0) == 0) continue;
      layers->self_us[name].Add(static_cast<double>(us));
    }
    layers->postings += stats.postings_scanned;
    layers->results += response->results.size();
    layers->pruned += stats.blocks_pruned;
    layers->skipped += stats.docs_skipped;
    layers->pivots += stats.pivot_advances;
    layers->probes += stats.btree_probes;
    layers->switched += stats.switched_to_dil ? 1 : 0;
    layers->sequential += stats.sequential_reads;
    layers->random += stats.random_reads;
    layers->io_cost += stats.io_cost;
    if (target.router) {
      for (const query::QueryStats& shard : per_shard) {
        ++layers->labelled;
        if (!shard.algorithm.empty()) ++layers->algorithms[shard.algorithm];
      }
      if (!summary.shard_us.empty()) {
        double max = 0, sum = 0;
        for (int64_t us : summary.shard_us) {
          max = std::max(max, static_cast<double>(us));
          sum += static_cast<double>(us);
        }
        layers->shard_max_us.Add(max);
        layers->gather_us.Add(std::max(0.0, wall_us - max));
        double mean = sum / static_cast<double>(summary.shard_us.size());
        if (mean > 0) layers->shard_skew.Add(max / mean);
      }
    } else {
      ++layers->labelled;
      if (!stats.algorithm.empty()) ++layers->algorithms[stats.algorithm];
    }
    if (std::count(text.begin(), text.end(), ' ') == 1) {
      ++layers->two_kw;
      layers->two_kw_wall_us += wall_us;
      layers->two_kw_unattributed_us += unattributed;
      for (const auto& [name, us] : summary.self_us) {
        layers->two_kw_self_us[name] += static_cast<double>(us);
      }
    }
  }
  out.after = target.Counters();
  if (target.router) out.router_after = target.router->router_counters();
  return out;
}

std::string BreakdownJson(const Layers& layers) {
  double n = static_cast<double>(std::max<uint64_t>(1, layers.two_kw));
  double wall = layers.two_kw_wall_us / n;
  std::string out = "{\"queries\": " + std::to_string(layers.two_kw) +
                    ", \"mean_wall_us\": " + JsonNumber(wall) +
                    ", \"self_us\": {";
  bool first = true;
  auto entry = [&](const std::string& name, double total) {
    double mean = total / n;
    out += std::string(first ? "" : ", ") + "\"" + name +
           "\": {\"mean\": " + JsonNumber(mean) +
           ", \"share\": " + JsonNumber(Ratio(mean, wall)) + "}";
    first = false;
  };
  for (const auto& [name, total] : layers.two_kw_self_us) entry(name, total);
  entry("unattributed", layers.two_kw_unattributed_us);
  return out + "}}";
}

Report TracedReport(const Layers& l, const PassOutcome& untraced,
                    const PassOutcome& traced, const SetupStages& stages,
                    double setup_s, const index::IndexStats& index_stats) {
  Report r;
  auto self = [&](const std::string& name) -> const Dist& {
    static const Dist kEmpty;
    auto it = l.self_us.find(name);
    return it == l.self_us.end() ? kEmpty : it->second;
  };
  const double misses = static_cast<double>(l.misses);
  auto per_miss = [&](double v) { return Ratio(v, misses); };
  const auto& a = traced.before;
  const auto& b = traced.after;

  // core
  r.Add("core.result_cache_hit_ratio", "ratio",
        Ratio(static_cast<double>(l.hits), static_cast<double>(l.queries)),
        l.queries);
  r.Add("core.cache_hit_p50_us", "us", l.hit_us.Quantile(0.5), l.hit_us.n());
  r.Add("core.decorate_p50_us", "us", self("decorate").Quantile(0.5),
        self("decorate").n());
  r.Add("core.unattributed_share", "ratio", Ratio(l.unattributed_us, l.wall_us),
        l.queries);
  r.Add("core.trace_overhead_share", "ratio",
        Ratio(traced.query_wall_us - untraced.query_wall_us,
              traced.query_wall_us),
        l.queries);
  r.Add("core.segments_p50_us", "us", self("segments").Quantile(0.5),
        self("segments").n());
  r.Add("core.segments_p95_us", "us", self("segments").Quantile(0.95),
        self("segments").n());
  r.Add("core.add_p50_us", "us", l.add_us.Quantile(0.5), l.add_us.n());
  r.Add("core.delete_p50_us", "us", l.delete_us.Quantile(0.5), l.delete_us.n());
  r.Add("core.flush_ms", "ms", l.flush_ms.Quantile(0.5), l.flush_ms.n());
  r.Add("core.compact_ms", "ms", l.compact_ms.Quantile(0.5), l.compact_ms.n());
  r.Add("core.compactions", "count", static_cast<double>(l.compactions),
        l.compactions);
  r.Add("core.router.shard_max_p50_us", "us", l.shard_max_us.Quantile(0.5),
        l.shard_max_us.n());
  r.Add("core.router.gather_p50_us", "us", l.gather_us.Quantile(0.5),
        l.gather_us.n());
  r.Add("core.router.shard_skew", "ratio", l.shard_skew.Quantile(0.5),
        l.shard_skew.n());
  r.Add("core.router.theta_raises_per_query", "count",
        Ratio(static_cast<double>(traced.router_after.theta_raises -
                                  traced.router_before.theta_raises),
              static_cast<double>(l.queries)),
        l.queries);
  const double staged = stages.parse_s + stages.graph_s + stages.elemrank_s +
                        stages.extract_s + stages.build_s;
  r.Add("core.build_other_s", "s", setup_s - staged, kSetups);

  // query (result-cache misses only)
  r.Add("query.lexicon_p50_us", "us", self("lexicon").Quantile(0.5),
        self("lexicon").n());
  r.Add("query.cursor_open_p50_us", "us", self("cursor_open").Quantile(0.5),
        self("cursor_open").n());
  r.Add("query.rank_p50_us", "us", self("rank").Quantile(0.5),
        self("rank").n());
  r.Add("query.dil_fallback_p50_us", "us", self("dil_fallback").Quantile(0.5),
        self("dil_fallback").n());
  r.Add("query.merge_p50_us", "us", self("merge").Quantile(0.5),
        self("merge").n());
  r.Add("query.merge_p95_us", "us", self("merge").Quantile(0.95),
        self("merge").n());
  r.Add("query.hdil_switch_ratio", "ratio",
        per_miss(static_cast<double>(l.switched)), l.misses);
  r.Add("query.btree_probes_per_query", "count",
        per_miss(static_cast<double>(l.probes)), l.misses);
  r.Add("query.postings_per_query", "count",
        per_miss(static_cast<double>(l.postings)), l.misses);
  r.Add("query.postings_per_result", "count",
        Ratio(static_cast<double>(l.postings), static_cast<double>(l.results)),
        l.results);
  r.Add("query.blocks_pruned_per_query", "count",
        per_miss(static_cast<double>(l.pruned)), l.misses);
  r.Add("query.docs_skipped_per_query", "count",
        per_miss(static_cast<double>(l.skipped)), l.misses);
  r.Add("query.pivot_advances_per_query", "count",
        per_miss(static_cast<double>(l.pivots)), l.misses);
  for (const char* name : {"daat", "exhaustive", "maxscore", "wand", "bmw"}) {
    auto it = l.algorithms.find(name);
    double count =
        it == l.algorithms.end() ? 0.0 : static_cast<double>(it->second);
    r.Add(std::string("query.algorithm_share.") + name, "ratio",
          Ratio(count, static_cast<double>(l.labelled)), l.labelled);
  }

  // storage
  const double pool_hits = static_cast<double>(b.pool_hits - a.pool_hits);
  const double pool_misses = static_cast<double>(b.pool_misses - a.pool_misses);
  r.Add("storage.pool_hit_ratio", "ratio",
        Ratio(pool_hits, pool_hits + pool_misses),
        static_cast<size_t>(pool_hits + pool_misses));
  r.Add("storage.page_reads_per_query", "count",
        per_miss(static_cast<double>(l.sequential + l.random)), l.misses);
  r.Add("storage.random_read_share", "ratio",
        Ratio(static_cast<double>(l.random),
              static_cast<double>(l.sequential + l.random)),
        l.sequential + l.random);
  r.Add("storage.io_cost_per_query", "count", per_miss(l.io_cost), l.misses);

  // index
  const double block_hits =
      static_cast<double>(b.block_cache_hits - a.block_cache_hits);
  const double block_lookups =
      static_cast<double>(b.block_cache_lookups - a.block_cache_lookups);
  r.Add("index.block_cache_hit_ratio", "ratio",
        Ratio(block_hits, block_lookups), static_cast<size_t>(block_lookups));
  r.Add("index.list_used_mib", "MiB",
        static_cast<double>(index_stats.list_used_bytes) / (1 << 20), 1);
  r.Add("index.list_pages", "count",
        static_cast<double>(index_stats.list_pages), 1);
  r.Add("index.extract_s", "s", stages.extract_s, 1);
  r.Add("index.build_s", "s", stages.build_s, 1);

  // rank, graph, xml
  r.Add("rank.elemrank_s", "s", stages.elemrank_s, 1);
  r.Add("rank.iterations", "count", stages.iterations, 1);
  r.Add("graph.build_s", "s", stages.graph_s, 1);
  r.Add("xml.parse_s", "s", stages.parse_s, 1);
  r.Add("xml.parse_us_per_doc", "us",
        Ratio(stages.parse_s * 1e6, static_cast<double>(stages.documents)),
        stages.documents);

  r.Extra("traced_queries", "count", static_cast<double>(l.queries), l.queries);
  r.Extra("query.merge_p99_us", "us", self("merge").Quantile(0.99),
          self("merge").n());
  r.Extra("query.merge_max_us", "us", self("merge").Quantile(1.0),
          self("merge").n());
  r.breakdown_json = BreakdownJson(l);
  return r;
}

// ---------------------------------------------------------------------------

std::string HeaderJson(const Args& args) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seconds\": %s, \"trace\": %d, \"tiny\": %s, "
                "\"nproc\": %zu, \"build_type\": \"%s\"}",
                args.spec->name, args.seed, JsonNumber(args.seconds).c_str(),
                args.trace ? 1 : 0, args.tiny ? "true" : "false", Cores(),
                XRANK_E2E_BUILD_TYPE);
  return buffer;
}

// Removes the run's scratch directory on every exit path.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const WorkloadSpec& spec = *args.spec;

  ScratchDir scratch{args.tmp_dir + "/" + spec.name + "-" +
                     std::to_string(args.seed) + "-" +
                     std::to_string(static_cast<long>(getpid()))};

  // Traced operations: a calibrated count, so the two passes together take
  // about --seconds and the deterministic counters repeat exactly.
  const size_t traced_operations = std::max<size_t>(
      40, static_cast<size_t>(spec.traced_ops_per_second * args.seconds / 2));
  size_t fresh = 0;
  if (spec.live) {
    double writes =
        args.trace
            ? static_cast<double>(traced_operations) / kTracedWriteEvery
            : kWriterOpsPerSecond * (args.seconds * 3 + 30);
    fresh = static_cast<size_t>(writes) + 256;
  }
  const Clock::time_point begun = Clock::now();
  auto phase = [&](const char* name) {
    std::fprintf(stderr, "[%8.3f s] %s\n",
                 std::chrono::duration<double>(Clock::now() - begun).count(),
                 name);
  };
  Corpus corpus = MakeCorpus(spec, args.seed, args.tiny, fresh);
  phase("corpus generated");

  // Set-up runs kSetups times, and setup_s is the median. The load run
  // serves the first engine and sets up the others after it, so that its
  // peak RSS is that of one set-up. The traced run keeps the last engine
  // (live-ingest the last two, one per pass, since writes change the index).
  // The host probe runs before and after each set-up, which is also
  // expressed at the reference host speed.
  HostProbe probe;
  Dist setup_raw_s, setup_s;
  double stored_bytes = 0;
  auto set_up = [&](int k) -> Result<Target> {
    double seconds = 0;
    const double probe_before_ms = probe.RunMs();
    XRANK_ASSIGN_OR_RETURN(
        Target target,
        SetUp(spec, corpus, scratch.path + "/setup-" + std::to_string(k),
              /*inline_maintenance=*/args.trace, &seconds));
    const double probe_ms = (probe_before_ms + probe.RunMs()) / 2;
    setup_raw_s.Add(seconds);
    setup_s.Add(seconds * kReferenceProbeMs / probe_ms);
    if (k == 0) stored_bytes = StoredBytes(target);
    phase("set up");
    return target;
  };
  auto set_up_failed = [](const Status& status) {
    std::fprintf(stderr, "error: set-up failed: %s\n",
                 status.ToString().c_str());
    return 2;
  };

  Failures failures;
  Report report;
  uint64_t attempted = 0;
  if (!args.trace) {
    LoadOutcome load;
    {
      Result<Target> target = set_up(0);
      if (!target.ok()) return set_up_failed(target.status());
      load = RunLoad(args, corpus, *target, &probe, &failures);
      phase("load run and reference checks");
    }
    for (int k = 1; k < kSetups; ++k) {
      Result<Target> timed_only = set_up(k);
      if (!timed_only.ok()) return set_up_failed(timed_only.status());
    }
    attempted = load.attempted;
    // Timings at the reference host speed (host_probe.h).
    const double probe_ms = load.probe_ms.Quantile(0.5);
    const double to_reference = Ratio(kReferenceProbeMs, probe_ms);
    const size_t positions = load.query_us.n();
    report.Add("query_p50_us", "us", load.query_us.Quantile(0.5) * to_reference,
               positions);
    report.Add("query_p95_us", "us",
               load.query_us.Quantile(0.95) * to_reference, positions);
    // The one closed-loop client's rate, every query at its median latency.
    const double raw_qps =
        Ratio(static_cast<double>(positions) * 1e6, load.median_sum_us);
    report.Add("qps", "1/s", Ratio(raw_qps, to_reference), positions);
    report.Add("setup_s", "s", setup_s.Quantile(0.5), setup_s.n());
    report.Add("peak_rss_mib", "MiB", load.peak_rss_mib, 1);
    report.Add("stored_bytes_per_input_byte", "ratio",
               Ratio(stored_bytes, static_cast<double>(corpus.bytes)), 1);
    report.Extra("host_probe_ms", "ms", probe_ms, load.probe_ms.n());
    report.AddTiming("raw_query", load.query_us, /*gated=*/false);
    report.Extra("raw_qps", "1/s", raw_qps, positions);
    report.Extra("raw_setup_s", "s", setup_raw_s.Quantile(0.5),
                 setup_raw_s.n());
    report.Extra("input_mib", "MiB",
                 static_cast<double>(corpus.bytes) / (1 << 20),
                 corpus.documents.size());
    report.Extra("stored_mib", "MiB", stored_bytes / (1 << 20), 1);
    report.Extra("rounds", "count", static_cast<double>(load.rounds),
                 load.rounds);
    report.Extra("wall_qps", "1/s",
                 Ratio(static_cast<double>(load.executions), load.measured_s),
                 load.executions);
    report.Extra("result_cache_hit_ratio", "ratio",
                 Ratio(static_cast<double>(load.cache_hits),
                       static_cast<double>(load.executions)),
                 load.executions);
    const auto& a = load.before;
    const auto& b = load.after;
    double pool = static_cast<double>(b.pool_hits + b.pool_misses -
                                      a.pool_hits - a.pool_misses);
    report.Extra("pool_hit_ratio", "ratio",
                 Ratio(static_cast<double>(b.pool_hits - a.pool_hits), pool),
                 static_cast<size_t>(pool));
    double blocks =
        static_cast<double>(b.block_cache_lookups - a.block_cache_lookups);
    report.Extra("block_cache_hit_ratio", "ratio",
                 Ratio(static_cast<double>(b.block_cache_hits -
                                           a.block_cache_hits),
                       blocks),
                 static_cast<size_t>(blocks));
    report.Extra("reference_checks", "count",
                 static_cast<double>(load.references), load.references);
    if (spec.live) {
      report.AddTiming("write", load.write_us, false);
      report.AddTiming("add", load.add_us, false);
      report.AddTiming("delete", load.delete_us, false);
      report.AddTiming("writer_lag", load.lag_us, false);
      const auto& u0 = load.updates_before;
      const auto& u1 = load.updates_after;
      report.Extra("flushes", "count",
                   static_cast<double>(u1.flushes - u0.flushes), 1);
      report.Extra("compactions", "count",
                   static_cast<double>(u1.compactions - u0.compactions), 1);
      report.Extra("backpressure_waits", "count",
                   static_cast<double>(u1.backpressure_waits -
                                       u0.backpressure_waits),
                   1);
    }
  } else {
    const size_t keep = spec.live ? 2 : 1;
    std::vector<Target> targets;
    for (int k = 0; k < kSetups; ++k) {
      if (targets.size() == keep) targets.erase(targets.begin());
      Result<Target> target = set_up(k);
      if (!target.ok()) return set_up_failed(target.status());
      targets.push_back(std::move(target).value());
    }
    Target& target = targets.back();

    SpanLog log;
    Result<SetupStages> stages = RetimeSetup(spec, corpus, &log);
    if (!stages.ok()) {
      std::fprintf(stderr, "error: staged set-up failed: %s\n",
                   stages.status().ToString().c_str());
      return 2;
    }
    index::IndexStats index_stats = target.IndexStats();
    Target& first = spec.live ? targets.front() : target;
    Layers unused;
    SpanLog untraced_log;
    PassOutcome untraced = RunPass(args, corpus, first, traced_operations,
                                   false, &unused, &untraced_log, nullptr,
                                   &failures);
    if (!spec.live) target.DropCaches();
    Layers layers;
    ReferenceSet refs;
    PassOutcome traced = RunPass(args, corpus, target, traced_operations, true,
                                 &layers, &log, &refs, &failures);
    attempted = untraced.attempted + traced.attempted;
    if (untraced.answers.size() != traced.answers.size()) {
      failures.Record("the two passes ran different operation counts");
    } else {
      for (size_t i = 0; i < traced.answers.size(); ++i) {
        if (!SameAnswer(untraced.answers[i], traced.answers[i], 0.0)) {
          failures.Record("query " + std::to_string(i) +
                          " answered differently traced and untraced");
        }
      }
    }
    uint64_t references =
        CheckReferences(spec, args.seed, target, refs, Cores(), &failures);
    report = TracedReport(layers, untraced, traced, *stages,
                          setup_raw_s.Quantile(0.5), index_stats);
    report.Extra("reference_checks", "count", static_cast<double>(references),
                 references);
    if (!args.spans_path.empty() &&
        !log.WriteJson(args.spans_path, HeaderJson(args))) {
      std::fprintf(stderr, "error: cannot write %s\n", args.spans_path.c_str());
      return 2;
    }
  }

  phase("measured");
  const uint64_t failed = failures.count();
  const bool correct = failed == 0;
  failures.Print();

  std::printf("bench_e2e %s seed=%" PRIu64 " %s nproc=%zu build=%s\n",
              spec.name, args.seed, args.trace ? "traced" : "load", Cores(),
              XRANK_E2E_BUILD_TYPE);
  for (const auto* list : {&report.metrics, &report.extras}) {
    for (const Metric& m : *list) {
      std::printf("  %-36s %14.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  }
  std::printf("  attempted=%" PRIu64 " failed=%" PRIu64 " correct=%s\n",
              attempted, failed, correct ? "true" : "false");

  if (!args.report_path.empty()) {
    std::ofstream out(args.report_path);
    out << "{\"header\": " << HeaderJson(args)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": " << MetricsJson(report.metrics, true)
        << ", \"extras\": " << MetricsJson(report.extras, true);
    if (!report.breakdown_json.empty()) {
      out << ", \"uncached_2kw_breakdown\": " << report.breakdown_json;
    }
    out << "}\n";
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   args.report_path.c_str());
      return 2;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              MetricsJson(report.metrics, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace xrank::e2e

int main(int argc, char** argv) { return xrank::e2e::Main(argc, argv); }

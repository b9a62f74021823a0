#ifndef XRANK_BENCH_E2E_WORKLOADS_H_
#define XRANK_BENCH_E2E_WORKLOADS_H_

// The four bench_e2e workloads: what each one ingests, how it is served, and
// the query stream its client draws from. Everything here is a pure function
// of the workload and the --seed, so two runs with one seed see the same
// corpus and the same operation stream. README.md says why each workload
// exists and which layers it exercises or bypasses.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "core/shard_router.h"

namespace xrank::e2e {

struct WorkloadSpec {
  const char* name;
  bool xmark;        // XMark corpus (else DBLP)
  bool sharded;      // served by a ShardRouter (else one XRankEngine)
  bool live;         // an open-loop writer runs beside the readers
  bool disk_backed;  // indexes committed under a temp directory
  bool result_cache;  // the engine's result cache is on
  index::IndexKind kind;
  // Length of the load run's query sequence at full size. The client runs
  // the sequence in whole rounds (bench_e2e.cc, RunLoad); the count is
  // calibrated so one round takes 2 to 3 s on a 4-core x86-64 host.
  size_t load_queries;
  // Operations per second the traced client completes on this workload at
  // full size; sizes the fixed operation count of the traced run so it
  // takes about --seconds.
  double traced_ops_per_second;
};

// Null for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);
std::string WorkloadNames();  // comma-separated, for usage messages

constexpr size_t kTopM = 10;
// The live-ingest writer's schedule: one operation every 25 ms, of which
// this share are deletes.
constexpr double kWriterOpsPerSecond = 40.0;
constexpr double kDeleteShare = 0.10;

struct XmlDocument {
  std::string uri;
  std::string text;
};

struct Corpus {
  std::vector<XmlDocument> documents;  // the base corpus, serialized
  uint64_t bytes = 0;                  // sum of documents' text sizes
  // xmark: the distinct queries the Zipf stream draws from.
  std::vector<std::string> query_pool;
  // dblp: query terms are vocabulary ranks drawn log-uniformly from
  // [stop_words, vocabulary_size).
  size_t vocabulary_size = 0;
  size_t stop_words = 0;
  // live-ingest: fresh documents for the writer, generated from seed + 1.
  std::vector<XmlDocument> fresh;
};

// `fresh_documents` is only used by the live workload.
Corpus MakeCorpus(const WorkloadSpec& spec, uint64_t seed, bool tiny,
                  size_t fresh_documents);

struct QueryOp {
  // xmark: the query's index in corpus.query_pool, so repeats share it.
  // dblp: the query's position in the sequence; every query is new.
  size_t id = 0;
  std::string text;
};

// The client's `n` queries: the same for the same seed and n.
std::vector<QueryOp> QuerySequence(const WorkloadSpec& spec,
                                   const Corpus& corpus, uint64_t seed,
                                   size_t n);

core::EngineOptions EngineOptionsFor(const WorkloadSpec& spec,
                                     const std::string& disk_dir,
                                     bool inline_maintenance);
core::ShardRouterOptions RouterOptionsFor(const WorkloadSpec& spec,
                                          const std::string& root_dir);

}  // namespace xrank::e2e

#endif  // XRANK_BENCH_E2E_WORKLOADS_H_

// Thread-scaling benchmark for the parallel execution layer: ElemRank
// power iteration, posting extraction, physical index construction
// (each the best of three rounds that interleave 1/2/4/8 threads),
// concurrent query serving (at 1/2/4/8 clients), and document-sharded
// serving through the shard router at 1/2/4/8/16 shards over a Zipf-skewed
// corpus. The parallel paths are deterministic — ElemRank results, index
// bytes, and sharded top-k answers are identical for every thread/shard
// count — so this harness measures pure wall-clock scaling.
//
// `--sharding-only` runs just the sharded section (the CI sharding lane's
// perf gate uses it; see tools/check_sharding.sh).
//
// Note: speedups only materialize on multi-core hosts; on a single
// hardware thread every configuration degenerates to sequential work plus
// scheduling overhead.

#include <algorithm>
#include <array>
#include <atomic>
#include <iterator>
#include <limits>
#include <thread>

#include "bench_util.h"
#include "common/timer.h"
#include "core/shard_router.h"
#include "graph/builder.h"
#include "index/dil_index.h"
#include "index/hdil_index.h"
#include "rank/elem_rank.h"

namespace xrank::bench {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

graph::XmlGraph BuildGraph(const std::vector<xml::Document>& docs) {
  graph::GraphBuilder builder;
  for (const xml::Document& doc : docs) {
    Status status = builder.AddDocument(doc);
    if (!status.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", status.ToString().c_str());
      std::abort();
    }
  }
  auto graph = std::move(builder).Finalize();
  if (!graph.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", graph.status().ToString().c_str());
    std::abort();
  }
  return std::move(graph).value();
}

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  WallTimer timer;
  fn();
  return timer.ElapsedSeconds();
}

constexpr size_t kNumThreadCounts = std::size(kThreadCounts);
// Timed rounds per thread count; each count reports its best.
constexpr int kRounds = 3;

// Per thread count, the best time of each of `kStages` stages over kRounds
// rounds. `run(threads)` runs once and returns its stage times. The rounds
// interleave the counts (1, 2, 4, 8, 1, 2, ...), so no count always runs
// first, on a cold heap and cache.
template <size_t kStages, typename Run>
std::array<std::array<double, kStages>, kNumThreadCounts> BestOfRounds(
    Run&& run) {
  std::array<std::array<double, kStages>, kNumThreadCounts> best;
  for (auto& stages : best) stages.fill(std::numeric_limits<double>::max());
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < kNumThreadCounts; ++i) {
      std::array<double, kStages> seconds = run(kThreadCounts[i]);
      for (size_t stage = 0; stage < kStages; ++stage) {
        best[i][stage] = std::min(best[i][stage], seconds[stage]);
      }
    }
  }
  return best;
}

// Prints and records one stage's best time and speedup over one thread per
// thread count, under "<prefix>/threads=N/{seconds,speedup}".
template <size_t kStages>
void ReportStage(
    const std::string& prefix,
    const std::array<std::array<double, kStages>, kNumThreadCounts>& best,
    size_t stage, JsonReport* report) {
  const double base = best[0][stage];
  for (size_t i = 0; i < kNumThreadCounts; ++i) {
    const double seconds = best[i][stage];
    const double speedup = seconds > 0 ? base / seconds : 0.0;
    std::printf("  threads=%d: %7.3f s (speedup %.2fx)\n", kThreadCounts[i],
                seconds, speedup);
    std::string key = prefix + "/threads=" + std::to_string(kThreadCounts[i]);
    report->Add(key + "/seconds", seconds);
    report->Add(key + "/speedup", speedup);
  }
}

void RunElemRankScaling(const char* name, const graph::XmlGraph& graph,
                        JsonReport* report) {
  std::printf("\n%s ElemRank (n=%zu elements, best of %d rounds):\n", name,
              graph.element_count(), kRounds);
  auto best = BestOfRounds<1>([&](int threads) {
    rank::ElemRankOptions options;
    options.num_threads = threads;
    double seconds = TimeSeconds([&] {
      auto computed = rank::ComputeElemRank(graph, options);
      if (!computed.ok()) {
        std::fprintf(stderr, "FATAL: %s\n",
                     computed.status().ToString().c_str());
        std::abort();
      }
    });
    return std::array<double, 1>{seconds};
  });
  ReportStage(std::string(name) + "/elemrank", best, 0, report);
}

// Extraction and the DIL + HDIL build, timed apart: extraction is sharded by
// document, the build by term.
void RunBuildScaling(const char* name, const graph::XmlGraph& graph,
                     const std::vector<double>& ranks, JsonReport* report) {
  auto best = BestOfRounds<2>([&](int threads) {
    index::ExtractionOptions extraction;
    extraction.num_threads = threads;
    Result<index::ExtractionResult> extracted =
        Status::Internal("not extracted");
    double extract_s = TimeSeconds(
        [&] { extracted = index::ExtractPostings(graph, ranks, extraction); });
    if (!extracted.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   extracted.status().ToString().c_str());
      std::abort();
    }
    index::BuildOptions build;
    build.num_threads = threads;
    double build_s = TimeSeconds([&] {
      auto dil = index::BuildDilIndex(extracted->dewey_postings,
                                      storage::PageFile::CreateInMemory(),
                                      build);
      auto hdil = index::BuildHdilIndex(extracted->dewey_postings,
                                        storage::PageFile::CreateInMemory(),
                                        {}, build);
      if (!dil.ok() || !hdil.ok()) {
        std::fprintf(stderr, "FATAL: index build failed\n");
        std::abort();
      }
    });
    return std::array<double, 2>{extract_s, build_s};
  });
  std::printf("\n%s posting extraction (best of %d rounds):\n", name,
              kRounds);
  ReportStage(std::string(name) + "/extract", best, 0, report);
  std::printf("\n%s DIL + HDIL build (best of %d rounds):\n", name, kRounds);
  ReportStage(std::string(name) + "/build", best, 1, report);
}

// Each client walks its own disjoint slice of the query pool: the cold
// pass meets every query for the first time, so the result cache cannot
// shortcut it. (This layout replaces a methodology bug: the previous
// version cycled all clients through a pool of 8 distinct queries, so at
// clients>=2 nearly every query was a result-cache hit and the benchmark
// measured cache-lookup throughput, not query serving.) The warm pass then
// repeats the same slices to measure the cached fast path — the two are
// reported separately, and the scaling headline (throughput_x) uses cold.
void RunQueryScaling(const char* name, core::XRankEngine* engine,
                     const std::vector<std::vector<std::string>>& queries,
                     JsonReport* report) {
  constexpr size_t kQueriesPerThread = 32;
  std::printf("\n%s concurrent query serving (HDIL, %zu distinct queries, "
              "%zu per client; cold = first execution, warm = repeat):\n",
              name, queries.size(), kQueriesPerThread);
  double base_cold_qps = 0.0;
  for (int threads : kThreadCounts) {
    size_t total = static_cast<size_t>(threads) * kQueriesPerThread;
    if (total > queries.size()) {
      std::fprintf(stderr,
                   "FATAL: query pool (%zu) too small for %d clients\n",
                   queries.size(), threads);
      std::abort();
    }
    // Re-establish a cold baseline: earlier configurations warmed the
    // pool, block cache, and result cache with the same queries.
    engine->DropCaches();
    std::string prefix =
        std::string(name) + "/query/clients=" + std::to_string(threads);
    double cold_qps = 0.0;
    for (const char* phase : {"cold", "warm"}) {
      std::atomic<size_t> failures{0};
      core::XRankEngine::ServingCounters before =
          engine->serving_counters(index::IndexKind::kHdil);
      double seconds = TimeSeconds([&] {
        std::vector<std::thread> clients;
        clients.reserve(static_cast<size_t>(threads));
        for (int t = 0; t < threads; ++t) {
          clients.emplace_back([&, t] {
            size_t offset = static_cast<size_t>(t) * kQueriesPerThread;
            for (size_t q = 0; q < kQueriesPerThread; ++q) {
              auto response = engine->QueryKeywords(
                  queries[offset + q], 10, index::IndexKind::kHdil);
              if (!response.ok()) failures.fetch_add(1);
            }
          });
        }
        for (std::thread& client : clients) client.join();
      });
      if (failures.load() > 0) {
        std::fprintf(stderr, "FATAL: %zu concurrent queries failed\n",
                     failures.load());
        std::abort();
      }
      core::XRankEngine::ServingCounters after =
          engine->serving_counters(index::IndexKind::kHdil);
      uint64_t pool_hits = after.pool_hits - before.pool_hits;
      uint64_t pool_misses = after.pool_misses - before.pool_misses;
      uint64_t cache_hits =
          after.result_cache_hits - before.result_cache_hits;
      uint64_t cache_lookups =
          after.result_cache_lookups - before.result_cache_lookups;
      uint64_t block_hits =
          after.block_cache_hits - before.block_cache_hits;
      uint64_t block_lookups =
          after.block_cache_lookups - before.block_cache_lookups;
      double pool_hit_rate =
          pool_hits + pool_misses > 0
              ? static_cast<double>(pool_hits) /
                    static_cast<double>(pool_hits + pool_misses)
              : 0.0;
      double cache_hit_rate =
          cache_lookups > 0 ? static_cast<double>(cache_hits) /
                                  static_cast<double>(cache_lookups)
                            : 0.0;
      double block_hit_rate =
          block_lookups > 0 ? static_cast<double>(block_hits) /
                                  static_cast<double>(block_lookups)
                            : 0.0;
      double qps = seconds > 0 ? static_cast<double>(total) / seconds : 0.0;
      if (phase[0] == 'c') cold_qps = qps;
      std::printf("  clients=%d %s: %8.1f QPS (%.3f s for %zu queries, "
                  "pool hit %.1f%%, result cache hit %.1f%%, block cache "
                  "hit %.1f%%)\n",
                  threads, phase, qps, seconds, total, 100.0 * pool_hit_rate,
                  100.0 * cache_hit_rate, 100.0 * block_hit_rate);
      report->Add(prefix + "/" + phase + "_qps", qps);
      report->Add(prefix + "/" + phase + "_pool_hit_rate", pool_hit_rate);
      report->Add(prefix + "/" + phase + "_result_cache_hit_rate",
                  cache_hit_rate);
      report->Add(prefix + "/" + phase + "_block_cache_hit_rate",
                  block_hit_rate);
    }
    if (threads == 1) base_cold_qps = cold_qps;
    double speedup = base_cold_qps > 0 ? cold_qps / base_cold_qps : 0.0;
    std::printf("  clients=%d: cold throughput %.2fx vs 1 client\n", threads,
                speedup);
    report->Add(prefix + "/throughput_x", speedup);
  }
}

// Corpus for the sharded-serving benchmark: per-document body size follows
// a Zipf-like 1/(rank+1) curve, with ranks interleaved across the doc-id
// space so every contiguous shard range draws the same skewed mix — the
// imbalance lives *inside* each shard's postings (long vs. short lists),
// which is what the forwarded θ prunes.
std::vector<xml::Document> MakeSkewedShardCorpus(size_t num_docs,
                                                 size_t max_sections) {
  std::vector<xml::Document> docs;
  docs.reserve(num_docs);
  for (size_t i = 0; i < num_docs; ++i) {
    size_t rank = i % 16;
    size_t sections = std::max<size_t>(1, max_sections / (rank + 1));
    std::string text = "<paper><title>alpha beta gamma</title>";
    for (size_t s = 0; s < sections; ++s) {
      text += "<sec><p>alpha beta filler" +
              std::to_string((i * 131 + s) % 97) + "</p></sec>";
    }
    text += "</paper>";
    auto parsed = xml::ParseDocument(
        text, "skew-" + std::to_string(i) + ".xml");
    if (!parsed.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   parsed.status().ToString().c_str());
      std::abort();
    }
    docs.push_back(std::move(parsed).value());
  }
  return docs;
}

// Document-sharded serving: the same corpus and query pool at every shard
// count, scatter-gather through the router (parallel scatter, θ forwarded
// between shards). Answers are bitwise-identical across shard counts; the
// benchmark reports throughput, per-shard-count speedup vs. the one-shard
// fleet, and how often the shared θ floor was raised.
void RunShardScaling(JsonReport* report) {
  constexpr size_t kShardCounts[] = {1, 2, 4, 8, 16};
  constexpr size_t kRounds = 4;
  const size_t num_docs =
      std::max<size_t>(64, static_cast<size_t>(256 * BenchScale()));

  std::vector<std::vector<std::string>> queries;
  queries.push_back({"alpha", "beta"});
  queries.push_back({"alpha", "gamma"});
  for (int k = 0; k < 14; ++k) {
    queries.push_back({"alpha", "filler" + std::to_string(k * 7)});
  }

  std::printf("\nsharded scatter-gather serving (DIL, disjunctive, "
              "%zu Zipf-skewed documents, %zu queries x %zu rounds):\n",
              num_docs, queries.size(), kRounds);
  double base_qps = 0.0;
  for (size_t shards : kShardCounts) {
    core::ShardRouterOptions options;
    options.num_shards = shards;
    options.engine.indexes = {index::IndexKind::kDil};
    options.engine.scoring.semantics = query::QuerySemantics::kDisjunctive;
    auto router =
        core::ShardRouter::Build(MakeSkewedShardCorpus(num_docs, 48),
                                 options);
    if (!router.ok()) {
      std::fprintf(stderr, "FATAL: sharded build failed: %s\n",
                   router.status().ToString().c_str());
      std::abort();
    }
    size_t total = queries.size() * kRounds;
    double seconds = TimeSeconds([&] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (const auto& keywords : queries) {
          auto response = (*router)->QueryKeywords(keywords, 10,
                                                   index::IndexKind::kDil);
          if (!response.ok()) {
            std::fprintf(stderr, "FATAL: sharded query failed: %s\n",
                         response.status().ToString().c_str());
            std::abort();
          }
        }
      }
    });
    double qps = seconds > 0 ? static_cast<double>(total) / seconds : 0.0;
    if (shards == 1) base_qps = qps;
    double speedup = base_qps > 0 ? qps / base_qps : 0.0;
    auto counters = (*router)->router_counters();
    std::printf("  shards=%-2zu: %8.1f QPS (%.3f s for %zu queries, "
                "speedup %.2fx, %llu theta raises)\n",
                shards, qps, seconds, total, speedup,
                static_cast<unsigned long long>(counters.theta_raises));
    std::string prefix = "sharded/shards=" + std::to_string(shards);
    report->Add(prefix + "/qps", qps);
    report->Add(prefix + "/throughput_x", speedup);
    report->Add(prefix + "/theta_raises",
                static_cast<double>(counters.theta_raises));
  }
}

}  // namespace
}  // namespace xrank::bench

int main(int argc, char** argv) {
  using namespace xrank;
  using namespace xrank::bench;

  JsonReport report("bench_scaling");
  argc = report.ParseFlag(argc, argv);
  bool sharding_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--sharding-only") sharding_only = true;
  }

  std::printf("=== Thread scaling: ElemRank / index build / query serving "
              "/ sharded serving ===\n");
  std::printf("hardware threads available: %u\n",
              std::thread::hardware_concurrency());
  report.Add("hardware_threads", std::thread::hardware_concurrency());

  if (sharding_only) {
    RunShardScaling(&report);
    report.SetRegistrySnapshot(
        metrics::RenderJson(metrics::Registry::Instance().Snapshot()));
    return report.Write() ? 0 : 1;
  }

  // The serving benchmark needs a large pool of *distinct* queries: with
  // the default 8 planted quadruple sets the pool collapses to 8 queries
  // regardless of WorkloadOptions::num_queries. 64 sets x {high,low}
  // correlation x {2,3} keywords = 256 distinct queries, enough for 8
  // clients x 32 disjoint queries each.
  auto dblp_options = BenchDblpOptions();
  dblp_options.planted_sets = 64;
  auto xmark_options = BenchXMarkOptions();
  xmark_options.planted_sets = 64;

  struct Dataset {
    const char* name;
    datagen::Corpus corpus;
  };
  Dataset datasets[] = {
      {"dblp", datagen::GenerateDblp(dblp_options)},
      {"xmark", datagen::GenerateXMark(xmark_options)},
  };

  for (Dataset& dataset : datasets) {
    std::vector<xml::Document> docs = Reparse(&dataset.corpus);
    graph::XmlGraph graph = BuildGraph(docs);

    RunElemRankScaling(dataset.name, graph, &report);

    rank::ElemRankOptions rank_options;
    auto ranks = rank::ComputeElemRank(graph, rank_options);
    if (!ranks.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", ranks.status().ToString().c_str());
      std::abort();
    }
    RunBuildScaling(dataset.name, graph, ranks->ranks, &report);

    std::vector<std::vector<std::string>> queries;
    for (auto mode :
         {datagen::CorrelationMode::kHigh, datagen::CorrelationMode::kLow}) {
      for (size_t keywords : {2u, 3u}) {
        datagen::WorkloadOptions workload;
        workload.num_queries = 64;  // == planted_sets: each quad once
        workload.num_keywords = keywords;
        workload.mode = mode;
        workload.seed =
            keywords * 7 + (mode == datagen::CorrelationMode::kHigh ? 1 : 2);
        auto batch = datagen::MakeQueries(dataset.corpus.planted, workload);
        queries.insert(queries.end(), batch.begin(), batch.end());
      }
    }
    // The serving benchmark measures the production fast path: warm
    // buffer pool and block cache (cold_cache_per_query off; RunQueryScaling
    // re-colds explicitly between configurations) plus the result cache.
    // The figure benches keep all of that off via BuildEngine's defaults.
    core::EngineOptions serving_options;
    serving_options.cold_cache_per_query = false;
    auto engine =
        BuildEngine(std::move(docs), {index::IndexKind::kHdil},
                    serving_options, /*result_cache_entries=*/1024);
    RunQueryScaling(dataset.name, engine.get(), queries, &report);
    PrintRule();
  }

  RunShardScaling(&report);
  PrintRule();

  report.SetRegistrySnapshot(
      metrics::RenderJson(metrics::Registry::Instance().Snapshot()));
  return report.Write() ? 0 : 1;
}

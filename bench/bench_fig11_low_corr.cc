// Reproduces Figure 11: query performance vs. number of keywords under LOW
// keyword correlation, for DIL / RDIL / HDIL (the naive approaches are
// dropped after Figure 10, as in the paper).
//
// Paper's shape: RDIL degrades badly beyond one keyword (its B+-tree
// probes keep failing, so the threshold never clears); DIL's sequential
// scans win; HDIL tracks DIL with a small overhead because it starts in
// RDIL mode and then switches.

#include "bench_util.h"
#include "common/string_util.h"

int main(int argc, char** argv) {
  using namespace xrank;
  using namespace xrank::bench;
  JsonReport report("fig11_low_corr");
  argc = report.ParseFlag(argc, argv);
  (void)argc;

  datagen::DblpOptions gen = BenchQueryPerfOptions();
  datagen::Corpus corpus = datagen::GenerateDblp(gen);
  auto engine = BuildEngine(Reparse(&corpus),
                            {index::IndexKind::kDil, index::IndexKind::kRdil,
                             index::IndexKind::kHdil});

  constexpr size_t kTopM = 10;
  constexpr size_t kQueriesPerPoint = 3;
  std::printf("=== Figure 11: query cost vs #keywords, LOW correlation "
              "(top-%zu, cold cache) ===\n", kTopM);
  std::printf("corpus: %zu docs, %zu elements\n\n",
              engine->graph().document_count(),
              engine->graph().element_count());
  std::printf("%-12s", "Approach");
  for (int k = 1; k <= 4; ++k) std::printf("   %d kw (cost)", k);
  std::printf("      wall ms (1..4 kw)   HDIL switches\n");
  PrintRule(110);

  const index::IndexKind kinds[] = {index::IndexKind::kDil,
                                    index::IndexKind::kRdil,
                                    index::IndexKind::kHdil};
  for (index::IndexKind kind : kinds) {
    std::string kind_name(index::IndexKindName(kind));
    std::printf("%-12s", kind_name.c_str());
    std::string wall;
    std::string switches;
    for (size_t keywords = 1; keywords <= 4; ++keywords) {
      datagen::WorkloadOptions workload;
      workload.num_queries = kQueriesPerPoint;
      workload.num_keywords = keywords;
      workload.mode = datagen::CorrelationMode::kLow;
      workload.seed = 200 + keywords;
      auto queries = datagen::MakeQueries(corpus.planted, workload);
      AveragedStats stats = RunQuerySet(engine.get(), queries, kTopM, kind);
      std::printf(" %12.1f", stats.io_cost);
      wall += StringPrintf(" %7.2f", stats.wall_ms);
      std::string prefix = kind_name + "/kw=" + std::to_string(keywords);
      report.Add(prefix + "/io_cost", stats.io_cost);
      if (kind == index::IndexKind::kHdil) {
        switches += StringPrintf(" %zu/%zu", stats.switched, stats.queries);
        report.Add(prefix + "/switched", static_cast<double>(stats.switched));
      }
      report.Add(prefix + "/wall_ms", stats.wall_ms);
    }
    std::printf("   %s   %s\n", wall.c_str(), switches.c_str());
  }
  PrintRule(110);
  std::printf(
      "\nExpected shape (paper Fig. 11): single-keyword queries favor the\n"
      "rank orders; with 2+ uncorrelated keywords RDIL pays for failed\n"
      "random probes while DIL's sequential scan wins; HDIL switches to DIL\n"
      "and tracks it with a small startup overhead.\n");
  return report.Write() ? 0 : 1;
}

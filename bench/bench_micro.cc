// Micro-benchmarks (google-benchmark) for the hot primitives underneath
// the paper's algorithms: Dewey codecs and comparisons, B+-tree probes,
// posting-list scans, tokenization, minimal-window computation, and the
// Dewey-stack merge.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "dewey/codec.h"
#include "index/analyzer.h"
#include "index/block_cache.h"
#include "index/codec.h"
#include "index/lexicon.h"
#include "index/posting.h"
#include "query/dewey_stack.h"
#include "query/dil_query.h"
#include "query/proximity.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/cost_model.h"
#include "storage/page_file.h"

namespace xrank {
namespace {

std::vector<dewey::DeweyId> MakeIds(size_t count, uint64_t seed) {
  Random rng(seed);
  std::vector<dewey::DeweyId> ids;
  ids.reserve(count);
  uint32_t doc = 0, a = 0, b = 0, c = 0;
  for (size_t i = 0; i < count; ++i) {
    c += 1 + static_cast<uint32_t>(rng.Uniform(3));
    if (c > 12) {
      c = 0;
      ++b;
    }
    if (b > 12) {
      b = 0;
      ++a;
    }
    if (a > 12) {
      a = 0;
      ++doc;
    }
    ids.push_back(dewey::DeweyId({doc, a, b, c}));
  }
  return ids;
}

void BM_DeweyEncode(benchmark::State& state) {
  auto ids = MakeIds(1024, 1);
  size_t i = 0;
  std::string buffer;
  for (auto _ : state) {
    buffer.clear();
    dewey::EncodeDeweyId(ids[i++ & 1023], &buffer);
    benchmark::DoNotOptimize(buffer);
  }
}
BENCHMARK(BM_DeweyEncode);

void BM_DeweyDecode(benchmark::State& state) {
  auto ids = MakeIds(1024, 2);
  std::vector<std::string> encoded;
  for (const auto& id : ids) {
    std::string buffer;
    dewey::EncodeDeweyId(id, &buffer);
    encoded.push_back(std::move(buffer));
  }
  size_t i = 0;
  for (auto _ : state) {
    size_t offset = 0;
    auto id = dewey::DecodeDeweyId(encoded[i++ & 1023], &offset);
    benchmark::DoNotOptimize(id);
  }
}
BENCHMARK(BM_DeweyDecode);

void BM_DeweyCompare(benchmark::State& state) {
  auto ids = MakeIds(1024, 3);
  size_t i = 0;
  for (auto _ : state) {
    bool less = ids[i & 1023] < ids[(i + 7) & 1023];
    benchmark::DoNotOptimize(less);
    ++i;
  }
}
BENCHMARK(BM_DeweyCompare);

void BM_CommonPrefixLength(benchmark::State& state) {
  auto ids = MakeIds(1024, 4);
  size_t i = 0;
  for (auto _ : state) {
    size_t cpl = ids[i & 1023].CommonPrefixLength(ids[(i + 1) & 1023]);
    benchmark::DoNotOptimize(cpl);
    ++i;
  }
}
BENCHMARK(BM_CommonPrefixLength);

void BM_BtreeSeekCeil(benchmark::State& state) {
  auto file = storage::PageFile::CreateInMemory();
  storage::BtreeBuilder builder(file.get(), nullptr);
  auto ids = MakeIds(static_cast<size_t>(state.range(0)), 5);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (size_t i = 0; i < ids.size(); ++i) {
    (void)builder.Add(ids[i], i);
  }
  auto stats = builder.Finish();
  storage::BufferPool pool(file.get(), 4096, nullptr);
  storage::BtreeReader reader(&pool, stats->root);
  size_t i = 0;
  for (auto _ : state) {
    auto seek = reader.SeekCeil(ids[(i += 17) % ids.size()]);
    benchmark::DoNotOptimize(seek);
  }
}
BENCHMARK(BM_BtreeSeekCeil)->Arg(1000)->Arg(100000);

void BM_PostingListScan(benchmark::State& state) {
  auto file = storage::PageFile::CreateInMemory();
  const index::PostingFormat format = index::DefaultPostingFormat(true);
  index::PostingListWriter writer(file.get(), format);
  auto ids = MakeIds(10000, 6);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const uint32_t positions[] = {1, 5, 9};
  for (const auto& id : ids) {
    (void)writer.Add(index::PostingView{id, 0.5f, positions});
  }
  auto extent = writer.Finish();
  storage::BufferPool pool(file.get(), 4096, nullptr);
  for (auto _ : state) {
    index::PostingListCursor cursor(&pool, *extent, format);
    index::PostingView posting;
    size_t count = 0;
    while (*cursor.Next(&posting)) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ids.size()));
}
BENCHMARK(BM_PostingListScan);

// Per-codec decode fixture: the same dblp-shaped 20k-posting list written
// through one codec, its pages snapshotted so the benchmark loop measures
// pure page decoding — the codec-specific cost — without buffer-pool
// traffic. check_perf.sh gates the bp128 row against the varint baseline.
struct CodecFixture {
  index::PostingFormat format;
  std::vector<storage::Page> pages;
  size_t posting_count = 0;
  double bytes_per_posting = 0.0;
};

CodecFixture* GetCodecFixture(const std::string& codec_name) {
  static auto* cache = new std::vector<std::pair<std::string, CodecFixture*>>;
  for (auto& entry : *cache) {
    if (entry.first == codec_name) return entry.second;
  }
  const index::PostingCodec* codec =
      index::FindPostingCodecByName(codec_name);
  if (codec == nullptr) return nullptr;
  auto ids = MakeIds(20000, 6);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  Random rng(10);
  index::DecodedBlock postings;
  for (const auto& id : ids) {
    const float rank = 0.001f * static_cast<float>(1 + rng.Uniform(1000));
    uint32_t base = static_cast<uint32_t>(rng.Uniform(200));
    const uint32_t positions[] = {base, base + 3, base + 11};
    postings.Append(index::PostingView{id, rank, positions});
  }
  auto* fixture = new CodecFixture();
  fixture->format = index::MakePostingFormat(
      codec, index::PostingFormatSpec{codec->id()}, /*delta_encode_ids=*/true);
  auto file = storage::PageFile::CreateInMemory();
  index::PostingListWriter writer(file.get(), fixture->format);
  for (size_t i = 0; i < postings.size(); ++i) {
    (void)writer.Add(postings.at(i));
  }
  auto extent = writer.Finish();
  storage::BufferPool pool(file.get(), 4096, nullptr);
  fixture->pages.resize(extent->page_count);
  for (uint32_t p = 0; p < extent->page_count; ++p) {
    (void)pool.Read(extent->first_page + p, &fixture->pages[p]);
  }
  fixture->posting_count = postings.size();
  fixture->bytes_per_posting = static_cast<double>(extent->byte_count) /
                               static_cast<double>(postings.size());
  cache->emplace_back(codec_name, fixture);
  return fixture;
}

void BM_PostingDecode(benchmark::State& state, const char* codec_name) {
  CodecFixture* fixture = GetCodecFixture(codec_name);
  if (fixture == nullptr) {
    state.SkipWithError("codec not registered");
    return;
  }
  index::DecodedBlock block;
  for (auto _ : state) {
    size_t decoded = 0;
    for (const storage::Page& page : fixture->pages) {
      Status status =
          fixture->format.codec->DecodePage(page, fixture->format, &block);
      if (!status.ok()) {
        state.SkipWithError(status.ToString().c_str());
        return;
      }
      decoded += block.size();
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fixture->posting_count));
  state.counters["bytes_per_posting"] = fixture->bytes_per_posting;
}
BENCHMARK_CAPTURE(BM_PostingDecode, varint, "varint");
BENCHMARK_CAPTURE(BM_PostingDecode, bp128, "bp128");

void BM_Tokenize(benchmark::State& state) {
  index::Analyzer analyzer;
  std::string text;
  Random rng(7);
  for (int i = 0; i < 200; ++i) {
    text += "word" + std::to_string(rng.Uniform(1000)) + " ";
  }
  for (auto _ : state) {
    uint32_t position = 0;
    auto tokens = analyzer.Tokenize(text, &position);
    benchmark::DoNotOptimize(tokens);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 200);
}
BENCHMARK(BM_Tokenize);

void BM_MinimalWindow(benchmark::State& state) {
  Random rng(8);
  std::vector<std::vector<uint32_t>> lists(3);
  for (auto& list : lists) {
    for (int i = 0; i < 64; ++i) {
      list.push_back(static_cast<uint32_t>(rng.Uniform(10000)));
    }
  }
  std::vector<std::span<const uint32_t>> spans(lists.begin(), lists.end());
  for (auto _ : state) {
    uint32_t window = query::MinimalWindowSize(spans);
    benchmark::DoNotOptimize(window);
  }
}
BENCHMARK(BM_MinimalWindow);

void BM_DeweyStackMerge(benchmark::State& state) {
  auto ids = MakeIds(10000, 9);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  query::ScoringOptions scoring;
  for (auto _ : state) {
    size_t emitted = 0;
    query::DeweyStackMerger merger(
        2, scoring, 1,
        [&](const query::CandidateView&) { ++emitted; });
    for (size_t i = 0; i < ids.size(); ++i) {
      const uint32_t position = static_cast<uint32_t>(i);
      merger.Add(i & 1, index::PostingView{ids[i], 0.25f, {&position, 1}});
    }
    merger.Flush();
    benchmark::DoNotOptimize(emitted);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ids.size()));
}
BENCHMARK(BM_DeweyStackMerge);

// Two-term conjunctive corpus with skewed ElemRanks: both terms occur in
// every document (document-at-a-time skipping cannot help), the first few
// documents carry large ranks and the long tail is tiny — the regime where
// block-max pruning pays. Built once and shared across iterations.
struct SkewedIndex {
  std::unique_ptr<storage::PageFile> file;
  std::unique_ptr<storage::CostModel> cost_model;
  std::unique_ptr<storage::BufferPool> pool;
  index::Lexicon lexicon;
};

SkewedIndex* GetSkewedIndex() {
  static SkewedIndex* index = [] {
    auto* out = new SkewedIndex();
    out->file = storage::PageFile::CreateInMemory();
    constexpr uint32_t kDocs = 50000;
    const char* terms[] = {"hot", "cold"};
    for (uint32_t t = 0; t < 2; ++t) {
      index::PostingListWriter writer(out->file.get(),
                                      index::DefaultPostingFormat(true));
      const uint32_t position = t + 1;
      for (uint32_t d = 0; d < kDocs; ++d) {
        const uint32_t id[] = {d, 1};
        const float rank = d < 16 ? 1000.0f - static_cast<float>(d)
                                  : 1.0f / static_cast<float>(d + 2);
        writer.Add(index::PostingView{id, rank, {&position, 1}}).status();
      }
      auto extent = writer.Finish();
      index::TermInfo info;
      info.list = *extent;
      info.skips = writer.TakeSkips();
      info.max_doc_rank = writer.max_doc_rank();
      out->lexicon.Add(terms[t], std::move(info));
    }
    out->cost_model = std::make_unique<storage::CostModel>();
    out->pool = std::make_unique<storage::BufferPool>(out->file.get(), 4096,
                                                      out->cost_model.get());
    return out;
  }();
  return index;
}

void RunTopkMerge(benchmark::State& state, query::MergeAlgorithm algorithm,
                  index::BlockCache* cache) {
  SkewedIndex* idx = GetSkewedIndex();
  query::DilQueryProcessor processor(idx->pool.get(), &idx->lexicon,
                                     query::ScoringOptions{}, cache);
  std::vector<std::string> keywords = {"hot", "cold"};
  query::QueryOptions options;
  options.algorithm = algorithm;
  uint64_t postings = 0;
  for (auto _ : state) {
    auto response = processor.Execute(keywords, 10, options);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return;
    }
    postings += response->stats.postings_scanned;
    benchmark::DoNotOptimize(response->results);
  }
  state.SetItemsProcessed(static_cast<int64_t>(postings));
}

void BM_TopkMergeExhaustive(benchmark::State& state) {
  RunTopkMerge(state, query::MergeAlgorithm::kExhaustive, nullptr);
}
BENCHMARK(BM_TopkMergeExhaustive);

// The conjunctive default: the DAAT merge with block-max pruning.
void BM_TopkMergePruned(benchmark::State& state) {
  RunTopkMerge(state, query::MergeAlgorithm::kAuto, nullptr);
}
BENCHMARK(BM_TopkMergePruned);

void BM_TopkMergePrunedCached(benchmark::State& state) {
  static index::BlockCache* cache = new index::BlockCache(32u << 20);
  RunTopkMerge(state, query::MergeAlgorithm::kAuto, cache);
}
BENCHMARK(BM_TopkMergePrunedCached);

// Disjunctive top-k over the same skewed corpus: the exhaustive merge must
// consume both full lists; MaxScore and block-max WAND prune on the score
// bounds instead. check_perf.sh gates the pruned rows against the
// exhaustive baseline.
void RunDisjunctiveTopk(benchmark::State& state,
                        query::MergeAlgorithm algorithm) {
  SkewedIndex* idx = GetSkewedIndex();
  query::ScoringOptions scoring;
  scoring.semantics = query::QuerySemantics::kDisjunctive;
  query::DilQueryProcessor processor(idx->pool.get(), &idx->lexicon, scoring);
  std::vector<std::string> keywords = {"hot", "cold"};
  query::QueryOptions options;
  options.algorithm = algorithm;
  uint64_t postings = 0;
  for (auto _ : state) {
    auto response = processor.Execute(keywords, 10, options);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return;
    }
    postings += response->stats.postings_scanned;
    benchmark::DoNotOptimize(response->results);
  }
  state.SetItemsProcessed(static_cast<int64_t>(postings));
}

void BM_TopkDisjunctiveExhaustive(benchmark::State& state) {
  RunDisjunctiveTopk(state, query::MergeAlgorithm::kExhaustive);
}
BENCHMARK(BM_TopkDisjunctiveExhaustive);

void BM_TopkDisjunctiveMaxScore(benchmark::State& state) {
  RunDisjunctiveTopk(state, query::MergeAlgorithm::kMaxScore);
}
BENCHMARK(BM_TopkDisjunctiveMaxScore);

void BM_TopkDisjunctiveBmw(benchmark::State& state) {
  RunDisjunctiveTopk(state, query::MergeAlgorithm::kBlockMaxWand);
}
BENCHMARK(BM_TopkDisjunctiveBmw);

}  // namespace
}  // namespace xrank

// Splices `,"xrank_metrics": {...}` (a metrics-registry snapshot) before
// the final '}' of the google-benchmark JSON file, so perf artifacts carry
// the counter/histogram context without fighting the library for the
// reporter.
static void AppendRegistryToJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return;
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  size_t close = content.find_last_of('}');
  if (close == std::string::npos) return;
  std::string registry = xrank::metrics::RenderJson(
      xrank::metrics::Registry::Instance().Snapshot());
  content.insert(close, ",\n\"xrank_metrics\": " + registry + "\n");
  f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

// Custom main so `--json <path>` (the flag shared by the bench binaries)
// maps onto google-benchmark's JSON reporter, and `--codec <name>` narrows
// the run to that codec's posting-decode row.
int main(int argc, char** argv) {
  std::vector<std::string> arg_storage;
  std::vector<char*> args;
  std::string json_path;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::string(argv[i]) == "--json") {
      json_path = argv[i + 1];
      arg_storage.push_back(std::string("--benchmark_out=") + argv[i + 1]);
      arg_storage.push_back("--benchmark_out_format=json");
      ++i;
      continue;
    }
    if (i + 1 < argc && std::string(argv[i]) == "--codec") {
      arg_storage.push_back(std::string("--benchmark_filter=BM_PostingDecode/") +
                            argv[i + 1] + "$");
      ++i;
      continue;
    }
    arg_storage.push_back(argv[i]);
  }
  args.reserve(arg_storage.size());
  for (std::string& arg : arg_storage) args.push_back(arg.data());
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) AppendRegistryToJson(json_path);
  return 0;
}

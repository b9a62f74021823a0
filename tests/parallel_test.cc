// Tests for the parallel execution layer: the ThreadPool primitive,
// thread-count invariance of parallel ElemRank, the pinned bytes of every
// index kind's parallel build, and thread safety of concurrent query
// serving.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "datagen/dblp_gen.h"
#include "datagen/xmark_gen.h"
#include "graph/builder.h"
#include "index/dil_index.h"
#include "index/hdil_index.h"
#include "index/index_builder.h"
#include "index/naive_index.h"
#include "index/rdil_index.h"
#include "rank/elem_rank.h"

namespace xrank {
namespace {

using core::EngineOptions;
using core::XRankEngine;
using index::IndexKind;

// --- ThreadPool ---

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.ParallelFor(0, hits.size(), 64,
                     [&](size_t begin, size_t end, size_t) {
                       for (size_t i = begin; i < end; ++i) {
                         hits[i].fetch_add(1);
                       }
                     });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ChunkBoundariesDependOnlyOnGrain) {
  // Chunk shapes must be identical for every thread count: per-chunk
  // partial results combined in chunk order are then reproducible.
  constexpr size_t kBegin = 3, kEnd = 777, kGrain = 50;
  auto collect = [&](int threads) {
    ThreadPool pool(threads);
    size_t chunks = ThreadPool::NumChunks(kBegin, kEnd, kGrain);
    std::vector<std::pair<size_t, size_t>> bounds(chunks);
    pool.ParallelFor(kBegin, kEnd, kGrain,
                     [&](size_t begin, size_t end, size_t chunk) {
                       bounds[chunk] = {begin, end};
                     });
    return bounds;
  };
  auto one = collect(1);
  auto four = collect(4);
  ASSERT_EQ(one.size(), four.size());
  for (size_t c = 0; c < one.size(); ++c) {
    EXPECT_EQ(one[c], four[c]) << "chunk " << c;
  }
  // Chunks tile [begin, end) in order.
  size_t expected_begin = kBegin;
  for (const auto& [begin, end] : one) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_LE(end - begin, kGrain);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, kEnd);
}

TEST(ThreadPoolTest, EmptyRangeAndZeroGrain) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 10, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Grain 0 = split evenly across workers.
  std::atomic<size_t> total{0};
  pool.ParallelFor(0, 100, 0, [&](size_t begin, size_t end, size_t) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 100u);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(0, 1000, 7, [&](size_t begin, size_t end, size_t) {
      uint64_t local = 0;
      for (size_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 999u * 1000u / 2u);
  }
}

// --- parallel ElemRank ---

graph::XmlGraph BuildGraph(std::vector<xml::Document> docs) {
  graph::GraphBuilder builder;
  for (const xml::Document& doc : docs) {
    Status status = builder.AddDocument(doc);
    EXPECT_TRUE(status.ok()) << status;
  }
  auto graph = std::move(builder).Finalize();
  EXPECT_TRUE(graph.ok()) << graph.status();
  return std::move(graph).value();
}

graph::XmlGraph SmallDblpGraph() {
  datagen::DblpOptions gen;
  gen.num_papers = 150;
  return BuildGraph(datagen::GenerateDblp(gen).documents);
}

graph::XmlGraph SmallXMarkGraph() {
  datagen::XMarkOptions gen;
  gen.num_items = 60;
  gen.num_open_auctions = 40;
  gen.num_closed_auctions = 20;
  gen.num_people = 30;
  return BuildGraph(datagen::GenerateXMark(gen).documents);
}

class ElemRankParallelTest
    : public ::testing::TestWithParam<rank::Formula> {};

TEST_P(ElemRankParallelTest, MatchesSequentialWithinTolerance) {
  for (const graph::XmlGraph& graph : {SmallDblpGraph(), SmallXMarkGraph()}) {
    rank::ElemRankOptions sequential;
    sequential.formula = GetParam();
    sequential.num_threads = 1;
    auto reference = rank::ComputeElemRank(graph, sequential);
    ASSERT_TRUE(reference.ok()) << reference.status();

    for (int threads : {2, 4}) {
      rank::ElemRankOptions parallel = sequential;
      parallel.num_threads = threads;
      auto result = rank::ComputeElemRank(graph, parallel);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_EQ(result->ranks.size(), reference->ranks.size());
      double linf = 0.0;
      for (size_t i = 0; i < result->ranks.size(); ++i) {
        linf = std::max(linf,
                        std::abs(result->ranks[i] - reference->ranks[i]));
      }
      EXPECT_LE(linf, 1e-9) << "threads=" << threads;
      EXPECT_EQ(result->iterations, reference->iterations)
          << "threads=" << threads;
    }
  }
}

TEST_P(ElemRankParallelTest, ThreadCountInvariant) {
  // The pull-style path must produce bit-identical ranks for every thread
  // count (fixed chunking; partials combined in chunk order).
  graph::XmlGraph graph = SmallDblpGraph();
  rank::ElemRankOptions two;
  two.formula = GetParam();
  two.num_threads = 2;
  auto a = rank::ComputeElemRank(graph, two);
  ASSERT_TRUE(a.ok()) << a.status();
  rank::ElemRankOptions eight = two;
  eight.num_threads = 8;
  auto b = rank::ComputeElemRank(graph, eight);
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(a->ranks.size(), b->ranks.size());
  for (size_t i = 0; i < a->ranks.size(); ++i) {
    EXPECT_EQ(a->ranks[i], b->ranks[i]) << "node " << i;
  }
}

TEST(ElemRankParallelTest, RejectsNegativeThreadCount) {
  graph::XmlGraph graph = SmallDblpGraph();
  rank::ElemRankOptions options;
  options.num_threads = -1;
  auto result = rank::ComputeElemRank(graph, options);
  EXPECT_FALSE(result.ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllFormulas, ElemRankParallelTest,
    ::testing::Values(rank::Formula::kPageRankAdaptation,
                      rank::Formula::kBidirectional,
                      rank::Formula::kDiscriminated, rank::Formula::kFinal));

// --- parallel extraction and index construction ---

index::ExtractionResult Extract(const graph::XmlGraph& graph,
                                const std::vector<double>& ranks,
                                int num_threads) {
  index::ExtractionOptions options;
  options.num_threads = num_threads;
  auto extracted = index::ExtractPostings(graph, ranks, options);
  EXPECT_TRUE(extracted.ok()) << extracted.status();
  return std::move(extracted).value();
}

TEST(ParallelBuildTest, ExtractionIsThreadCountInvariant) {
  graph::XmlGraph graph = SmallDblpGraph();
  rank::ElemRankOptions rank_options;
  auto ranks = rank::ComputeElemRank(graph, rank_options);
  ASSERT_TRUE(ranks.ok()) << ranks.status();

  index::ExtractionResult reference = Extract(graph, ranks->ranks, 1);
  for (int threads : {2, 4}) {
    index::ExtractionResult parallel = Extract(graph, ranks->ranks, threads);
    EXPECT_EQ(parallel.element_count, reference.element_count);
    EXPECT_EQ(parallel.direct_occurrence_count,
              reference.direct_occurrence_count);
    EXPECT_EQ(parallel.ordinal_to_dewey, reference.ordinal_to_dewey);
    EXPECT_EQ(parallel.dewey_postings, reference.dewey_postings)
        << "threads=" << threads;
    EXPECT_EQ(parallel.naive_postings, reference.naive_postings)
        << "threads=" << threads;
  }
}

// 64-bit FNV-1a over the page count and every page payload.
uint64_t FileDigest(const storage::PageFile& file) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  auto mix = [&hash](const char* bytes, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      hash ^= static_cast<unsigned char>(bytes[i]);
      hash *= 0x100000001B3ULL;
    }
  };
  uint32_t pages = file.page_count();
  mix(reinterpret_cast<const char*>(&pages), sizeof(pages));
  for (uint32_t p = 0; p < pages; ++p) {
    storage::Page page;
    EXPECT_TRUE(file.Read(p, &page).ok()) << "page " << p;
    mix(page.data.data(), storage::kPageSize);
  }
  return hash;
}

Result<index::BuiltIndex> BuildKind(IndexKind kind,
                                    const index::ExtractionResult& extracted,
                                    const index::BuildOptions& build) {
  auto file = storage::PageFile::CreateInMemory();
  switch (kind) {
    case IndexKind::kDil:
      return index::BuildDilIndex(extracted.dewey_postings, std::move(file),
                                  build);
    case IndexKind::kRdil:
      return index::BuildRdilIndex(extracted.dewey_postings, std::move(file),
                                   build);
    case IndexKind::kHdil:
      return index::BuildHdilIndex(extracted.dewey_postings, std::move(file),
                                   {}, build);
    case IndexKind::kNaiveId:
      return index::BuildNaiveIdIndex(extracted.naive_postings,
                                      std::move(file), build);
    case IndexKind::kNaiveRank:
      return index::BuildNaiveRankIndex(extracted.naive_postings,
                                        std::move(file), build);
  }
  return Status::InvalidArgument("unknown index kind");
}

// The digest of every kind's index file over SmallDblpGraph, per codec and
// page layout. A build change that alters any byte, at any thread count,
// fails here; re-record the table only with a deliberate change of the
// index format.
struct PinnedIndex {
  IndexKind kind;
  uint32_t codec_id;
  uint32_t vbmw_lambda_milli;  // 0 = dense pages
  uint64_t digest;
};

constexpr PinnedIndex kPinnedIndexes[] = {
    {IndexKind::kDil, index::kPostingCodecVarint, 0,
     0x5C959BAA7364655CULL},
    {IndexKind::kDil, index::kPostingCodecVarint, 10,
     0xC629ADCC61B927B8ULL},
    {IndexKind::kDil, index::kPostingCodecBp128, 0,
     0x095FBE03DACC5B92ULL},
    {IndexKind::kDil, index::kPostingCodecBp128, 10,
     0xE596C6F990A7C4C0ULL},
    {IndexKind::kRdil, index::kPostingCodecVarint, 0,
     0x389196484DBB810FULL},
    {IndexKind::kRdil, index::kPostingCodecVarint, 10,
     0xC2626F032E5786DEULL},
    {IndexKind::kRdil, index::kPostingCodecBp128, 0,
     0x883CEF70181A3D43ULL},
    {IndexKind::kRdil, index::kPostingCodecBp128, 10,
     0x2E57903552F2465BULL},
    {IndexKind::kHdil, index::kPostingCodecVarint, 0,
     0x631BA78A413B78D1ULL},
    {IndexKind::kHdil, index::kPostingCodecVarint, 10,
     0x79C788AB473132E5ULL},
    {IndexKind::kHdil, index::kPostingCodecBp128, 0,
     0x8AE44B0C04577CF1ULL},
    {IndexKind::kHdil, index::kPostingCodecBp128, 10,
     0xC13332F5CA95CC36ULL},
    {IndexKind::kNaiveId, index::kPostingCodecVarint, 0,
     0xE508F701FE1B1162ULL},
    {IndexKind::kNaiveId, index::kPostingCodecVarint, 10,
     0x67F2DC8E49FA0D87ULL},
    {IndexKind::kNaiveId, index::kPostingCodecBp128, 0,
     0xE35B219A32989E62ULL},
    {IndexKind::kNaiveId, index::kPostingCodecBp128, 10,
     0x6BB439AE4E27A33AULL},
    {IndexKind::kNaiveRank, index::kPostingCodecVarint, 0,
     0x0DDC2C78F3EF8745ULL},
    {IndexKind::kNaiveRank, index::kPostingCodecVarint, 10,
     0xFA47387B1FE1CC73ULL},
    {IndexKind::kNaiveRank, index::kPostingCodecBp128, 0,
     0xB2A20B27E0CC4596ULL},
    {IndexKind::kNaiveRank, index::kPostingCodecBp128, 10,
     0x2991A4D2EC5CEDD3ULL},
};

TEST(ParallelBuildTest, IndexFilesAreByteIdentical) {
  graph::XmlGraph graph = SmallDblpGraph();
  rank::ElemRankOptions rank_options;
  auto ranks = rank::ComputeElemRank(graph, rank_options);
  ASSERT_TRUE(ranks.ok()) << ranks.status();
  index::ExtractionResult extracted = Extract(graph, ranks->ranks, 1);

  for (const PinnedIndex& pin : kPinnedIndexes) {
    for (int threads : {1, 4}) {
      index::BuildOptions build;
      build.num_threads = threads;
      build.format.codec_id = pin.codec_id;
      build.format.vbmw_lambda_milli = pin.vbmw_lambda_milli;
      auto built = BuildKind(pin.kind, extracted, build);
      ASSERT_TRUE(built.ok()) << built.status();
      EXPECT_EQ(FileDigest(*built->file), pin.digest)
          << index::IndexKindName(pin.kind) << " codec " << pin.codec_id
          << " lambda " << pin.vbmw_lambda_milli << " threads " << threads
          << std::hex << " digest 0x" << FileDigest(*built->file);
    }
  }
}

TEST(ParallelBuildTest, RejectsNegativeThreadCount) {
  graph::XmlGraph graph = SmallDblpGraph();
  rank::ElemRankOptions rank_options;
  auto ranks = rank::ComputeElemRank(graph, rank_options);
  ASSERT_TRUE(ranks.ok()) << ranks.status();
  index::ExtractionResult extracted = Extract(graph, ranks->ranks, 1);

  index::BuildOptions build;
  build.num_threads = -1;
  for (IndexKind kind : {IndexKind::kDil, IndexKind::kNaiveRank}) {
    auto built = BuildKind(kind, extracted, build);
    ASSERT_FALSE(built.ok()) << index::IndexKindName(kind);
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument)
        << built.status();
  }
}

TEST(ParallelBuildTest, PartitionByWeightCoversAllItems) {
  std::vector<uint64_t> weights = {5, 1, 1, 1, 20, 1, 1, 3, 3, 3};
  for (size_t shards : {1u, 2u, 3u, 7u, 10u, 25u}) {
    auto partition = index::PartitionByWeight(weights, shards);
    ASSERT_FALSE(partition.empty());
    EXPECT_LE(partition.size(), std::min<size_t>(shards, weights.size()));
    size_t expected_begin = 0;
    for (const auto& [begin, end] : partition) {
      EXPECT_EQ(begin, expected_begin);
      EXPECT_LT(begin, end);
      expected_begin = end;
    }
    EXPECT_EQ(expected_begin, weights.size());
  }
}

// --- concurrent query serving ---

TEST(ConcurrentQueryTest, ManyThreadsMatchSequentialAnswers) {
  datagen::DblpOptions gen;
  gen.num_papers = 120;
  datagen::Corpus corpus = datagen::GenerateDblp(gen);

  EngineOptions options;
  options.indexes = {IndexKind::kDil, IndexKind::kHdil};
  auto built = XRankEngine::Build(std::move(corpus.documents), options);
  ASSERT_TRUE(built.ok()) << built.status();
  XRankEngine* engine = built->get();

  // Query set: prefixes of the planted quadruples over both index kinds.
  struct QueryCase {
    std::vector<std::string> keywords;
    IndexKind kind;
  };
  std::vector<QueryCase> cases;
  for (const auto& quad : corpus.planted.high_correlation) {
    for (size_t n = 1; n <= 2; ++n) {
      cases.push_back({{quad.begin(), quad.begin() + n}, IndexKind::kDil});
      cases.push_back({{quad.begin(), quad.begin() + n}, IndexKind::kHdil});
    }
    if (cases.size() >= 16) break;
  }
  ASSERT_FALSE(cases.empty());

  // Sequential reference answers.
  std::vector<core::EngineResponse> expected;
  for (const QueryCase& c : cases) {
    auto response = engine->QueryKeywords(c.keywords, 10, c.kind);
    ASSERT_TRUE(response.ok()) << response.status();
    expected.push_back(std::move(response).value());
  }

  // Hammer the engine from 8 threads; every thread runs the whole set and
  // must see exactly the sequential answers.
  constexpr int kThreads = 8;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t rep = 0; rep < 3; ++rep) {
        for (size_t i = 0; i < cases.size(); ++i) {
          // Stagger the starting offset so threads hit different queries
          // at the same time.
          size_t q = (i + static_cast<size_t>(t)) % cases.size();
          auto response =
              engine->QueryKeywords(cases[q].keywords, 10, cases[q].kind);
          if (!response.ok()) {
            errors[t] = response.status().ToString();
            return;
          }
          if (response->results.size() != expected[q].results.size()) {
            errors[t] = "result count mismatch on query " + std::to_string(q);
            return;
          }
          for (size_t r = 0; r < response->results.size(); ++r) {
            if (response->results[r].id != expected[q].results[r].id ||
                response->results[r].rank != expected[q].results[r].rank) {
              errors[t] = "result mismatch on query " + std::to_string(q);
              return;
            }
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
  }
}

// A block cache that holds about two decoded pages evicts blocks that other
// threads' cursors still read. A cursor pins its block, so every answer
// must still equal the exhaustive merge's; a view that outlived its block
// would fail here under the address and thread sanitizers.
TEST(ConcurrentQueryTest, TinyBlockCacheEvictsUnderReaders) {
  datagen::DblpOptions gen;
  gen.num_papers = 400;
  datagen::Corpus corpus = datagen::GenerateDblp(gen);

  EngineOptions options;
  options.indexes = {IndexKind::kDil};
  options.result_cache_entries = 0;
  options.cold_cache_per_query = false;  // keep blocks across queries
  options.block_cache_bytes = 16u << 10;
  auto built = XRankEngine::Build(std::move(corpus.documents), options);
  ASSERT_TRUE(built.ok()) << built.status();
  XRankEngine* engine = built->get();

  // Frequent terms, whose lists span many pages, and planted prefixes.
  std::vector<std::vector<std::string>> cases = {
      {"sel0"}, {"sel1"}, {"sel0", "sel1"}, {"sel2", "sel0"}};
  for (const auto& quad : corpus.planted.high_correlation) {
    for (size_t n = 1; n <= 3; ++n) {
      cases.push_back({quad.begin(), quad.begin() + n});
    }
    if (cases.size() >= 16) break;
  }
  ASSERT_FALSE(cases.empty());

  // The exhaustive merge's answers, before any reader starts.
  query::QueryOptions exhaustive;
  exhaustive.algorithm = query::MergeAlgorithm::kExhaustive;
  std::vector<core::EngineResponse> expected;
  for (const auto& keywords : cases) {
    auto response =
        engine->QueryKeywords(keywords, 10, IndexKind::kDil, exhaustive);
    ASSERT_TRUE(response.ok()) << response.status();
    expected.push_back(std::move(response).value());
  }

  metrics::Counter* evictions =
      metrics::Registry::Instance().GetCounter("block_cache.evictions");
  const uint64_t evictions_before = evictions->value();
  constexpr int kThreads = 4;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t rep = 0; rep < 3; ++rep) {
        for (size_t i = 0; i < cases.size(); ++i) {
          size_t q = (i + static_cast<size_t>(t)) % cases.size();
          auto response = engine->QueryKeywords(cases[q], 10, IndexKind::kDil);
          if (!response.ok()) {
            errors[t] = response.status().ToString();
            return;
          }
          if (response->results.size() != expected[q].results.size()) {
            errors[t] = "result count mismatch on query " + std::to_string(q);
            return;
          }
          for (size_t r = 0; r < response->results.size(); ++r) {
            if (response->results[r].id != expected[q].results[r].id ||
                response->results[r].rank != expected[q].results[r].rank) {
              errors[t] = "result mismatch on query " + std::to_string(q);
              return;
            }
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
  }
  EXPECT_GT(evictions->value(), evictions_before);
}

TEST(ConcurrentQueryTest, QueriesRaceSafelyWithDeletions) {
  datagen::DblpOptions gen;
  gen.num_papers = 60;
  datagen::Corpus corpus = datagen::GenerateDblp(gen);
  std::vector<std::string> uris;
  for (const xml::Document& doc : corpus.documents) uris.push_back(doc.uri);

  EngineOptions options;
  auto built = XRankEngine::Build(std::move(corpus.documents), options);
  ASSERT_TRUE(built.ok()) << built.status();
  XRankEngine* engine = built->get();

  const auto& quad = corpus.planted.high_correlation[0];
  std::vector<std::string> keywords = {quad[0], quad[1]};

  // Readers run a bounded number of queries (an unbounded spin can starve
  // the writer on reader-preferring rwlock implementations); the writer
  // tombstones documents and compacts concurrently.
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int q = 0; q < 40; ++q) {
        auto response =
            engine->QueryKeywords(keywords, 10, IndexKind::kHdil);
        if (!response.ok()) failures.fetch_add(1);
      }
    });
  }
  for (size_t d = 0; d < 4; ++d) {
    ASSERT_TRUE(engine->DeleteDocument(uris[d * 7]).ok());
  }
  ASSERT_TRUE(engine->CompactDeletions().ok());
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0u);
  // The tombstone set survives compaction (it keeps filtering, harmlessly,
  // since the postings are gone).
  EXPECT_EQ(engine->deleted_document_count(), 4u);
}

}  // namespace
}  // namespace xrank

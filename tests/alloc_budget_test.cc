// Heap-allocation budget of a warm query: a DIL query served from a warm
// buffer pool and block cache makes at most two heap allocations per
// posting it reads. Decoded pages are flat blocks handed out as views, and
// the Dewey stack keeps its frames in reused arrays, so a merge that copies
// each posting into an owning object (a Dewey ID and a position vector, two
// heap blocks) breaks the budget.
//
// This file is its own executable: the counting operator new below replaces
// the global one, which must not touch any other test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/dblp_gen.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedAllocate(size_t size, size_t alignment) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* block = alignment <= alignof(std::max_align_t)
                    ? std::malloc(size)
                    : std::aligned_alloc(
                          alignment, (size + alignment - 1) / alignment *
                                         alignment);
  return block;
}

}  // namespace

// Not inlined, so the compiler never pairs a new-expression with the free
// inside a replaced operator delete.
[[gnu::noinline]] void* operator new(size_t size) {
  void* block = CountedAllocate(size, 0);
  if (block == nullptr) throw std::bad_alloc();
  return block;
}
[[gnu::noinline]] void* operator new[](size_t size) {
  return operator new(size);
}
[[gnu::noinline]] void* operator new(size_t size,
                                     const std::nothrow_t&) noexcept {
  return CountedAllocate(size, 0);
}
[[gnu::noinline]] void* operator new[](size_t size,
                                       const std::nothrow_t&) noexcept {
  return CountedAllocate(size, 0);
}
[[gnu::noinline]] void* operator new(size_t size,
                                     std::align_val_t alignment) {
  void* block = CountedAllocate(size, static_cast<size_t>(alignment));
  if (block == nullptr) throw std::bad_alloc();
  return block;
}
[[gnu::noinline]] void* operator new[](size_t size,
                                       std::align_val_t alignment) {
  return operator new(size, alignment);
}
[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete[](void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, size_t) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete[](void* block, size_t) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block,
                                       std::align_val_t) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete[](void* block,
                                         std::align_val_t) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, size_t,
                                       std::align_val_t) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete[](void* block, size_t,
                                         std::align_val_t) noexcept {
  std::free(block);
}

namespace xrank {
namespace {

using core::EngineOptions;
using core::XRankEngine;
using index::IndexKind;

constexpr double kMaxAllocationsPerPosting = 2.0;
// Results per query: enough that block-max pruning still reads thousands
// of postings of the planted lists.
constexpr size_t kM = 100;

// A seeded dblp corpus with one planted set sprayed densely, so the
// planted keywords' lists span many pages (dil_work_test's corpus).
datagen::Corpus PlantedCorpus() {
  datagen::DblpOptions gen;
  gen.num_papers = 2000;
  gen.seed = 7;
  gen.planted_sets = 1;
  gen.dense_plant_rate = 0.2;
  return datagen::GenerateDblp(gen);
}

// A DIL engine that keeps its pool and block cache warm across queries and
// caches no results, so every query runs its merge.
std::unique_ptr<XRankEngine> BuildWarmEngine(
    std::vector<xml::Document> documents, query::QuerySemantics semantics) {
  EngineOptions options;
  options.indexes = {IndexKind::kDil};
  options.cold_cache_per_query = false;
  options.result_cache_entries = 0;
  options.scoring.semantics = semantics;
  auto engine = XRankEngine::Build(std::move(documents), options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

struct Measured {
  uint64_t allocations = 0;
  uint64_t postings = 0;
  std::string algorithm;
};

// Runs the query once to warm the caches, then counts the heap
// allocations of a second run.
Measured MeasureWarmQuery(XRankEngine* engine,
                          const std::vector<std::string>& keywords,
                          const query::QueryOptions& options) {
  Measured measured;
  auto warm = engine->QueryKeywords(keywords, kM, IndexKind::kDil, options);
  EXPECT_TRUE(warm.ok()) << warm.status();
  g_allocations.store(0);
  g_counting.store(true);
  auto response =
      engine->QueryKeywords(keywords, kM, IndexKind::kDil, options);
  g_counting.store(false);
  measured.allocations = g_allocations.load();
  EXPECT_TRUE(response.ok()) << response.status();
  if (!response.ok()) return measured;
  EXPECT_FALSE(response->results.empty());
  EXPECT_GT(response->stats.block_cache_hits, 0u);
  measured.postings = response->stats.postings_scanned;
  measured.algorithm = response->stats.algorithm;
  return measured;
}

void ExpectWithinBudget(const Measured& measured) {
  const double per_posting = static_cast<double>(measured.allocations) /
                             static_cast<double>(measured.postings);
  std::cout << measured.algorithm << ": " << measured.allocations
            << " allocations for " << measured.postings << " postings ("
            << per_posting << " per posting)\n";
  // Thousands of postings, so the query's fixed costs (parsing, the
  // snapshot, decorating the results) cannot hide a per-posting one.
  ASSERT_GE(measured.postings, 2000u) << measured.algorithm;
  EXPECT_LE(per_posting, kMaxAllocationsPerPosting) << measured.algorithm;
}

// Three keywords of the planted high-correlation set, under `semantics`.
Measured MeasurePlantedQuery(query::QuerySemantics semantics,
                             const query::QueryOptions& options) {
  datagen::Corpus corpus = PlantedCorpus();
  const auto& planted = corpus.planted.high_correlation[0];
  std::unique_ptr<XRankEngine> engine =
      BuildWarmEngine(std::move(corpus.documents), semantics);
  if (engine == nullptr) return Measured{};
  return MeasureWarmQuery(engine.get(), {planted[0], planted[1], planted[2]},
                          options);
}

TEST(AllocBudgetTest, BlockMaxWandQuery) {
  query::QueryOptions options;
  options.algorithm = query::MergeAlgorithm::kBlockMaxWand;
  Measured measured =
      MeasurePlantedQuery(query::QuerySemantics::kDisjunctive, options);
  EXPECT_EQ(measured.algorithm, "bmw");
  ExpectWithinBudget(measured);
}

TEST(AllocBudgetTest, ConjunctiveDaatQuery) {
  Measured measured = MeasurePlantedQuery(query::QuerySemantics::kConjunctive,
                                          query::QueryOptions{});
  EXPECT_EQ(measured.algorithm, "daat");
  ExpectWithinBudget(measured);
}

}  // namespace
}  // namespace xrank

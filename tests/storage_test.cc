// Tests for the storage substrate: page files (memory and disk), buffer
// pool caching/eviction, and the sequential/random cost model.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/cost_model.h"
#include "storage/page_file.h"

namespace xrank::storage {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void ExercisePageFile(PageFile* file) {
  EXPECT_EQ(file->page_count(), 0u);
  auto p0 = file->Allocate();
  auto p1 = file->Allocate();
  ASSERT_TRUE(p0.ok() && p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ(file->page_count(), 2u);

  Page page{};
  page.WriteU32(0, 0xDEADBEEF);
  page.WriteU64(100, 0x1122334455667788ULL);
  ASSERT_TRUE(file->Write(1, page).ok());

  Page read{};
  ASSERT_TRUE(file->Read(1, &read).ok());
  EXPECT_EQ(read.ReadU32(0), 0xDEADBEEFu);
  EXPECT_EQ(read.ReadU64(100), 0x1122334455667788ULL);

  // Fresh pages are zeroed.
  ASSERT_TRUE(file->Read(0, &read).ok());
  EXPECT_EQ(read.ReadU64(0), 0u);

  // Out-of-range access fails cleanly.
  EXPECT_FALSE(file->Read(7, &read).ok());
  EXPECT_FALSE(file->Write(7, page).ok());
}

TEST(PageFileTest, InMemoryBackend) {
  auto file = PageFile::CreateInMemory();
  ExercisePageFile(file.get());
}

TEST(PageFileTest, InMemoryPagesKeepTheirContentsAsTheFileGrows) {
  // Enough pages to span several of the memory backend's 256-page chunks.
  constexpr uint32_t kPages = 600;
  auto file = PageFile::CreateInMemory();
  for (uint32_t p = 0; p < kPages; ++p) {
    auto id = file->Allocate();
    ASSERT_TRUE(id.ok()) << id.status();
    ASSERT_EQ(*id, p);
    Page page{};
    page.WriteU32(0, p);
    page.WriteU32(kPageSize - 4, ~p);
    ASSERT_TRUE(file->Write(p, page).ok());
  }
  Page read{};
  for (uint32_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(file->Read(p, &read).ok());
    EXPECT_EQ(read.ReadU32(0), p);
    EXPECT_EQ(read.ReadU32(kPageSize - 4), ~p);
  }
  EXPECT_EQ(file->page_count(), kPages);
  EXPECT_FALSE(file->Read(kPages, &read).ok());
}

TEST(PageFileTest, OnDiskBackend) {
  std::string path = TempPath("pagefile_test.db");
  auto file = PageFile::CreateOnDisk(path);
  ASSERT_TRUE(file.ok()) << file.status();
  ExercisePageFile(file->get());
  ASSERT_TRUE((*file)->Sync().ok());
}

TEST(PageFileTest, ReopenPreservesContents) {
  std::string path = TempPath("pagefile_reopen.db");
  {
    auto file = PageFile::CreateOnDisk(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Allocate().ok());
    Page page{};
    page.WriteU32(42, 777);
    ASSERT_TRUE((*file)->Write(0, page).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  auto reopened = PageFile::OpenOnDisk(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->page_count(), 1u);
  Page read{};
  ASSERT_TRUE((*reopened)->Read(0, &read).ok());
  EXPECT_EQ(read.ReadU32(42), 777u);
}

TEST(PageFileTest, OpenMissingFileFails) {
  EXPECT_FALSE(PageFile::OpenOnDisk(TempPath("nonexistent.db")).ok());
}

TEST(CostModelTest, SequentialRunsDetected) {
  CostModel model;
  for (PageId p = 10; p < 20; ++p) model.RecordRead(p);
  EXPECT_EQ(model.random_reads(), 1u);  // the first read seeks
  EXPECT_EQ(model.sequential_reads(), 9u);
}

TEST(CostModelTest, InterleavedStreamsStaySequential) {
  // Two concurrently merged list scans (the DIL pattern) must each count
  // as sequential after their first page.
  CostModel model;
  for (PageId p = 0; p < 10; ++p) {
    model.RecordRead(100 + p);
    model.RecordRead(500 + p);
  }
  EXPECT_EQ(model.random_reads(), 2u);
  EXPECT_EQ(model.sequential_reads(), 18u);
}

TEST(CostModelTest, ScatteredReadsAreRandom) {
  CostModel model;
  PageId pages[] = {5, 100, 7, 300, 9, 42};
  for (PageId p : pages) model.RecordRead(p);
  EXPECT_EQ(model.random_reads(), 6u);
  EXPECT_EQ(model.sequential_reads(), 0u);
}

TEST(CostModelTest, WeightedCost) {
  CostModelOptions options;
  options.sequential_read_cost = 1.0;
  options.random_read_cost = 50.0;
  CostModel model(options);
  model.RecordRead(0);   // random
  model.RecordRead(1);   // sequential
  model.RecordRead(2);   // sequential
  EXPECT_DOUBLE_EQ(model.TotalCost(), 52.0);
  model.Reset();
  EXPECT_DOUBLE_EQ(model.TotalCost(), 0.0);
  EXPECT_EQ(model.total_reads(), 0u);
}

TEST(BufferPoolTest, CachesRepeatedReads) {
  auto file = PageFile::CreateInMemory();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(file->Allocate().ok());
  CostModel model;
  BufferPool pool(file.get(), 16, &model);

  Page page{};
  ASSERT_TRUE(pool.Read(2, &page).ok());
  ASSERT_TRUE(pool.Read(2, &page).ok());
  ASSERT_TRUE(pool.Read(2, &page).ok());
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(model.total_reads(), 1u);
}

TEST(BufferPoolTest, DropCacheForcesPhysicalReads) {
  auto file = PageFile::CreateInMemory();
  ASSERT_TRUE(file->Allocate().ok());
  CostModel model;
  BufferPool pool(file.get(), 16, &model);
  Page page{};
  ASSERT_TRUE(pool.Read(0, &page).ok());
  pool.DropCache();
  ASSERT_TRUE(pool.Read(0, &page).ok());
  EXPECT_EQ(pool.misses(), 2u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  auto file = PageFile::CreateInMemory();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(file->Allocate().ok());
  CostModel model;
  BufferPool pool(file.get(), 2, &model);
  Page page{};
  ASSERT_TRUE(pool.Read(0, &page).ok());
  ASSERT_TRUE(pool.Read(1, &page).ok());
  ASSERT_TRUE(pool.Read(0, &page).ok());  // touch 0: LRU order is 0,1
  ASSERT_TRUE(pool.Read(2, &page).ok());  // evicts 1
  EXPECT_EQ(pool.cached_pages(), 2u);
  uint64_t misses = pool.misses();
  ASSERT_TRUE(pool.Read(0, &page).ok());  // still cached
  EXPECT_EQ(pool.misses(), misses);
  ASSERT_TRUE(pool.Read(1, &page).ok());  // was evicted
  EXPECT_EQ(pool.misses(), misses + 1);
}

TEST(BufferPoolTest, ShardCountSelection) {
  auto file = PageFile::CreateInMemory();
  CostModel model;
  // Small pools stay single-sharded (the deterministic eviction order above
  // relies on one CLOCK ring); big pools stripe automatically, capped.
  EXPECT_EQ(BufferPool(file.get(), 16, &model).shard_count(), 1u);
  EXPECT_EQ(BufferPool(file.get(), 512, &model).shard_count(), 4u);
  EXPECT_EQ(BufferPool(file.get(), 1 << 20, &model).shard_count(), 16u);
  // An explicit shard count wins but never exceeds the capacity.
  EXPECT_EQ(BufferPool(file.get(), 64, &model, 8).shard_count(), 8u);
  EXPECT_EQ(BufferPool(file.get(), 2, &model, 8).shard_count(), 2u);
}

// The canonical content of a page in the concurrency stress test below:
// any reader can verify a page without coordinating with other threads.
uint32_t PageStamp(PageId page) { return page * 2654435761u; }

TEST(BufferPoolTest, ConcurrentShardedAccess) {
  // The engine's serving pattern: many reader threads on a shared sharded
  // pool, cache drops interleaved (cold-cache mode), plus a writer touching
  // pages the readers never read (page files are not internally
  // synchronized, so read/write sets must be disjoint — as they are in the
  // engine, where queries only read). Run under TSan via
  // tools/run_sanitized_tests.sh.
  constexpr PageId kReaderPages = 192;
  constexpr PageId kWriterPages = 8;
  auto file = PageFile::CreateInMemory();
  for (PageId p = 0; p < kReaderPages + kWriterPages; ++p) {
    ASSERT_TRUE(file->Allocate().ok());
    Page page{};
    page.WriteU32(0, PageStamp(p));
    ASSERT_TRUE(file->Write(p, page).ok());
  }
  CostModel model;
  BufferPool pool(file.get(), 64, &model, 8);
  ASSERT_EQ(pool.shard_count(), 8u);

  constexpr int kReaders = 6;
  constexpr int kOpsPerThread = 4000;
  std::atomic<uint64_t> total_reads{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      uint64_t state = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(t + 1);
      uint64_t reads = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        PageId p = static_cast<PageId>((state >> 33) % kReaderPages);
        Page page{};
        ++reads;
        if (!pool.Read(p, &page).ok() || page.ReadU32(0) != PageStamp(p)) {
          errors.fetch_add(1);
        }
      }
      total_reads.fetch_add(reads);
    });
  }
  // A writer hammers the shards through the write-through path.
  threads.emplace_back([&] {
    for (int i = 0; i < kOpsPerThread; ++i) {
      PageId p = kReaderPages + static_cast<PageId>(i % kWriterPages);
      Page page{};
      page.WriteU32(0, PageStamp(p));
      if (!pool.Write(p, page).ok()) errors.fetch_add(1);
    }
  });
  // A dropper forces misses mid-flight, as cold-cache queries do.
  threads.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      pool.DropCache();
      std::this_thread::yield();
    }
  });
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(errors.load(), 0u);
  // Every Read is accounted as exactly one hit or miss (Write counts as
  // neither), and the pool never exceeds its capacity.
  EXPECT_EQ(pool.hits() + pool.misses(), total_reads.load());
  EXPECT_GT(pool.misses(), 0u);
  EXPECT_LE(pool.cached_pages(), 64u);

  // After the dust settles the cache still serves correct bytes.
  for (PageId p = 0; p < kReaderPages + kWriterPages; ++p) {
    Page page{};
    ASSERT_TRUE(pool.Read(p, &page).ok());
    EXPECT_EQ(page.ReadU32(0), PageStamp(p));
  }
}

TEST(BufferPoolTest, WriteThroughUpdatesCache) {
  auto file = PageFile::CreateInMemory();
  ASSERT_TRUE(file->Allocate().ok());
  CostModel model;
  BufferPool pool(file.get(), 4, &model);
  Page page{};
  page.WriteU32(0, 11);
  ASSERT_TRUE(pool.Write(0, page).ok());
  Page read{};
  ASSERT_TRUE(pool.Read(0, &read).ok());
  EXPECT_EQ(read.ReadU32(0), 11u);
  EXPECT_EQ(pool.misses(), 0u);  // served from cache
  // The backing file also has the data.
  Page direct{};
  ASSERT_TRUE(file->Read(0, &direct).ok());
  EXPECT_EQ(direct.ReadU32(0), 11u);
}

}  // namespace
}  // namespace xrank::storage

// Failpoint-driven fault injection across the storage, commit, and serving
// layers: every injected fault must surface as a clean Status (or be
// absorbed by the bounded retry policy) — never a crash, hang, or silently
// wrong result. Also covers the crash-safe MANIFEST commit protocol and
// per-query deadlines / cooperative cancellation.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/failpoint.h"
#include "core/engine.h"
#include "index/manifest.h"
#include "query/deadline.h"
#include "storage/fault_injection.h"
#include "storage/page_file.h"
#include "xml/parser.h"

namespace xrank {
namespace {

using core::EngineOptions;
using core::XRankEngine;
using fail::Action;
using fail::FailPoints;
using fail::FailPointSpec;
using fail::ScopedFailPoint;
using index::IndexKind;

constexpr const char* kCorpusXml = R"(
<workshop date="28 July 2000">
  <title> XML and IR: A SIGIR 2000 Workshop </title>
  <proceedings>
    <paper id="1">
      <title> XQL and Proximal Nodes </title>
      <abstract> We consider the recently proposed language </abstract>
      <body>
        <section> Searching on structured text with the XQL language </section>
        <cite ref="2">Querying XML in Xyleme</cite>
      </body>
    </paper>
    <paper id="2">
      <title> Querying XML in Xyleme </title>
      <body> xyleme supports XQL language fragments </body>
    </paper>
  </proceedings>
</workshop>
)";

constexpr const char* kSecondXml = R"(
<note>
  <title> ranked keyword search over hyperlinked documents </title>
  <body> the xql language again </body>
</note>
)";

std::vector<xml::Document> Corpus() {
  std::vector<xml::Document> docs;
  for (const auto& [text, uri] :
       {std::pair{kCorpusXml, "corpus.xml"},
        std::pair{kSecondXml, "second.xml"}}) {
    auto doc = xml::ParseDocument(text, uri);
    EXPECT_TRUE(doc.ok()) << doc.status();
    docs.push_back(std::move(doc).value());
  }
  return docs;
}

// A unique, empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/fi_" + name;
  ::mkdir(dir.c_str(), 0755);
  // Clear any leftovers from a previous run of the same test.
  for (const char* file :
       {"MANIFEST", "MANIFEST.tmp", "DIL.xrank", "DIL.xrank.tmp",
        "RDIL.xrank", "RDIL.xrank.tmp", "HDIL.xrank", "HDIL.xrank.tmp",
        "NaiveId.xrank", "NaiveId.xrank.tmp", "NaiveRank.xrank",
        "NaiveRank.xrank.tmp"}) {
    std::remove((dir + "/" + file).c_str());
  }
  return dir;
}

EngineOptions DiskOptions(const std::string& dir) {
  EngineOptions options;
  options.indexes = {IndexKind::kDil, IndexKind::kHdil};
  options.disk_dir = dir;
  // The result cache would mask injected read faults on repeat queries.
  options.result_cache_entries = 0;
  return options;
}

// Every test in this file must leave the global registry clean.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::Instance().DisarmAll(); }
};

// --- failpoint registry ---

TEST_F(FaultInjectionTest, UnarmedPointNeverFires) {
  EXPECT_FALSE(FailPoints::Instance().Evaluate("no.such.point").has_value());
}

TEST_F(FaultInjectionTest, ScriptedSkipAndMaxTriggers) {
  FailPointSpec spec;
  spec.skip = 2;
  spec.max_triggers = 3;
  ScopedFailPoint fp("test.scripted", spec);
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) {
    fired.push_back(FailPoints::Instance().Evaluate("test.scripted")
                        .has_value());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, true, false,
                                      false, false}));
  EXPECT_EQ(fp.hits(), 8u);
  EXPECT_EQ(fp.triggers(), 3u);
}

TEST_F(FaultInjectionTest, ProbabilisticScheduleIsReproducible) {
  FailPointSpec spec;
  spec.probability = 0.5;
  spec.seed = 42;
  auto sample = [&]() {
    ScopedFailPoint fp("test.prob", spec);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(FailPoints::Instance().Evaluate("test.prob")
                          .has_value());
    }
    return fired;
  };
  std::vector<bool> first = sample();
  std::vector<bool> second = sample();
  EXPECT_EQ(first, second);  // re-arming resets the seeded RNG
  size_t triggered = 0;
  for (bool b : first) triggered += b ? 1 : 0;
  EXPECT_GT(triggered, 16u);
  EXPECT_LT(triggered, 48u);
}

TEST_F(FaultInjectionTest, ScopedFailPointDisarmsOnExit) {
  {
    ScopedFailPoint fp("test.scoped", FailPointSpec{});
    EXPECT_TRUE(FailPoints::Instance().Evaluate("test.scoped").has_value());
  }
  EXPECT_FALSE(FailPoints::Instance().Evaluate("test.scoped").has_value());
}

// --- retry with backoff ---

TEST_F(FaultInjectionTest, BackoffRetriesTransientsThenSucceeds) {
  BackoffPolicy policy;
  policy.initial_delay = std::chrono::microseconds(1);
  int attempts = 0;
  Status status = RetryWithBackoff(policy, [&] {
    ++attempts;
    if (attempts < 3) return Status::IOError("transient");
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(attempts, 3);
}

TEST_F(FaultInjectionTest, BackoffDoesNotRetryDeterministicErrors) {
  BackoffPolicy policy;
  policy.initial_delay = std::chrono::microseconds(1);
  int attempts = 0;
  Status status = RetryWithBackoff(policy, [&] {
    ++attempts;
    return Status::Corruption("checksum mismatch");
  });
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(attempts, 1);
}

TEST_F(FaultInjectionTest, BackoffGivesUpAfterMaxAttempts) {
  BackoffPolicy policy;
  policy.max_attempts = 3;
  policy.initial_delay = std::chrono::microseconds(1);
  int attempts = 0;
  Status status = RetryWithBackoff(policy, [&] {
    ++attempts;
    return Status::IOError("persistent");
  });
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(attempts, 3);
}

// --- disk page file: checksums, retries, injected write damage ---

TEST_F(FaultInjectionTest, DiskRetryAbsorbsTransientReadErrors) {
  std::string path = FreshDir("disk_retry") + "/t.xrank";
  auto file = storage::PageFile::CreateOnDisk(path);
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_TRUE((*file)->Allocate().ok());
  storage::Page page{};
  page.WriteU32(0, 0xFEEDBEEF);
  ASSERT_TRUE((*file)->Write(0, page).ok());

  FailPointSpec spec;
  spec.max_triggers = 2;  // fewer than the retry budget
  ScopedFailPoint fp("page_file.read", spec);
  storage::Page out{};
  EXPECT_TRUE((*file)->Read(0, &out).ok());
  EXPECT_EQ(out.ReadU32(0), 0xFEEDBEEFu);
  EXPECT_EQ(fp.triggers(), 2u);  // both transients were absorbed
}

TEST_F(FaultInjectionTest, DiskPersistentReadErrorFailsCleanly) {
  std::string path = FreshDir("disk_persist") + "/t.xrank";
  auto file = storage::PageFile::CreateOnDisk(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Allocate().ok());

  ScopedFailPoint fp("page_file.read", FailPointSpec{});  // unlimited
  storage::Page out{};
  Status status = (*file)->Read(0, &out);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_GT(fp.triggers(), 1u);  // the retry loop tried more than once
}

TEST_F(FaultInjectionTest, SilentlyCorruptedWriteIsCaughtOnRead) {
  std::string path = FreshDir("disk_corrupt") + "/t.xrank";
  auto file = storage::PageFile::CreateOnDisk(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Allocate().ok());

  storage::Page page{};
  page.WriteU32(0, 123);
  {
    FailPointSpec spec;
    spec.max_triggers = 1;
    ScopedFailPoint fp("page_file.corrupt_write", spec);
    ASSERT_TRUE((*file)->Write(0, page).ok());  // the damage is silent
  }
  storage::Page out{};
  Status status = (*file)->Read(0, &out);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos)
      << status;
  EXPECT_NE(status.message().find(path), std::string::npos) << status;
}

TEST_F(FaultInjectionTest, TornWriteIsCaughtOnRead) {
  std::string path = FreshDir("disk_torn") + "/t.xrank";
  auto file = storage::PageFile::CreateOnDisk(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Allocate().ok());

  // Every byte matters: any torn prefix leaves a payload whose tail
  // disagrees with the header CRC.
  storage::Page page{};
  for (size_t i = 0; i < storage::kPageSize; ++i) {
    page.data[i] = static_cast<char>((i * 31 + 7) & 0xFF);
  }
  {
    FailPointSpec spec;
    spec.max_triggers = 1;
    ScopedFailPoint fp("page_file.torn_write", spec);
    EXPECT_FALSE((*file)->Write(0, page).ok());  // simulated mid-write crash
  }
  storage::Page out{};
  Status status = (*file)->Read(0, &out);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status;
}

TEST_F(FaultInjectionTest, ExternalBitRotIsCaughtOnRead) {
  std::string dir = FreshDir("disk_bitrot");
  std::string path = dir + "/t.xrank";
  {
    auto file = storage::PageFile::CreateOnDisk(path);
    ASSERT_TRUE(file.ok());
    for (int p = 0; p < 3; ++p) {
      ASSERT_TRUE((*file)->Allocate().ok());
      storage::Page page{};
      page.WriteU32(8, static_cast<uint32_t>(p) * 7 + 1);
      ASSERT_TRUE((*file)->Write(static_cast<storage::PageId>(p), page).ok());
    }
    ASSERT_TRUE((*file)->Sync().ok());
  }
  // Flip one payload byte of page 1 behind the storage layer's back.
  {
    std::FILE* raw = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(raw, nullptr);
    long offset = (storage::kDiskPageHeaderSize + storage::kPageSize) * 1 +
                  storage::kDiskPageHeaderSize + 500;
    ASSERT_EQ(std::fseek(raw, offset, SEEK_SET), 0);
    int c = std::fgetc(raw);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(raw, offset, SEEK_SET), 0);
    std::fputc(c ^ 0xFF, raw);
    std::fclose(raw);
  }
  auto reopened = storage::PageFile::OpenOnDisk(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  storage::Page out{};
  EXPECT_TRUE((*reopened)->Read(0, &out).ok());  // untouched page still fine
  Status status = (*reopened)->Read(1, &out);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("page 1"), std::string::npos) << status;
}

// --- the generic FaultInjectionPageFile wrapper ---

TEST_F(FaultInjectionTest, WrapperInjectsReadErrorsAndBitFlips) {
  storage::FaultInjectionPageFile file(storage::PageFile::CreateInMemory(),
                                       "fipf");
  ASSERT_TRUE(file.Allocate().ok());
  storage::Page page{};
  page.WriteU32(16, 4242);
  ASSERT_TRUE(file.Write(0, page).ok());

  {
    FailPointSpec spec;
    spec.max_triggers = 1;
    ScopedFailPoint fp("fipf.read", spec);
    storage::Page out{};
    EXPECT_EQ(file.Read(0, &out).code(), StatusCode::kIOError);
    EXPECT_TRUE(file.Read(0, &out).ok());  // trigger budget spent
    EXPECT_EQ(out.ReadU32(16), 4242u);
  }
  {
    FailPointSpec spec;
    spec.action = Action::kBitFlip;
    spec.max_triggers = 1;
    ScopedFailPoint fp("fipf.read", spec);
    storage::Page out{};
    ASSERT_TRUE(file.Read(0, &out).ok());
    int differing_bits = 0;
    for (size_t i = 0; i < storage::kPageSize; ++i) {
      differing_bits +=
          __builtin_popcount((static_cast<unsigned char>(out.data[i]) ^
                              static_cast<unsigned char>(page.data[i])) &
                             0xFF);
    }
    EXPECT_EQ(differing_bits, 1);  // exactly one flipped bit
  }
}

TEST_F(FaultInjectionTest, WrapperTornWriteKeepsPrefixOnly) {
  storage::FaultInjectionPageFile file(storage::PageFile::CreateInMemory(),
                                       "fipf");
  ASSERT_TRUE(file.Allocate().ok());
  storage::Page page{};
  for (size_t i = 0; i < storage::kPageSize; ++i) {
    page.data[i] = static_cast<char>(i & 0x7F);
  }
  FailPointSpec spec;
  spec.action = Action::kTornWrite;
  spec.max_triggers = 1;
  ScopedFailPoint fp("fipf.write", spec);
  EXPECT_EQ(file.Write(0, page).code(), StatusCode::kIOError);
  storage::Page out{};
  ASSERT_TRUE(file.Read(0, &out).ok());
  // Some prefix of the new payload landed; the tail still holds old bytes
  // (zeros, from the fresh allocation).
  size_t prefix = 0;
  while (prefix < storage::kPageSize && out.data[prefix] == page.data[prefix]) {
    ++prefix;
  }
  for (size_t i = prefix; i < storage::kPageSize; ++i) {
    ASSERT_EQ(out.data[i], 0) << "torn write leaked past its prefix at " << i;
  }
}

// --- crash-safe index commit ---

TEST_F(FaultInjectionTest, CommittedDirectoryReopensAndServes) {
  std::string dir = FreshDir("commit_ok");
  EngineOptions options = DiskOptions(dir);
  auto built = XRankEngine::Build(Corpus(), options);
  ASSERT_TRUE(built.ok()) << built.status();
  auto baseline = (*built)->Query("xql language", 10, IndexKind::kDil);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_FALSE(baseline->results.empty());

  auto manifest = index::ReadManifestFile(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->entries.size(), 2u);

  auto reopened = XRankEngine::Open(Corpus(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  for (IndexKind kind : {IndexKind::kDil, IndexKind::kHdil}) {
    auto response = (*reopened)->Query("xql language", 10, kind);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->results.size(), baseline->results.size());
    for (size_t i = 0; i < response->results.size(); ++i) {
      EXPECT_EQ(response->results[i].id, baseline->results[i].id);
      EXPECT_DOUBLE_EQ(response->results[i].rank, baseline->results[i].rank);
    }
  }
}

TEST_F(FaultInjectionTest, CrashBeforeRenameLeavesNothingCommitted) {
  std::string dir = FreshDir("crash_rename");
  EngineOptions options = DiskOptions(dir);
  {
    FailPointSpec spec;
    spec.max_triggers = 1;
    ScopedFailPoint fp("index_commit.before_rename", spec);
    auto built = XRankEngine::Build(Corpus(), options);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kIOError);
  }
  // No commit point was reached: open must refuse, precisely.
  auto reopened = XRankEngine::Open(Corpus(), options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kNotFound);
  EXPECT_NE(reopened.status().message().find("MANIFEST"), std::string::npos);
  // A clean rebuild over the crashed directory succeeds and serves.
  auto rebuilt = XRankEngine::Build(Corpus(), options);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  auto reopened2 = XRankEngine::Open(Corpus(), options);
  ASSERT_TRUE(reopened2.ok()) << reopened2.status();
}

TEST_F(FaultInjectionTest, CrashBetweenRenameAndManifestIsRefused) {
  std::string dir = FreshDir("crash_manifest");
  EngineOptions options = DiskOptions(dir);
  {
    FailPointSpec spec;
    spec.max_triggers = 1;
    ScopedFailPoint fp("index_commit.before_manifest", spec);
    auto built = XRankEngine::Build(Corpus(), options);
    ASSERT_FALSE(built.ok());
  }
  // Data files exist under their final names, but no MANIFEST seals them.
  auto orphan = storage::PageFile::OpenOnDisk(dir + "/DIL.xrank");
  EXPECT_TRUE(orphan.ok());
  auto reopened = XRankEngine::Open(Corpus(), options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kNotFound);
  auto rebuilt = XRankEngine::Build(Corpus(), options);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
}

TEST_F(FaultInjectionTest, TamperedCommittedFileIsRefusedOnOpen) {
  std::string dir = FreshDir("tamper");
  EngineOptions options = DiskOptions(dir);
  auto built = XRankEngine::Build(Corpus(), options);
  ASSERT_TRUE(built.ok()) << built.status();
  built->reset();  // close the files before tampering

  std::string victim = dir + "/HDIL.xrank";
  std::FILE* raw = std::fopen(victim.c_str(), "r+b");
  ASSERT_NE(raw, nullptr);
  long offset = storage::kDiskPageHeaderSize + 64;  // payload of page 0
  ASSERT_EQ(std::fseek(raw, offset, SEEK_SET), 0);
  int c = std::fgetc(raw);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(raw, offset, SEEK_SET), 0);
  std::fputc(c ^ 0xFF, raw);
  std::fclose(raw);

  auto reopened = XRankEngine::Open(Corpus(), options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().message().find("HDIL.xrank"), std::string::npos)
      << reopened.status();
}

TEST_F(FaultInjectionTest, ManifestTextRejectsTampering) {
  index::Manifest manifest;
  manifest.entries.push_back(
      index::ManifestEntry{"DIL.xrank", IndexKind::kDil, 12, 0xABCD1234, {}});
  std::string blob = index::SerializeManifest(manifest);
  auto parsed = index::ParseManifest(blob);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->entries.size(), 1u);
  EXPECT_EQ(parsed->entries[0].file, "DIL.xrank");
  EXPECT_EQ(parsed->entries[0].page_count, 12u);
  EXPECT_EQ(parsed->entries[0].crc, 0xABCD1234u);
  // Any single-byte change (including inside numbers) must be detected.
  for (size_t i = 0; i < blob.size(); ++i) {
    std::string copy = blob;
    copy[i] = static_cast<char>(copy[i] ^ 0x01);
    auto damaged = index::ParseManifest(copy);
    EXPECT_FALSE(damaged.ok()) << "byte " << i << " flip went unnoticed";
  }
  // Truncations too.
  for (size_t len = 0; len < blob.size(); ++len) {
    auto truncated = index::ParseManifest(blob.substr(0, len));
    EXPECT_FALSE(truncated.ok()) << "truncation to " << len << " accepted";
  }
}

// --- build and query sweeps under injected faults ---

TEST_F(FaultInjectionTest, BuildSurvivesTransientWriteFaults) {
  std::string dir = FreshDir("build_transient");
  FailPointSpec spec;
  spec.skip = 5;
  spec.max_triggers = 3;  // within one write's retry budget
  ScopedFailPoint fp("page_file.write", spec);
  auto built = XRankEngine::Build(Corpus(), DiskOptions(dir));
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(fp.triggers(), 3u);
  auto response = (*built)->Query("xql language", 10, IndexKind::kDil);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(response->results.empty());
}

TEST_F(FaultInjectionTest, BuildFailsCleanlyUnderPersistentFaults) {
  for (const char* site : {"page_file.write", "page_file.sync"}) {
    std::string dir = FreshDir(std::string("build_persist_") +
                               (site[10] == 'w' ? "w" : "s"));
    ScopedFailPoint fp(site, FailPointSpec{});  // unlimited errors
    auto built = XRankEngine::Build(Corpus(), DiskOptions(dir));
    ASSERT_FALSE(built.ok()) << site;
    EXPECT_EQ(built.status().code(), StatusCode::kIOError) << site;
    FailPoints::Instance().DisarmAll();
    // The failed build committed nothing.
    auto reopened = XRankEngine::Open(Corpus(), DiskOptions(dir));
    EXPECT_FALSE(reopened.ok()) << site;
  }
}

TEST_F(FaultInjectionTest, QueriesSurviveTransientReadFaultsUnchanged) {
  std::string dir = FreshDir("query_sweep");
  EngineOptions options = DiskOptions(dir);
  auto engine = XRankEngine::Build(Corpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto baseline = (*engine)->Query("xql language", 10, IndexKind::kDil);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_FALSE(baseline->results.empty());

  // Fail the s-th page read once, for every s: the retry must absorb each
  // single transient and the results must be bit-identical to the clean run.
  for (uint64_t s = 0; s < 20; ++s) {
    FailPointSpec spec;
    spec.skip = s;
    spec.max_triggers = 1;
    ScopedFailPoint fp("page_file.read", spec);
    auto response = (*engine)->Query("xql language", 10, IndexKind::kDil);
    ASSERT_TRUE(response.ok()) << "skip=" << s << ": " << response.status();
    ASSERT_EQ(response->results.size(), baseline->results.size());
    for (size_t i = 0; i < response->results.size(); ++i) {
      EXPECT_EQ(response->results[i].id, baseline->results[i].id);
      EXPECT_DOUBLE_EQ(response->results[i].rank, baseline->results[i].rank);
    }
  }

  // A persistent read fault surfaces as a clean IOError, never a crash.
  ScopedFailPoint fp("page_file.read", FailPointSpec{});
  auto failed = (*engine)->Query("xql language", 10, IndexKind::kDil);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
}

// --- deadlines and cooperative cancellation ---

TEST_F(FaultInjectionTest, CancelledQueryReturnsDeadlineExceeded) {
  EngineOptions options;
  options.indexes = {IndexKind::kNaiveId, IndexKind::kNaiveRank,
                     IndexKind::kDil, IndexKind::kRdil, IndexKind::kHdil};
  auto engine = XRankEngine::Build(Corpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  std::atomic<bool> cancel{true};  // cancelled before the query starts
  query::QueryOptions qopts;
  qopts.cancel = &cancel;
  uint64_t expected = 0;
  for (IndexKind kind :
       {IndexKind::kNaiveId, IndexKind::kNaiveRank, IndexKind::kDil,
        IndexKind::kRdil, IndexKind::kHdil}) {
    auto response = (*engine)->Query("xql language", 10, kind, qopts);
    ASSERT_FALSE(response.ok()) << index::IndexKindName(kind);
    EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
        << index::IndexKindName(kind);
    ++expected;
    EXPECT_EQ((*engine)->serving_counters(kind).deadline_exceeded_queries,
              expected);
  }
}

TEST_F(FaultInjectionTest, CancelledQueryCanServePartialResults) {
  EngineOptions options;
  options.indexes = {IndexKind::kDil};
  auto engine = XRankEngine::Build(Corpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  std::atomic<bool> cancel{true};
  query::QueryOptions qopts;
  qopts.cancel = &cancel;
  qopts.allow_partial_results = true;
  auto partial = (*engine)->Query("xql language", 10, IndexKind::kDil, qopts);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_TRUE(partial->stats.partial);
  EXPECT_EQ((*engine)->serving_counters(IndexKind::kDil)
                .partial_result_queries,
            1u);

  // The truncated response must not have been cached: the same query
  // without a budget returns the full result set.
  auto full = (*engine)->Query("xql language", 10, IndexKind::kDil);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_FALSE(full->stats.partial);
  EXPECT_FALSE(full->results.empty());
  EXPECT_GE(full->results.size(), partial->results.size());
}

TEST_F(FaultInjectionTest, EngineDefaultQueryOptionsApply) {
  std::atomic<bool> cancel{true};
  EngineOptions options;
  options.indexes = {IndexKind::kHdil};
  options.query.cancel = &cancel;
  options.query.allow_partial_results = true;
  auto engine = XRankEngine::Build(Corpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto response = (*engine)->Query("xql language", 10, IndexKind::kHdil);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->stats.partial);
}

TEST_F(FaultInjectionTest, DeadlineExpiryIsPrompt) {
  // The acceptance bound is "deadline honored within 2x". Drive the checker
  // directly in a tight loop: the clock stride must not let expiry detection
  // drift past twice the budget.
  query::QueryOptions qopts;
  qopts.deadline_ms = 100;
  query::QueryDeadline deadline(qopts);
  auto start = std::chrono::steady_clock::now();
  while (deadline.Check().ok()) {
  }
  double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 99.0);
  EXPECT_LE(elapsed_ms, 200.0);  // within 2x
  EXPECT_TRUE(deadline.expired());
  EXPECT_EQ(deadline.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultInjectionTest, CompactionRecommitsManifest) {
  std::string dir = FreshDir("compact");
  EngineOptions options = DiskOptions(dir);
  auto engine = XRankEngine::Build(Corpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto before = index::ReadManifestFile(dir);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE((*engine)->DeleteDocument("second.xml").ok());
  ASSERT_TRUE((*engine)->CompactDeletions().ok());
  // The compacted (smaller) files are sealed by a fresh MANIFEST; the
  // directory reopens cleanly against them.
  auto after = index::ReadManifestFile(dir);
  ASSERT_TRUE(after.ok()) << after.status();
  for (const index::ManifestEntry& entry : after->entries) {
    EXPECT_TRUE(index::VerifyManifestEntry(dir, entry).ok()) << entry.file;
  }
}

}  // namespace
}  // namespace xrank

// Retired on-disk formats and CLI values. The vgb (group-varint) posting
// codec, build-time document reordering and rank quantization were removed,
// but their ids stay reserved: an index header, MANIFEST entry or segment
// line, or SHARDING root that uses them must be refused with
// Status::Corruption and a message naming the retired feature, never
// misread. Identity-ordered, float-rank files keep opening unchanged, and
// the CLI refuses the retired flags and flag values.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <utility>

#include "common/crc32.h"
#include "core/shard_router.h"
#include "index/codec.h"
#include "index/dil_index.h"
#include "index/index_builder.h"
#include "index/manifest.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace xrank {
namespace {

// Header offsets of the codec id, the rank encoding and the document-reorder
// id (index/index_builder.cc).
constexpr size_t kCodecIdOffset = 64;
constexpr size_t kRankEncodingOffset = 68;
constexpr size_t kReorderIdOffset = 80;

std::unique_ptr<storage::PageFile> BuildSmallDilFile() {
  index::TermPostingsMap postings;
  for (uint32_t doc = 0; doc < 20; ++doc) {
    index::Posting posting;
    posting.id = dewey::DeweyId({doc, 0, 1});
    posting.elem_rank = 0.01f * static_cast<float>(doc + 1);
    posting.positions = {doc};
    postings["alpha"].push_back(posting);
  }
  auto file = storage::PageFile::CreateInMemory();
  auto built = index::BuildDilIndex(postings, std::move(file));
  EXPECT_TRUE(built.ok()) << built.status();
  return std::move(built->file);
}

// Opens a copy of `file` whose header word at `offset` holds `value`.
Result<index::BuiltIndex> OpenPatched(const storage::PageFile& file,
                                      size_t offset, uint32_t value) {
  auto copy = storage::PageFile::CreateInMemory();
  storage::Page page;
  for (storage::PageId p = 0; p < file.page_count(); ++p) {
    EXPECT_TRUE(file.Read(p, &page).ok());
    if (p == 0) page.WriteU32(offset, value);
    EXPECT_TRUE(copy->Allocate().ok());
    EXPECT_TRUE(copy->Write(p, page).ok());
  }
  return index::OpenIndex(std::move(copy));
}

// Expects `status` to be a Corruption whose message contains `needle`.
void ExpectRefused(const Status& status, const std::string& needle) {
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status;
  EXPECT_NE(status.message().find(needle), std::string::npos) << status;
}

// `body` followed by the commit trailer that covers it.
std::string WithCommit(const std::string& body) {
  return body + "commit " + std::to_string(Crc32c(body)) + "\n";
}

// A committed MANIFEST with one DIL entry of the given codec, rank encoding
// and reorder id.
std::string ManifestWith(uint32_t codec, uint32_t reorder,
                         uint32_t ranks = 0) {
  std::string body = "xrank-manifest v1\nfile dil.xrank kind 3 pages 7 crc 42";
  body += " codec " + std::to_string(codec) + " ranks " +
          std::to_string(ranks) + " vbmw 0";
  body += " reorder " + std::to_string(reorder) + "\n";
  return WithCommit(body);
}

TEST(RetiredFormatTest, VgbCodecIdInHeaderIsRefused) {
  auto file = BuildSmallDilFile();
  const uint32_t vgb = index::kRetiredPostingCodecVarintGb;
  auto opened = OpenPatched(*file, kCodecIdOffset, vgb);
  ASSERT_FALSE(opened.ok());
  ExpectRefused(opened.status(), "vgb");
}

TEST(RetiredFormatTest, VgbCodecIdInManifestIsRefused) {
  auto parsed = index::ParseManifest(ManifestWith(2, 0));
  ASSERT_FALSE(parsed.ok());
  ExpectRefused(parsed.status(), "vgb");
}

TEST(RetiredFormatTest, ReorderIdInHeaderIsRefused) {
  auto file = BuildSmallDilFile();
  EXPECT_TRUE(OpenPatched(*file, kReorderIdOffset, 0).ok());
  auto opened = OpenPatched(*file, kReorderIdOffset, 1);
  ASSERT_FALSE(opened.ok());
  ExpectRefused(opened.status(), "document reordering");
}

TEST(RetiredFormatTest, ReorderTokenInManifestIsRefused) {
  // What the writer emits (ingest order) parses.
  index::ManifestEntry entry;
  entry.file = "dil.xrank";
  index::Manifest manifest;
  manifest.entries.push_back(entry);
  std::string written = index::SerializeManifest(manifest);
  EXPECT_NE(written.find(" reorder 0\n"), std::string::npos) << written;
  EXPECT_TRUE(index::ParseManifest(written).ok());
  EXPECT_TRUE(index::ParseManifest(ManifestWith(1, 0)).ok());

  auto parsed = index::ParseManifest(ManifestWith(1, 1));
  ASSERT_FALSE(parsed.ok());
  ExpectRefused(parsed.status(), "document reordering");
}

TEST(RetiredFormatTest, ReorderLineInShardingIsRefused) {
  core::ShardingManifest manifest;
  manifest.shards.push_back({"shard-0000", 0, 4});
  std::string written = core::SerializeShardingManifest(manifest);
  EXPECT_EQ(written.find("reorder"), std::string::npos) << written;
  EXPECT_TRUE(core::ParseShardingManifest(written).ok());

  std::string body = written.substr(0, written.rfind("commit "));
  body += "reorder 1\n";
  auto parsed = core::ParseShardingManifest(WithCommit(body));
  ASSERT_FALSE(parsed.ok());
  ExpectRefused(parsed.status(), "document reordering");
}

TEST(RetiredFormatTest, RankEncodingInHeaderIsRefused) {
  auto file = BuildSmallDilFile();
  EXPECT_TRUE(OpenPatched(*file, kRankEncodingOffset, 0).ok());
  for (uint32_t encoding : {1u, 2u}) {
    auto opened = OpenPatched(*file, kRankEncodingOffset, encoding);
    ASSERT_FALSE(opened.ok()) << encoding;
    ExpectRefused(opened.status(), "rank quantization");
  }
}

TEST(RetiredFormatTest, RankTokenInManifestIsRefused) {
  // What the writer emits (float ranks) parses, in a base entry and in a
  // segment line alike.
  index::Manifest manifest;
  index::ManifestEntry entry;
  entry.file = "dil.xrank";
  manifest.entries.push_back(entry);
  index::SegmentManifestEntry segment;
  segment.index.file = "seg-1.xrank";
  segment.docs_file = "seg-1.docs";
  segment.doc_count = 1;
  manifest.segments.push_back(segment);
  std::string written = index::SerializeManifest(manifest);
  EXPECT_TRUE(index::ParseManifest(written).ok());
  EXPECT_TRUE(index::ParseManifest(ManifestWith(1, 0, 0)).ok());

  std::string body = written.substr(0, written.rfind("commit "));
  const size_t segment_line = body.find("\nsegment ");
  const size_t segment_ranks = body.find(" ranks 0 ", segment_line);
  ASSERT_NE(segment_ranks, std::string::npos) << written;
  for (uint32_t encoding : {1u, 2u}) {
    auto base = index::ParseManifest(ManifestWith(1, 0, encoding));
    ASSERT_FALSE(base.ok()) << encoding;
    ExpectRefused(base.status(), "rank quantization");

    std::string bad = body;
    bad.replace(segment_ranks + 7, 1, std::to_string(encoding));
    auto seg = index::ParseManifest(WithCommit(bad));
    ASSERT_FALSE(seg.ok()) << encoding;
    ExpectRefused(seg.status(), "rank quantization");
  }
}

// Runs the CLI with `flag`; returns its exit code and combined output.
std::pair<int, std::string> RunCli(const std::string& flag) {
  std::string command = std::string(XRANK_CLI_PATH) + " --query=x " + flag +
                        " no-such-file.xml 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return {-1, ""};
  std::string output;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    output += buffer;
  }
  int status = ::pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status)) << flag << ": " << output;
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

TEST(RetiredFormatTest, CliRefusesRetiredFlagValues) {
  const std::pair<const char*, const char*> cases[] = {
      {"--codec=vgb", "unknown posting codec 'vgb'"},
      {"--reorder=bp", "unknown option '--reorder=bp'"},
      {"--algorithm=wand", "unknown merge algorithm 'wand'"},
      {"--quant-ranks=u8", "unknown option '--quant-ranks=u8'"},
      {"--tfidf", "unknown option '--tfidf'"},
  };
  for (const auto& [flag, message] : cases) {
    auto [code, output] = RunCli(flag);
    EXPECT_NE(code, 0) << flag;
    EXPECT_NE(output.find(message), std::string::npos) << output;
  }
}

}  // namespace
}  // namespace xrank

// Posting-codec unit and property tests: bit-packing round trips (dispatched
// kernel cross-checked against the portable scalar), registry lookups and
// format validation, per-codec page-encoder round trips, and corruption
// torture — a decoder fed damaged pages, headers or manifests must return a
// Status, never crash or read out of bounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/bitpack.h"
#include "common/crc32.h"
#include "common/random.h"
#include "index/codec.h"
#include "index/dil_index.h"
#include "index/index_builder.h"
#include "index/manifest.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "test_util.h"

namespace xrank::index {
namespace {

// ------------------------------------------------------------- bit packing --

TEST(BitpackTest, RoundTripsEveryWidthAndAwkwardCount) {
  xrank::Random rng(71);
  for (unsigned width = 0; width <= 32; ++width) {
    const uint32_t mask = width == 32 ? 0xFFFFFFFFu
                          : width == 0 ? 0u
                                       : ((uint32_t{1} << width) - 1);
    for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{8}, size_t{9},
                     size_t{127}, size_t{128}, size_t{129}, size_t{1000}}) {
      std::vector<uint32_t> values(n);
      for (uint32_t& v : values) {
        v = static_cast<uint32_t>(rng.Next64()) & mask;
      }
      std::vector<uint8_t> packed(bitpack::PackedBytes(n, width), 0xAB);
      bitpack::PackBits(values.data(), n, width, packed.data());

      std::vector<uint32_t> unpacked(n, 0xDEADBEEF);
      ASSERT_TRUE(bitpack::UnpackBits(packed.data(),
                                      packed.data() + packed.size(), n, width,
                                      unpacked.data()))
          << "width=" << width << " n=" << n;
      EXPECT_EQ(unpacked, values) << "width=" << width << " n=" << n;

      // The dispatched kernel (possibly SIMD) must agree with the portable
      // scalar reference bit for bit.
      std::vector<uint32_t> portable(n, 0);
      ASSERT_TRUE(bitpack::UnpackBitsPortable(packed.data(),
                                              packed.data() + packed.size(),
                                              n, width, portable.data()));
      EXPECT_EQ(portable, values) << "width=" << width << " n=" << n;
    }
  }
}

TEST(BitpackTest, RejectsTruncatedInput) {
  std::vector<uint32_t> values(100, 0x5A5A5A5Au & 0x1FFFFu);
  const unsigned width = 17;
  std::vector<uint8_t> packed(bitpack::PackedBytes(values.size(), width));
  bitpack::PackBits(values.data(), values.size(), width, packed.data());
  std::vector<uint32_t> out(values.size());
  // Any shorter buffer must be refused up front — no partial decode relies
  // on bytes past in_end.
  for (size_t len = 0; len < packed.size(); ++len) {
    EXPECT_FALSE(bitpack::UnpackBits(packed.data(), packed.data() + len,
                                     values.size(), width, out.data()))
        << len;
    EXPECT_FALSE(bitpack::UnpackBitsPortable(packed.data(),
                                             packed.data() + len,
                                             values.size(), width, out.data()))
        << len;
  }
  EXPECT_FALSE(bitpack::UnpackBits(packed.data(),
                                   packed.data() + packed.size(),
                                   values.size(), 33, out.data()));
}

TEST(BitpackTest, BitWidthMatchesDefinition) {
  EXPECT_EQ(bitpack::BitWidth(0), 0u);
  EXPECT_EQ(bitpack::BitWidth(1), 1u);
  EXPECT_EQ(bitpack::BitWidth(255), 8u);
  EXPECT_EQ(bitpack::BitWidth(256), 9u);
  EXPECT_EQ(bitpack::BitWidth(0xFFFFFFFFu), 32u);
}

// ---------------------------------------------------------------- registry --

TEST(CodecRegistryTest, KnownCodecsResolveUnknownAreRefused) {
  ASSERT_EQ(RegisteredPostingCodecs().size(), 2u);
  struct {
    uint32_t id;
    const char* name;
  } expected[] = {{kPostingCodecVarint, "varint"},
                  {kPostingCodecBp128, "bp128"}};
  for (const auto& e : expected) {
    const PostingCodec* codec = FindPostingCodec(e.id);
    ASSERT_NE(codec, nullptr) << e.name;
    EXPECT_EQ(codec->id(), e.id);
    EXPECT_EQ(codec->name(), e.name);
    EXPECT_EQ(FindPostingCodecByName(e.name), codec);
    auto resolved = ResolvePostingCodec({e.id});
    ASSERT_TRUE(resolved.ok()) << resolved.status();
    EXPECT_EQ(*resolved, codec);
  }
  EXPECT_EQ(FindPostingCodec(99), nullptr);
  EXPECT_EQ(FindPostingCodecByName("zstd"), nullptr);
  EXPECT_FALSE(ResolvePostingCodec({99}).ok());
}

// ------------------------------------------------------ encoder round trip --

DecodedBlock MakeBlockPostings(size_t count, uint64_t seed) {
  xrank::Random rng(seed);
  DecodedBlock postings;
  uint32_t doc = 0, leaf = 0;
  for (size_t i = 0; i < count; ++i) {
    leaf += 1 + static_cast<uint32_t>(rng.Uniform(4));
    if (leaf > 60) {
      leaf = 0;
      ++doc;
    }
    const float rank = static_cast<float>(rng.NextDouble());
    uint32_t pos = static_cast<uint32_t>(rng.Uniform(50));
    std::vector<uint32_t> positions(1 + rng.Uniform(3));
    for (uint32_t& position : positions) {
      pos += 1 + static_cast<uint32_t>(rng.Uniform(9));
      position = pos;
    }
    testutil::AppendPosting(&postings, {doc, 1, leaf / 8, leaf % 8}, rank,
                            positions);
  }
  return postings;
}

// One (codec id, rank layout) per registered codec.
using testutil::RankLayout;
using PageFormat = std::pair<uint32_t, RankLayout>;

class CodecPageTest : public ::testing::TestWithParam<PageFormat> {};

TEST_P(CodecPageTest, EncoderFlushDecodeRoundTrips) {
  const uint32_t codec_id = GetParam().first;
  const PostingCodec* codec = FindPostingCodec(codec_id);
  ASSERT_NE(codec, nullptr);
  auto postings = MakeBlockPostings(400, 21);
  PostingFormat format = MakePostingFormat(codec, {codec_id},
                                           /*delta_encode_ids=*/true);

  auto encoder = codec->NewEncoder(format);
  std::vector<storage::Page> pages;
  std::vector<DecodedBlock> expected_by_page(1);
  for (size_t i = 0; i < postings.size(); ++i) {
    const PostingView posting = postings.at(i);
    auto added = encoder->Add(posting);
    ASSERT_TRUE(added.ok()) << added.status();
    if (!*added) {
      storage::Page page;
      auto used = encoder->Flush(&page);
      ASSERT_TRUE(used.ok()) << used.status();
      EXPECT_GT(*used, 0u);
      EXPECT_LE(*used, storage::kPageSize);
      pages.push_back(page);
      expected_by_page.emplace_back();
      added = encoder->Add(posting);
      ASSERT_TRUE(added.ok() && *added) << "retry on empty page must fit";
    }
    expected_by_page.back().Append(posting);
  }
  if (encoder->count() > 0) {
    storage::Page page;
    ASSERT_TRUE(encoder->Flush(&page).ok());
    pages.push_back(page);
  }
  ASSERT_EQ(pages.size(), expected_by_page.size());

  DecodedBlock block;
  for (size_t p = 0; p < pages.size(); ++p) {
    ASSERT_TRUE(codec->DecodePage(pages[p], format, &block).ok());
    ASSERT_EQ(block.size(), expected_by_page[p].size()) << p;
    for (size_t i = 0; i < block.size(); ++i) {
      EXPECT_TRUE(
          testutil::SamePosting(block.at(i), expected_by_page[p].at(i)));
    }
  }
}

// Damaged pages: flip bytes and truncate (zero the tail) — DecodePage must
// return OK or Corruption, never crash, hang, or produce an unbounded
// allocation. Decoding into a dirty recycled buffer must be just as safe.
TEST_P(CodecPageTest, DecodeSurvivesBitFlipsAndTruncation) {
  const uint32_t codec_id = GetParam().first;
  const PostingCodec* codec = FindPostingCodec(codec_id);
  ASSERT_NE(codec, nullptr);
  auto postings = MakeBlockPostings(300, 22);
  PostingFormat format = MakePostingFormat(codec, {codec_id},
                                           /*delta_encode_ids=*/true);

  auto encoder = codec->NewEncoder(format);
  for (size_t i = 0; i < postings.size(); ++i) {
    auto added = encoder->Add(postings.at(i));
    ASSERT_TRUE(added.ok());
    if (!*added) break;  // one full page is plenty
  }
  storage::Page original;
  ASSERT_TRUE(encoder->Flush(&original).ok());

  xrank::Random rng(23);
  DecodedBlock block;  // deliberately reused across decodes
  for (int trial = 0; trial < 500; ++trial) {
    storage::Page damaged = original;
    // Bias damage toward the header/stream descriptors at the front, where
    // counts and offsets live.
    size_t victim = rng.Bernoulli(0.5) ? rng.Uniform(64)
                                       : rng.Uniform(storage::kPageSize);
    damaged.data[victim] = static_cast<char>(rng.Next64());
    Status status = codec->DecodePage(damaged, format, &block);
    (void)status;  // ok() either way
  }
  for (size_t keep = 0; keep < 96; ++keep) {
    storage::Page truncated = original;
    std::memset(truncated.data.data() + keep, 0, storage::kPageSize - keep);
    Status status = codec->DecodePage(truncated, format, &block);
    (void)status;
  }
  // The undamaged page must still decode after all that buffer reuse.
  ASSERT_TRUE(codec->DecodePage(original, format, &block).ok());
  EXPECT_GT(block.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, CodecPageTest,
    ::testing::Values(
        std::make_pair(kPostingCodecVarint, RankLayout::kFloat32),
        std::make_pair(kPostingCodecBp128, RankLayout::kFloat32)),
    [](const ::testing::TestParamInfo<PageFormat>& info) {
      return std::string(FindPostingCodec(info.param.first)->name()) + "_" +
             testutil::RankLayoutName(info.param.second);
    });

// ------------------------------------------- format validation at open time --

TEST(CodecValidationTest, OpenIndexRefusesUnregisteredCodecId) {
  TermPostingsMap postings;
  postings["alpha"] = MakeBlockPostings(50, 31);
  auto built = BuildDilIndex(postings, storage::PageFile::CreateInMemory());
  ASSERT_TRUE(built.ok()) << built.status();

  // Sanity: the unpatched file opens.
  {
    auto copy = storage::PageFile::CreateInMemory();
    storage::Page page;
    for (storage::PageId p = 0; p < built->file->page_count(); ++p) {
      ASSERT_TRUE(built->file->Read(p, &page).ok());
      ASSERT_TRUE(copy->Allocate().ok());
      ASSERT_TRUE(copy->Write(p, page).ok());
    }
    EXPECT_TRUE(OpenIndex(std::move(copy)).ok());
  }
  // Patch the header's codec id to an unregistered value: Open must refuse
  // with a clean Status instead of misdecoding pages.
  for (uint32_t bad_field : {0u, 1u}) {
    auto copy = storage::PageFile::CreateInMemory();
    storage::Page page;
    for (storage::PageId p = 0; p < built->file->page_count(); ++p) {
      ASSERT_TRUE(built->file->Read(p, &page).ok());
      if (p == 0) {
        // Offsets 64/68: codec id and the retired rank encoding (see
        // index_builder.cc).
        page.WriteU32(bad_field == 0 ? 64 : 68, 99);
      }
      ASSERT_TRUE(copy->Allocate().ok());
      ASSERT_TRUE(copy->Write(p, page).ok());
    }
    auto reopened = OpenIndex(std::move(copy));
    ASSERT_FALSE(reopened.ok()) << "bad_field=" << bad_field;
  }
}

TEST(CodecValidationTest, OpenIndexRefusesFutureLexiconFormatVersion) {
  // A lexicon format version this binary does not know means the blob may
  // carry fields we cannot parse; Open must refuse with a clean Status
  // instead of misaligning the decode.
  TermPostingsMap postings;
  postings["alpha"] = MakeBlockPostings(50, 31);
  auto built = BuildDilIndex(postings, storage::PageFile::CreateInMemory());
  ASSERT_TRUE(built.ok()) << built.status();

  auto copy = storage::PageFile::CreateInMemory();
  storage::Page page;
  for (storage::PageId p = 0; p < built->file->page_count(); ++p) {
    ASSERT_TRUE(built->file->Read(p, &page).ok());
    if (p == 0) {
      // Offset 76: lexicon format version (see index_builder.cc).
      page.WriteU32(76, kLexiconFormatVersion + 1);
    }
    ASSERT_TRUE(copy->Allocate().ok());
    ASSERT_TRUE(copy->Write(p, page).ok());
  }
  auto reopened = OpenIndex(std::move(copy));
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("lexicon format version"),
            std::string::npos)
      << reopened.status();
}

TEST(CodecValidationTest, ManifestRefusesUnknownCodecId) {
  Manifest manifest;
  ManifestEntry entry;
  entry.file = "dil.xrank";
  entry.kind = IndexKind::kDil;
  entry.page_count = 3;
  entry.crc = 12345;
  entry.format = PostingFormatSpec{kPostingCodecBp128, 10};
  manifest.entries.push_back(entry);

  // Valid round trip first.
  auto parsed = ParseManifest(SerializeManifest(manifest));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->entries.size(), 1u);
  EXPECT_EQ(parsed->entries[0].format, entry.format);

  // Unknown codec id: serialization succeeds (it is just text) but parsing
  // must refuse — a mixed-version directory fails at open.
  manifest.entries[0].format.codec_id = 99;
  auto bad_codec = ParseManifest(SerializeManifest(manifest));
  EXPECT_FALSE(bad_codec.ok());
}

TEST(CodecValidationTest, LegacyManifestLineParsesAsDefaultFormat) {
  // A pre-codec MANIFEST has 8-token file lines; they must parse to the
  // varint baseline so old directories keep opening.
  std::string body = "xrank-manifest v1\n";
  body += "file dil.xrank kind 3 pages 7 crc 42\n";
  char commit[64];
  std::snprintf(commit, sizeof(commit), "commit %u\n", Crc32c(body));
  auto parsed = ParseManifest(body + commit);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->entries.size(), 1u);
  EXPECT_EQ(parsed->entries[0].format, PostingFormatSpec{});
  EXPECT_EQ(parsed->entries[0].page_count, 7u);
}

TEST(CodecValidationTest, TruncatedManifestLinesAreRefused) {
  // Lines with the codec suffix torn off mid-way (commit CRC recomputed, so
  // the line damage itself is what the parser judges). An 8-token prefix is
  // a *valid* legacy line by design — these are the in-between shapes, plus
  // a codec id wider than its u32 field, which must not wrap to varint.
  const char* bad_lines[] = {
      "file dil.xrank kind 3 pages 7 crc 42 codec",
      "file dil.xrank kind 3 pages 7 crc 42 codec 1",
      "file dil.xrank kind 3 pages 7 crc 42 codec 1 ranks",
      "file dil.xrank kind 3 pages 7 crc 42 kodec 1 ranks 2",
      "file dil.xrank kind 3 pages 7 crc 42 codec one ranks 2",
      "file dil.xrank kind 3 pages 7 crc 42 codec 1 ranks two",
      "file dil.xrank kind 3 pages 7 crc 42 codec 4294967296 ranks 0",
  };
  for (const char* line : bad_lines) {
    std::string body = "xrank-manifest v1\n" + std::string(line) + "\n";
    char commit[64];
    std::snprintf(commit, sizeof(commit), "commit %u\n", Crc32c(body));
    auto parsed = ParseManifest(body + commit);
    EXPECT_FALSE(parsed.ok()) << line;
  }
}

}  // namespace
}  // namespace xrank::index

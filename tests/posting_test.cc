// Tests for posting-list serialization: page layout, delta encoding,
// sequential cursors, page seeks, and random slot access.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/random.h"
#include "index/analyzer.h"
#include "index/codec.h"
#include "index/lexicon.h"
#include "index/posting.h"
#include "storage/buffer_pool.h"
#include "test_util.h"

namespace xrank::index {
namespace {

using dewey::DeweyId;
using testutil::AppendPosting;
using testutil::SamePosting;

DecodedBlock MakePostings(size_t count, uint64_t seed) {
  xrank::Random rng(seed);
  DecodedBlock postings;
  uint32_t doc = 0, a = 0, b = 0;
  for (size_t i = 0; i < count; ++i) {
    // Advance in Dewey order.
    b += 1 + static_cast<uint32_t>(rng.Uniform(3));
    if (b > 10) {
      b = 0;
      ++a;
    }
    if (a > 10) {
      a = 0;
      ++doc;
    }
    const float rank = static_cast<float>(rng.NextDouble());
    std::vector<uint32_t> positions(1 + rng.Uniform(5));
    uint32_t pos = static_cast<uint32_t>(rng.Uniform(100));
    for (uint32_t& position : positions) {
      pos += 1 + static_cast<uint32_t>(rng.Uniform(20));
      position = pos;
    }
    AppendPosting(&postings, {doc, a, b}, rank, positions);
  }
  return postings;
}

struct ListFixture {
  std::unique_ptr<storage::PageFile> file =
      storage::PageFile::CreateInMemory();
  storage::CostModel model;
  std::unique_ptr<storage::BufferPool> pool;
  ListExtent extent;
  std::vector<PostingLocation> locations;

  void Write(const DecodedBlock& postings, bool delta) {
    Write(postings, DefaultPostingFormat(delta));
  }

  void Write(const DecodedBlock& postings, const PostingFormat& format) {
    PostingListWriter writer(file.get(), format);
    for (size_t i = 0; i < postings.size(); ++i) {
      auto loc = writer.Add(postings.at(i));
      ASSERT_TRUE(loc.ok()) << loc.status();
      locations.push_back(*loc);
    }
    auto result = writer.Finish();
    ASSERT_TRUE(result.ok());
    extent = *result;
    pool = std::make_unique<storage::BufferPool>(file.get(), 256, &model);
  }
};

class PostingRoundTripTest : public ::testing::TestWithParam<bool> {};

TEST_P(PostingRoundTripTest, CursorReturnsAllPostings) {
  bool delta = GetParam();
  auto postings = MakePostings(3000, 5);
  ListFixture fixture;
  fixture.Write(postings, delta);
  EXPECT_EQ(fixture.extent.entry_count, postings.size());
  EXPECT_GT(fixture.extent.page_count, 1u);

  PostingListCursor cursor(fixture.pool.get(), fixture.extent,
                           DefaultPostingFormat(delta));
  PostingView posting;
  for (size_t i = 0; i < postings.size(); ++i) {
    auto has = cursor.Next(&posting);
    ASSERT_TRUE(has.ok()) << has.status();
    ASSERT_TRUE(*has) << i;
    EXPECT_TRUE(SamePosting(posting, postings.at(i))) << i;
  }
  auto has = cursor.Next(&posting);
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);
  EXPECT_TRUE(cursor.AtEnd());
}

TEST_P(PostingRoundTripTest, RandomAccessBySlot) {
  bool delta = GetParam();
  auto postings = MakePostings(1000, 6);
  ListFixture fixture;
  fixture.Write(postings, delta);
  DecodedBlock block;
  for (size_t i = 0; i < postings.size(); i += 37) {
    auto posting = ReadPostingAt(fixture.pool.get(), fixture.extent,
                                 fixture.locations[i],
                                 DefaultPostingFormat(delta), &block);
    ASSERT_TRUE(posting.ok()) << posting.status();
    EXPECT_TRUE(SamePosting(*posting, postings.at(i)));
  }
  // Out-of-range access fails.
  EXPECT_FALSE(ReadPostingAt(fixture.pool.get(), fixture.extent,
                             PostingLocation{fixture.extent.page_count, 0},
                             DefaultPostingFormat(delta), &block)
                   .ok());
}

INSTANTIATE_TEST_SUITE_P(DeltaModes, PostingRoundTripTest,
                         ::testing::Bool());

// Round-trip property over the full format cross-product: every registered
// codec × the float32 rank layout × both delta modes. Ids, positions and
// ranks must be exact.
using testutil::RankLayout;
using FormatTuple = std::tuple<uint32_t, RankLayout, bool>;

class CodecRoundTripTest : public ::testing::TestWithParam<FormatTuple> {
 protected:
  PostingFormat WriterFormat() const {
    const uint32_t codec_id = std::get<0>(GetParam());
    const PostingCodec* codec = FindPostingCodec(codec_id);
    EXPECT_NE(codec, nullptr);
    return MakePostingFormat(codec, PostingFormatSpec{codec_id},
                             std::get<2>(GetParam()));
  }
};

std::string FormatTupleName(const ::testing::TestParamInfo<FormatTuple>& info) {
  auto [codec_id, ranks, delta] = info.param;
  std::string name(FindPostingCodec(codec_id)->name());
  name += "_";
  name += testutil::RankLayoutName(ranks);
  name += delta ? "_delta" : "_raw";
  return name;
}

TEST_P(CodecRoundTripTest, CursorRoundTripsEveryFormat) {
  auto postings = MakePostings(3000, 11);
  PostingFormat format = WriterFormat();
  ListFixture fixture;
  fixture.Write(postings, format);
  EXPECT_EQ(fixture.extent.entry_count, postings.size());
  EXPECT_GT(fixture.extent.page_count, 1u);

  PostingListCursor cursor(fixture.pool.get(), fixture.extent, format);
  PostingView view;
  for (size_t i = 0; i < postings.size(); ++i) {
    auto has = cursor.Next(&view);
    ASSERT_TRUE(has.ok()) << has.status();
    ASSERT_TRUE(*has) << i;
    EXPECT_TRUE(SamePosting(view, postings.at(i))) << i;
  }
  auto has = cursor.Next(&view);
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);
  EXPECT_TRUE(cursor.AtEnd());
}

TEST_P(CodecRoundTripTest, RandomAccessBySlotEveryFormat) {
  auto postings = MakePostings(1000, 12);
  PostingFormat format = WriterFormat();
  ListFixture fixture;
  fixture.Write(postings, format);
  DecodedBlock block;
  for (size_t i = 0; i < postings.size(); i += 37) {
    auto view = ReadPostingAt(fixture.pool.get(), fixture.extent,
                              fixture.locations[i], format, &block);
    ASSERT_TRUE(view.ok()) << view.status();
    EXPECT_TRUE(SamePosting(*view, postings.at(i))) << i;
  }
  EXPECT_FALSE(ReadPostingAt(fixture.pool.get(), fixture.extent,
                             PostingLocation{fixture.extent.page_count, 0},
                             format, &block)
                   .ok());
}

TEST_P(CodecRoundTripTest, SeekToPageEveryFormat) {
  auto postings = MakePostings(2000, 13);
  PostingFormat format = WriterFormat();
  ListFixture fixture;
  fixture.Write(postings, format);
  ASSERT_GT(fixture.extent.page_count, 2u);
  size_t first_on_page1 = 0;
  while (fixture.locations[first_on_page1].page_index != 1) ++first_on_page1;

  PostingListCursor cursor(fixture.pool.get(), fixture.extent, format);
  ASSERT_TRUE(cursor.SeekToPage(1).ok());
  PostingView posting;
  auto has = cursor.Next(&posting);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(*has);
  EXPECT_EQ(DeweyId(posting.id), DeweyId(postings.at(first_on_page1).id));
  EXPECT_FALSE(cursor.SeekToPage(fixture.extent.page_count).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Formats, CodecRoundTripTest,
    ::testing::Combine(::testing::Values(kPostingCodecVarint,
                                         kPostingCodecBp128),
                       ::testing::Values(RankLayout::kFloat32),
                       ::testing::Bool()),
    FormatTupleName);

TEST(PostingListTest, SeekToPageStartsAtPageBoundary) {
  auto postings = MakePostings(2000, 7);
  ListFixture fixture;
  fixture.Write(postings, /*delta=*/true);
  ASSERT_GT(fixture.extent.page_count, 2u);

  // The first posting on page 1 is the first whose location page is 1.
  size_t first_on_page1 = 0;
  while (fixture.locations[first_on_page1].page_index != 1) ++first_on_page1;

  PostingListCursor cursor(fixture.pool.get(), fixture.extent,
                           DefaultPostingFormat(true));
  ASSERT_TRUE(cursor.SeekToPage(1).ok());
  PostingView posting;
  auto has = cursor.Next(&posting);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(*has);
  EXPECT_TRUE(SamePosting(posting, postings.at(first_on_page1)));
  EXPECT_FALSE(cursor.SeekToPage(fixture.extent.page_count).ok());
}

TEST(PostingListTest, DeltaEncodingSavesSpace) {
  // Deep sibling IDs (the XMark regime) share long prefixes, which is where
  // prefix-delta coding pays off.
  DecodedBlock postings;
  for (uint32_t leaf = 0; leaf < 20000; ++leaf) {
    AppendPosting(&postings, {0, 1, 2, 3, 4, 5, 6, leaf / 8, leaf % 8},
                  0.25f, {leaf});
  }
  ListFixture delta_fixture, raw_fixture;
  delta_fixture.Write(postings, true);
  raw_fixture.Write(postings, false);
  EXPECT_LT(delta_fixture.extent.page_count,
            raw_fixture.extent.page_count * 3 / 4);
}

TEST(PostingListTest, PositionCapTruncates) {
  std::vector<uint32_t> positions;
  for (uint32_t p = 0; p < 2 * kMaxPositionsPerPosting; ++p) {
    positions.push_back(p * 3);
  }
  DecodedBlock huge;
  AppendPosting(&huge, {1}, 0.5f, positions);
  ListFixture fixture;
  PostingListWriter writer(fixture.file.get(), DefaultPostingFormat(true));
  ASSERT_TRUE(writer.Add(huge.at(0)).ok());
  auto extent = writer.Finish();
  ASSERT_TRUE(extent.ok());
  fixture.pool =
      std::make_unique<storage::BufferPool>(fixture.file.get(), 16, nullptr);
  PostingListCursor cursor(fixture.pool.get(), *extent,
                           DefaultPostingFormat(true));
  PostingView read;
  auto has = cursor.Next(&read);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(*has);
  EXPECT_EQ(read.positions.size(), kMaxPositionsPerPosting);
  EXPECT_EQ(read.positions.front(), positions.front());
}

TEST(PostingListTest, EmptyList) {
  ListFixture fixture;
  fixture.Write({}, true);
  EXPECT_EQ(fixture.extent.entry_count, 0u);
  EXPECT_EQ(fixture.extent.page_count, 0u);
  PostingListCursor cursor(fixture.pool.get(), fixture.extent,
                           DefaultPostingFormat(true));
  PostingView posting;
  auto has = cursor.Next(&posting);
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);
}

TEST(AnalyzerTest, TokenizesAndLowercases) {
  Analyzer analyzer;
  uint32_t position = 0;
  auto tokens = analyzer.Tokenize("The XQL Query-Language, 2003!", &position);
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].term, "the");
  EXPECT_EQ(tokens[1].term, "xql");
  EXPECT_EQ(tokens[2].term, "query");
  EXPECT_EQ(tokens[3].term, "language");
  EXPECT_EQ(tokens[4].term, "2003");
  EXPECT_EQ(tokens[0].position, 0u);
  EXPECT_EQ(tokens[4].position, 4u);
  EXPECT_EQ(position, 5u);
}

TEST(AnalyzerTest, PositionsContinueAcrossCalls) {
  Analyzer analyzer;
  uint32_t position = 0;
  analyzer.Tokenize("one two", &position);
  auto tokens = analyzer.Tokenize("three", &position);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].position, 2u);
}

TEST(AnalyzerTest, StopwordsConsumePositions) {
  AnalyzerOptions options;
  options.stopwords = {"the", "of"};
  Analyzer analyzer(options);
  uint32_t position = 0;
  auto tokens = analyzer.Tokenize("anatomy of the engine", &position);
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].term, "anatomy");
  EXPECT_EQ(tokens[0].position, 0u);
  EXPECT_EQ(tokens[1].term, "engine");
  EXPECT_EQ(tokens[1].position, 3u);  // distance preserved
}

TEST(AnalyzerTest, NormalizeKeyword) {
  Analyzer analyzer;
  EXPECT_EQ(analyzer.NormalizeKeyword("XQL"), "xql");
  EXPECT_EQ(analyzer.NormalizeKeyword("  Gray "), "gray");
  EXPECT_EQ(analyzer.NormalizeKeyword("two words"), "");
  EXPECT_EQ(analyzer.NormalizeKeyword("!!"), "");
}

TEST(LexiconTest, SerializeRoundTrip) {
  Lexicon lexicon;
  TermInfo info1;
  info1.list = ListExtent{5, 3, 120};
  info1.btree_root = storage::MakeNodeRef(9, 128);
  info1.skips.push_back(SkipEntry{0, dewey::DeweyId({1, 2}), 0.75f});
  info1.skips.push_back(SkipEntry{1, dewey::DeweyId({4}), 123.5f});
  TermInfo info2;
  info2.list = ListExtent{8, 1, 4};
  info2.rank_list = ListExtent{9, 1, 2};
  info2.hash_first_page = 11;
  info2.hash_page_count = 2;
  info2.hash_slot_count = 512;
  lexicon.Add("xql", info1);
  lexicon.Add("language", info2);

  std::string blob;
  lexicon.Serialize(&blob);
  auto restored = Lexicon::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->term_count(), 2u);
  const TermInfo* xql = restored->Find("xql");
  ASSERT_NE(xql, nullptr);
  EXPECT_EQ(xql->list.first_page, 5u);
  EXPECT_EQ(xql->list.entry_count, 120u);
  EXPECT_EQ(xql->btree_root, storage::MakeNodeRef(9, 128));
  // Skip descriptors round-trip including the block-max rank field.
  EXPECT_EQ(xql->skips, info1.skips);
  const TermInfo* language = restored->Find("language");
  ASSERT_NE(language, nullptr);
  EXPECT_EQ(language->hash_slot_count, 512u);
  EXPECT_EQ(restored->Find("missing"), nullptr);
}

TEST(LexiconTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Lexicon::Deserialize("\xFF\xFF\xFF").ok());
}

TEST(LexiconTest, MaxDocRankRoundTripsAtCurrentVersion) {
  Lexicon lexicon;
  TermInfo info;
  info.list = ListExtent{2, 1, 8};
  info.max_doc_rank = 3.25f;
  lexicon.Add("term", info);
  std::string blob;
  lexicon.Serialize(&blob);
  auto restored = Lexicon::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->Find("term")->max_doc_rank, 3.25f);
}

TEST(LexiconTest, VersionZeroBlobParsesWithoutMaxDocRank) {
  // A format-version-0 blob — what every index file written before the
  // max_doc_rank field carries — must deserialize byte-exact when the
  // header says version 0, with the absent field defaulting to 0 (query
  // code then treats the bound as unknown and prunes nothing).
  Lexicon lexicon;
  TermInfo info;
  info.list = ListExtent{5, 3, 120};
  info.btree_root = storage::MakeNodeRef(9, 128);
  info.max_doc_rank = 7.5f;  // must NOT be serialized at version 0
  info.skips.push_back(SkipEntry{0, dewey::DeweyId({1, 2}), 0.75f});
  info.skips.push_back(SkipEntry{1, dewey::DeweyId({4}), 123.5f});
  lexicon.Add("xql", info);

  std::string legacy_blob;
  lexicon.Serialize(&legacy_blob, /*format_version=*/0);
  std::string current_blob;
  lexicon.Serialize(&current_blob);
  // The legacy layout is strictly smaller: no 4-byte bound per term.
  EXPECT_EQ(legacy_blob.size() + sizeof(uint32_t), current_blob.size());

  auto restored =
      Lexicon::Deserialize(legacy_blob, PostingFormatSpec{},
                           /*format_version=*/0);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const TermInfo* xql = restored->Find("xql");
  ASSERT_NE(xql, nullptr);
  EXPECT_EQ(xql->max_doc_rank, 0.0f);  // absent field -> no-prune default
  EXPECT_EQ(xql->list.first_page, 5u);
  EXPECT_EQ(xql->list.entry_count, 120u);
  EXPECT_EQ(xql->btree_root, storage::MakeNodeRef(9, 128));
  EXPECT_EQ(xql->skips, info.skips);  // skip descriptors stay aligned
}

}  // namespace
}  // namespace xrank::index

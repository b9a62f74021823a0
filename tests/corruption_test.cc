// Failure-injection tests: every on-disk decoder must reject corrupted
// input with a Status — never crash, hang, or read out of bounds. Random
// truncations and byte flips are applied to each serialized format.

#include <gtest/gtest.h>

#include <cstring>

#include "common/random.h"
#include "common/varint.h"
#include "dewey/codec.h"
#include "index/index_builder.h"
#include "index/lexicon.h"
#include "query/dil_query.h"
#include "test_util.h"

namespace xrank {
namespace {

// Runs `decode` against truncations and single-byte flips of `blob`. The
// decoder may succeed (some corruptions are undetectable) but must never
// crash; detected corruption must come back as a Status.
template <typename DecodeFn>
void Torture(const std::string& blob, uint64_t seed, DecodeFn decode) {
  // All truncations.
  for (size_t len = 0; len < blob.size(); ++len) {
    decode(blob.substr(0, len));
  }
  // Random byte flips.
  Random rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    std::string copy = blob;
    size_t victim = rng.Uniform(copy.size());
    copy[victim] = static_cast<char>(rng.Next64());
    decode(copy);
  }
}

TEST(CorruptionTest, VarintDecoderNeverCrashes) {
  std::string blob;
  for (uint64_t v : {0ULL, 127ULL, 300ULL, 1ULL << 40}) {
    PutVarint64(&blob, v);
  }
  Torture(blob, 1, [](const std::string& data) {
    size_t offset = 0;
    while (offset < data.size()) {
      auto v = GetVarint64(data, &offset);
      if (!v.ok()) break;
    }
  });
}

TEST(CorruptionTest, DeweyDecoderNeverCrashes) {
  std::string blob;
  dewey::EncodeDeweyId(dewey::DeweyId({5, 0, 3, 0, 1}), &blob);
  dewey::EncodeDeweyId(dewey::DeweyId({1000000, 2}), &blob);
  Torture(blob, 2, [](const std::string& data) {
    size_t offset = 0;
    while (offset < data.size()) {
      auto id = dewey::DecodeDeweyId(data, &offset);
      if (!id.ok()) break;
    }
  });
}

TEST(CorruptionTest, DeweyDeltaDecoderNeverCrashes) {
  dewey::DeweyId previous({5, 0, 3});
  std::string blob;
  dewey::EncodeDeweyIdDelta(previous, dewey::DeweyId({5, 0, 4, 1}), &blob);
  Torture(blob, 3, [&](const std::string& data) {
    size_t offset = 0;
    auto id = dewey::DecodeDeweyIdDelta(previous, data, &offset);
    (void)id;
  });
}

TEST(CorruptionTest, LexiconDecoderNeverCrashes) {
  index::Lexicon lexicon;
  index::TermInfo info;
  info.list = index::ListExtent{3, 2, 40, 512};
  info.btree_root = storage::MakeNodeRef(9, 64);
  lexicon.Add("alpha", info);
  lexicon.Add("beta", info);
  std::string blob;
  lexicon.Serialize(&blob);
  Torture(blob, 4, [](const std::string& data) {
    auto lex = index::Lexicon::Deserialize(data);
    (void)lex;
  });
}

TEST(CorruptionTest, TermInfoWithSkipsAndHashFieldsNeverCrashes) {
  // A lexicon entry exercising every optional TermInfo field: rank list,
  // B+-tree root, hash-index descriptor, and skip-block descriptors. The
  // varint decoder must survive arbitrary damage to any of them.
  index::Lexicon lexicon;
  index::TermInfo info;
  info.list = index::ListExtent{3, 4, 123, 8192};
  info.rank_list = index::ListExtent{7, 1, 12, 200};
  info.btree_root = storage::MakeNodeRef(9, 64);
  info.hash_first_page = 11;
  info.hash_page_count = 2;
  info.hash_slot_count = 97;
  info.hash_offset = 128;
  info.skips.push_back(index::SkipEntry{3, dewey::DeweyId({0, 1, 2}), 0.5f});
  info.skips.push_back(index::SkipEntry{4, dewey::DeweyId({5, 0}), 1e30f});
  info.skips.push_back(
      index::SkipEntry{5, dewey::DeweyId({9, 3, 1, 4}), -3.0f});
  info.skips.push_back(
      index::SkipEntry{6, dewey::DeweyId({1000000, 2, 2, 2, 2, 2}), 0.0f});
  lexicon.Add("gamma", info);
  lexicon.Add("delta", info);
  std::string blob;
  lexicon.Serialize(&blob);
  Torture(blob, 6, [](const std::string& data) {
    auto lex = index::Lexicon::Deserialize(data);
    if (!lex.ok()) return;
    // A successfully decoded (possibly silently corrupted) lexicon must at
    // least be safely traversable.
    for (const auto& [term, decoded] : lex->terms()) {
      for (const index::SkipEntry& skip : decoded.skips) {
        (void)skip.first_id.depth();
      }
    }
  });
}

TEST(CorruptionTest, BuiltIndexLexiconBlobNeverCrashes) {
  // The real thing: serialize the lexicon of an actually built HDIL index
  // (which carries skip descriptors and rank-list extents) and torture the
  // decoder with it. Catches field-interaction bugs a synthetic TermInfo
  // cannot.
  auto corpus =
      testutil::BuildIndexedCorpus({{testutil::Figure1Xml(), "f"}});
  const index::BuiltIndex& built =
      corpus->indexes.at(index::IndexKind::kHdil).built;
  bool has_skips = false;
  for (const auto& [term, info] : built.lexicon.terms()) {
    has_skips = has_skips || !info.skips.empty();
  }
  ASSERT_TRUE(has_skips) << "HDIL build should have produced skip entries";
  std::string blob;
  built.lexicon.Serialize(&blob);
  Torture(blob, 7, [](const std::string& data) {
    auto lex = index::Lexicon::Deserialize(data);
    (void)lex;
  });
}

TEST(CorruptionTest, CorruptSkipDescriptorsDoNotCrashSkipMerge) {
  // Skip descriptors steer the document-at-a-time merge. Scramble them
  // (wrong pages, wrong IDs, out-of-range pages) and run skipping queries:
  // the cursor must degrade to Status or a scan, never crash or hang.
  auto corpus =
      testutil::BuildIndexedCorpus({{testutil::Figure1Xml(), "f"}});
  index::BuiltIndex& built = corpus->indexes.at(index::IndexKind::kDil).built;

  Random rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    index::Lexicon scrambled;
    for (const auto& [term, original] : built.lexicon.terms()) {
      index::TermInfo info = original;
      for (index::SkipEntry& skip : info.skips) {
        switch (rng.Uniform(6)) {
          case 0:
            skip.page_index = static_cast<uint32_t>(rng.Next64());
            break;
          case 1:
            skip.first_id = dewey::DeweyId(
                {static_cast<uint32_t>(rng.Uniform(10)),
                 static_cast<uint32_t>(rng.Uniform(10))});
            break;
          case 2:
            skip.first_id = dewey::DeweyId({});
            break;
          case 3: {
            // Scramble the block-max rank, including non-finite and
            // negative damage: the pruning bound must treat these as
            // unusable (no skip), never as license to drop results.
            uint32_t bits = static_cast<uint32_t>(rng.Next64());
            float damaged;
            std::memcpy(&damaged, &bits, sizeof(damaged));
            skip.max_rank = damaged;
            break;
          }
          case 4:
            skip.max_rank = -skip.max_rank - 1.0f;
            break;
          default:
            break;  // leave intact
        }
      }
      scrambled.Add(term, std::move(info));
    }
    storage::BufferPool pool(built.file.get(), 64, nullptr);
    query::DilQueryProcessor processor(&pool, &scrambled,
                                       query::ScoringOptions{});
    auto response = processor.Execute({"xql", "language"}, 5);
    (void)response;  // ok() either way; just must not crash or hang
  }
}

TEST(CorruptionTest, IndexOpenRejectsCorruptedPages) {
  // Build a real DIL index, then flip bytes in its pages and reopen/query.
  auto corpus =
      testutil::BuildIndexedCorpus({{testutil::Figure1Xml(), "f"}});
  const index::BuiltIndex& built =
      corpus->indexes.at(index::IndexKind::kDil).built;

  Random rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    // Copy the whole file into a fresh memory file with one corrupted page.
    auto copy = storage::PageFile::CreateInMemory();
    uint32_t pages = built.file->page_count();
    uint32_t victim_page = static_cast<uint32_t>(rng.Uniform(pages));
    for (uint32_t p = 0; p < pages; ++p) {
      storage::Page page;
      ASSERT_TRUE(built.file->Read(p, &page).ok());
      if (p == victim_page) {
        size_t offset = rng.Uniform(storage::kPageSize);
        page.data[offset] = static_cast<char>(rng.Next64());
      }
      ASSERT_TRUE(copy->Allocate().ok());
      ASSERT_TRUE(copy->Write(p, page).ok());
    }
    // Opening may fail (corrupted header/lexicon) or succeed; neither may
    // crash, and queries on a successfully opened index must return either
    // results or a Status.
    auto reopened = index::OpenIndex(std::move(copy));
    if (!reopened.ok()) continue;
    storage::BufferPool pool(reopened->file.get(), 64, nullptr);
    query::DilQueryProcessor processor(&pool, &reopened->lexicon,
                                       query::ScoringOptions{});
    auto response = processor.Execute({"xql", "language"}, 5);
    (void)response;  // ok() either way; just must not crash
  }
}

}  // namespace
}  // namespace xrank

// Tests for index construction and persistence: build stats (the Table 1
// inputs), on-disk round trips through OpenIndex, and the structural
// relationships the paper reports (naive lists bigger than DIL, HDIL's
// index far smaller than RDIL's).

#include "index/index_builder.h"

#include <gtest/gtest.h>

#include "datagen/dblp_gen.h"
#include "datagen/xmark_gen.h"
#include "index/dil_index.h"
#include "index/hdil_index.h"
#include "index/naive_index.h"
#include "index/rdil_index.h"
#include "query/dil_query.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace xrank::index {
namespace {

using testutil::BuildIndexedCorpus;

std::vector<std::pair<std::string, std::string>> SerializeCorpus(
    const datagen::Corpus& corpus) {
  std::vector<std::pair<std::string, std::string>> docs;
  for (const xml::Document& doc : corpus.documents) {
    docs.emplace_back(xml::Serialize(doc), doc.uri);
  }
  return docs;
}

TEST(ExtractionTest, DirectContainmentOnly) {
  auto corpus = BuildIndexedCorpus(
      {{"<r><p>outer <s>inner</s></p></r>", "doc"}});
  // 'inner' is directly contained only in <s>.
  const auto& inner = corpus->extracted.dewey_postings.at("inner");
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(dewey::DeweyId(inner.at(0).id), dewey::DeweyId({0, 0, 0}));
  // 'outer' directly in <p>.
  const auto& outer = corpus->extracted.dewey_postings.at("outer");
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(dewey::DeweyId(outer.at(0).id), dewey::DeweyId({0, 0}));
}

TEST(ExtractionTest, NaivePostingsReplicateAncestors) {
  auto corpus = BuildIndexedCorpus(
      {{"<r><p>outer <s>inner</s></p></r>", "doc"}});
  // 'inner' appears for <s>, <p>, <r> in the naive postings.
  const auto& inner = corpus->extracted.naive_postings.at("inner");
  EXPECT_EQ(inner.size(), 3u);
  // Naive lists are strictly larger overall.
  size_t dewey_total = 0, naive_total = 0;
  for (const auto& [term, postings] : corpus->extracted.dewey_postings) {
    dewey_total += postings.size();
  }
  for (const auto& [term, postings] : corpus->extracted.naive_postings) {
    naive_total += postings.size();
  }
  EXPECT_GT(naive_total, dewey_total);
}

TEST(ExtractionTest, PositionsAreDocumentGlobalAndOrdered) {
  auto corpus = BuildIndexedCorpus(
      {{"<r><a>one two</a><b>three one</b></r>", "doc"}});
  const auto& one = corpus->extracted.dewey_postings.at("one");
  ASSERT_EQ(one.size(), 2u);
  // <a> holds positions {0}; <b> holds {3}.
  EXPECT_EQ(std::vector<uint32_t>(one.at(0).positions.begin(),
                                  one.at(0).positions.end()),
            std::vector<uint32_t>({0}));
  EXPECT_EQ(std::vector<uint32_t>(one.at(1).positions.begin(),
                                  one.at(1).positions.end()),
            std::vector<uint32_t>({3}));
}

TEST(ExtractionTest, ElemRanksAttached) {
  auto corpus = BuildIndexedCorpus({{testutil::Figure1Xml(), "f"}});
  for (const auto& [term, postings] : corpus->extracted.dewey_postings) {
    for (size_t i = 0; i < postings.size(); ++i) {
      const PostingView posting = postings.at(i);
      EXPECT_GT(posting.elem_rank, 0.0f) << term;
      auto node = corpus->graph.FindByDewey(dewey::DeweyId(posting.id));
      ASSERT_TRUE(node.ok());
      EXPECT_FLOAT_EQ(posting.elem_rank,
                      static_cast<float>(corpus->ranks.ranks[*node]));
    }
  }
}

TEST(ExtractionTest, OrdinalsOnlyForNaivePostings) {
  auto corpus = BuildIndexedCorpus({{testutil::Figure1Xml(), "f"}});
  ExtractionOptions options;
  options.build_naive = false;
  auto dewey_only =
      ExtractPostings(corpus->graph, corpus->ranks.ranks, options);
  ASSERT_TRUE(dewey_only.ok()) << dewey_only.status();
  EXPECT_TRUE(dewey_only->naive_postings.empty());
  EXPECT_TRUE(dewey_only->ordinal_to_dewey.empty());
  EXPECT_EQ(dewey_only->element_count, corpus->graph.element_count());
  EXPECT_EQ(dewey_only->dewey_postings, corpus->extracted.dewey_postings);
  // With the naive postings, every element has an ordinal.
  EXPECT_EQ(corpus->extracted.ordinal_to_dewey.size(),
            corpus->graph.element_count());
  EXPECT_EQ(corpus->extracted.element_count, corpus->graph.element_count());
}

TEST(IndexStatsTest, Table1ShapeHolds) {
  // Long inverted lists are where the structural size differences emerge
  // (per-term fixed costs dominate on tiny corpora): modest paper count but
  // a small vocabulary so average list length is high.
  datagen::DblpOptions gen;
  gen.num_papers = 1200;
  gen.vocabulary_size = 3000;
  datagen::Corpus corpus_data = datagen::GenerateDblp(gen);
  auto corpus = BuildIndexedCorpus(SerializeCorpus(corpus_data));

  const auto& naive_id = corpus->indexes.at(IndexKind::kNaiveId).built.stats;
  const auto& naive_rank =
      corpus->indexes.at(IndexKind::kNaiveRank).built.stats;
  const auto& dil = corpus->indexes.at(IndexKind::kDil).built.stats;
  const auto& rdil = corpus->indexes.at(IndexKind::kRdil).built.stats;
  const auto& hdil = corpus->indexes.at(IndexKind::kHdil).built.stats;

  // Naive lists replicate ancestors: bigger than DIL lists.
  EXPECT_GT(naive_id.list_bytes(), dil.list_bytes());
  EXPECT_EQ(naive_id.list_bytes(), naive_rank.list_bytes());
  // Naive-ID and DIL carry no auxiliary index.
  EXPECT_EQ(naive_id.index_bytes(), 0u);
  EXPECT_EQ(dil.index_bytes(), 0u);
  // Naive-Rank and RDIL pay for their indexes.
  EXPECT_GT(naive_rank.index_bytes(), 0u);
  EXPECT_GT(rdil.index_bytes(), 0u);
  // HDIL's full list is slightly larger than DIL's (rank prefix), but its
  // stored index is far smaller than RDIL's dense tree (Table 1: 7 MB vs
  // 156 MB on DBLP).
  EXPECT_GE(hdil.list_bytes(), dil.list_bytes());
  EXPECT_GT(hdil.index_bytes(), 0u);
  EXPECT_LT(hdil.index_bytes() * 4, rdil.index_bytes());
}

TEST(IndexPersistenceTest, OpenIndexRoundTripsOnDisk) {
  std::string path = std::string(::testing::TempDir()) + "/dil_persist.xrank";
  auto corpus = BuildIndexedCorpus({{testutil::Figure1Xml(), "f"}});
  {
    auto file = storage::PageFile::CreateOnDisk(path);
    ASSERT_TRUE(file.ok());
    auto built =
        BuildDilIndex(corpus->extracted.dewey_postings, std::move(*file));
    ASSERT_TRUE(built.ok()) << built.status();
  }
  auto reopened_file = storage::PageFile::OpenOnDisk(path);
  ASSERT_TRUE(reopened_file.ok());
  auto reopened = OpenIndex(std::move(*reopened_file));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->kind, IndexKind::kDil);
  EXPECT_EQ(reopened->lexicon.term_count(),
            corpus->extracted.dewey_postings.size());

  // Queries over the reopened index behave identically.
  storage::CostModel model;
  storage::BufferPool pool(reopened->file.get(), 128, &model);
  query::DilQueryProcessor processor(&pool, &reopened->lexicon,
                                     query::ScoringOptions{});
  auto response = processor.Execute({"xql", "language"}, 10);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->results.size(), 2u);
}

TEST(IndexPersistenceTest, AllKindsRoundTrip) {
  auto corpus = BuildIndexedCorpus({{testutil::Figure1Xml(), "f"}});
  struct Case {
    IndexKind kind;
    const TermPostingsMap* postings;
  };
  for (IndexKind kind :
       {IndexKind::kNaiveId, IndexKind::kNaiveRank, IndexKind::kDil,
        IndexKind::kRdil, IndexKind::kHdil}) {
    std::string path = std::string(::testing::TempDir()) + "/persist_" +
                       std::to_string(static_cast<int>(kind)) + ".xrank";
    {
      auto file = storage::PageFile::CreateOnDisk(path);
      ASSERT_TRUE(file.ok());
      Result<BuiltIndex> built = Status::Internal("unset");
      switch (kind) {
        case IndexKind::kDil:
          built = BuildDilIndex(corpus->extracted.dewey_postings,
                                std::move(*file));
          break;
        case IndexKind::kRdil:
          built = BuildRdilIndex(corpus->extracted.dewey_postings,
                                 std::move(*file));
          break;
        case IndexKind::kHdil:
          built = BuildHdilIndex(corpus->extracted.dewey_postings,
                                 std::move(*file), HdilOptions{});
          break;
        case IndexKind::kNaiveId:
          built = BuildNaiveIdIndex(corpus->extracted.naive_postings,
                                    std::move(*file));
          break;
        case IndexKind::kNaiveRank:
          built = BuildNaiveRankIndex(corpus->extracted.naive_postings,
                                      std::move(*file));
          break;
      }
      ASSERT_TRUE(built.ok()) << built.status();
    }
    auto file = storage::PageFile::OpenOnDisk(path);
    ASSERT_TRUE(file.ok());
    auto reopened = OpenIndex(std::move(*file));
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened->kind, kind);
    EXPECT_GT(reopened->lexicon.term_count(), 0u);
    EXPECT_GT(reopened->stats.entry_count, 0u);
  }
}

TEST(IndexPersistenceTest, CorruptHeaderRejected) {
  auto file = storage::PageFile::CreateInMemory();
  ASSERT_TRUE(file->Allocate().ok());
  storage::Page garbage{};
  garbage.WriteU32(0, 0x12345678);
  ASSERT_TRUE(file->Write(0, garbage).ok());
  EXPECT_FALSE(OpenIndex(std::move(file)).ok());

  auto empty = storage::PageFile::CreateInMemory();
  EXPECT_FALSE(OpenIndex(std::move(empty)).ok());
}

TEST(IndexKindTest, NamesAreStable) {
  EXPECT_EQ(IndexKindName(IndexKind::kNaiveId), "Naive-ID");
  EXPECT_EQ(IndexKindName(IndexKind::kNaiveRank), "Naive-Rank");
  EXPECT_EQ(IndexKindName(IndexKind::kDil), "DIL");
  EXPECT_EQ(IndexKindName(IndexKind::kRdil), "RDIL");
  EXPECT_EQ(IndexKindName(IndexKind::kHdil), "HDIL");
}

TEST(HdilBuildTest, RankPrefixBounded) {
  datagen::XMarkOptions gen;
  gen.num_items = 60;
  gen.num_people = 30;
  gen.num_open_auctions = 40;
  gen.num_closed_auctions = 20;
  datagen::Corpus corpus_data = datagen::GenerateXMark(gen);
  HdilOptions hdil_options;
  hdil_options.rank_fraction = 0.05;
  hdil_options.min_rank_entries = 10;
  auto corpus =
      BuildIndexedCorpus(SerializeCorpus(corpus_data), hdil_options);
  const Lexicon* lexicon = corpus->lexicon(IndexKind::kHdil);
  for (const auto& [term, info] : lexicon->terms()) {
    size_t expected = std::max<size_t>(
        hdil_options.min_rank_entries,
        static_cast<size_t>(hdil_options.rank_fraction *
                            static_cast<double>(info.list.entry_count)));
    expected = std::min<size_t>(expected, info.list.entry_count);
    EXPECT_EQ(info.rank_list.entry_count, expected) << term;
  }
}

}  // namespace
}  // namespace xrank::index

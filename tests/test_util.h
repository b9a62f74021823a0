#ifndef XRANK_TESTS_TEST_UTIL_H_
#define XRANK_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "index/dil_index.h"
#include "index/hdil_index.h"
#include "index/index_builder.h"
#include "index/naive_index.h"
#include "index/rdil_index.h"
#include "query/query.h"
#include "query/scoring.h"
#include "rank/elem_rank.h"
#include "storage/buffer_pool.h"
#include "xml/parser.h"

namespace xrank::testutil {

// Parses documents, builds the graph + ElemRanks + every physical index
// (memory-backed), and exposes per-index buffer pools with cost models.
// Small enough to rebuild per test.
struct IndexedCorpus {
  graph::XmlGraph graph;
  rank::ElemRankResult ranks;
  index::ExtractionResult extracted;

  struct Instance {
    index::BuiltIndex built;
    std::unique_ptr<storage::CostModel> cost_model;
    std::unique_ptr<storage::BufferPool> pool;
  };
  std::map<index::IndexKind, Instance> indexes;

  storage::BufferPool* pool(index::IndexKind kind) {
    return indexes.at(kind).pool.get();
  }
  const index::Lexicon* lexicon(index::IndexKind kind) {
    return &indexes.at(kind).built.lexicon;
  }
  storage::CostModel* cost_model(index::IndexKind kind) {
    return indexes.at(kind).cost_model.get();
  }
  void DropCaches() {
    for (auto& [kind, instance] : indexes) {
      instance.pool->DropCache();
      instance.cost_model->Reset();
    }
  }
};

inline std::unique_ptr<IndexedCorpus> BuildIndexedCorpus(
    std::vector<std::pair<std::string, std::string>> docs,
    const index::HdilOptions& hdil_options = {},
    size_t buffer_pool_pages = 1024, const index::BuildOptions& build = {}) {
  auto corpus = std::make_unique<IndexedCorpus>();
  graph::GraphBuilder builder;
  for (const auto& [text, uri] : docs) {
    auto doc = xml::ParseDocument(text, uri);
    EXPECT_TRUE(doc.ok()) << doc.status();
    EXPECT_TRUE(builder.AddDocument(*doc).ok());
  }
  auto graph = std::move(builder).Finalize();
  EXPECT_TRUE(graph.ok()) << graph.status();
  corpus->graph = std::move(graph).value();

  auto ranks = rank::ComputeElemRank(corpus->graph, rank::ElemRankOptions{});
  EXPECT_TRUE(ranks.ok()) << ranks.status();
  corpus->ranks = std::move(ranks).value();

  index::ExtractionOptions extraction;
  extraction.build_naive = true;
  auto extracted =
      index::ExtractPostings(corpus->graph, corpus->ranks.ranks, extraction);
  EXPECT_TRUE(extracted.ok()) << extracted.status();
  corpus->extracted = std::move(extracted).value();

  auto install = [&](index::IndexKind kind, Result<index::BuiltIndex> built) {
    EXPECT_TRUE(built.ok()) << built.status();
    IndexedCorpus::Instance instance;
    instance.built = std::move(built).value();
    instance.cost_model = std::make_unique<storage::CostModel>();
    instance.pool = std::make_unique<storage::BufferPool>(
        instance.built.file.get(), buffer_pool_pages,
        instance.cost_model.get());
    corpus->indexes.emplace(kind, std::move(instance));
  };
  install(index::IndexKind::kDil,
          index::BuildDilIndex(corpus->extracted.dewey_postings,
                               storage::PageFile::CreateInMemory(), build));
  install(index::IndexKind::kRdil,
          index::BuildRdilIndex(corpus->extracted.dewey_postings,
                                storage::PageFile::CreateInMemory(), build));
  install(index::IndexKind::kHdil,
          index::BuildHdilIndex(corpus->extracted.dewey_postings,
                                storage::PageFile::CreateInMemory(),
                                hdil_options, build));
  install(index::IndexKind::kNaiveId,
          index::BuildNaiveIdIndex(corpus->extracted.naive_postings,
                                   storage::PageFile::CreateInMemory(), build));
  install(index::IndexKind::kNaiveRank,
          index::BuildNaiveRankIndex(corpus->extracted.naive_postings,
                                     storage::PageFile::CreateInMemory(),
                                     build));
  return corpus;
}

// The Figure 1 document used throughout the paper's examples.
inline const char* Figure1Xml() {
  return R"(
<workshop date="28 July 2000">
  <title> XML and IR: A SIGIR 2000 Workshop </title>
  <editors> David Carmel, Yoelle Maarek, Aya Soffer </editors>
  <proceedings>
    <paper id="1">
      <title> XQL and Proximal Nodes </title>
      <author> Ricardo Baeza-Yates </author>
      <author> Gonzalo Navarro </author>
      <abstract> We consider the recently proposed language </abstract>
      <body>
        <section name="Introduction">
          Searching on structured text is more important
        </section>
        <section name="Implementing XML Operations">
          <subsection name="Path Expressions">
            At first sight, the XQL query language looks
          </subsection>
        </section>
        <cite ref="2">Querying XML in Xyleme</cite>
        <cite xlink="paper/xmlql">A Query Language for XML</cite>
      </body>
    </paper>
    <paper id="2">
      <title> Querying XML in Xyleme </title>
      <body> xyleme supports XQL fragments </body>
    </paper>
  </proceedings>
</workshop>
)";
}

// The rank-layout column of the codec test matrices. Lists store float32
// ranks only (layout id 0 at header offset 68; ids 1 and 2 are retired and
// refused, see retired_format_test.cc), so the column has a single value.
// It stays in each matrix so every entry keeps the name of the layout it
// covers ("varint_f32", "bp128_f32_raw").
enum class RankLayout : uint32_t { kFloat32 = 0 };

inline const char* RankLayoutName(RankLayout /*layout*/) { return "f32"; }

// Options that run the DIL exhaustive merge (paper Figure 5), the oracle
// every pruned merge must match result for result.
inline query::QueryOptions Exhaustive() {
  query::QueryOptions options;
  options.algorithm = query::MergeAlgorithm::kExhaustive;
  return options;
}

// FNV-1a over every result's Dewey id and the bits of its rank, in result
// order: equal digests mean the same ids with bitwise equal ranks. The
// work-pinning tables (ta_work_test, dil_work_test) record it per query.
inline uint64_t ResultsDigest(
    const std::vector<query::RankedResult>& results) {
  uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ull;
    }
  };
  for (const query::RankedResult& result : results) {
    std::string id = result.id.ToString();
    mix(id.data(), id.size());
    uint64_t bits;
    std::memcpy(&bits, &result.rank, sizeof(bits));
    mix(&bits, sizeof(bits));
  }
  return hash;
}

// Compares a work-pinning table row by row. On a mismatch it prints the
// row it measured in the table's own format (`format`), so a deliberate
// change of behaviour can re-pin it.
template <typename Row, typename Format>
void ExpectPinnedRows(const std::vector<Row>& measured,
                      const std::vector<Row>& expected, Format format) {
  EXPECT_EQ(measured.size(), expected.size());
  for (size_t i = 0; i < measured.size(); ++i) {
    if (i < expected.size() && measured[i] == expected[i]) continue;
    ADD_FAILURE() << "row " << i << " measured:\n  " << format(measured[i])
                  << (i < expected.size()
                          ? "\nexpected:\n  " + format(expected[i])
                          : std::string());
  }
}

}  // namespace xrank::testutil

#endif  // XRANK_TESTS_TEST_UTIL_H_

// End-to-end tests of the XRankEngine facade over the paper's Figure 1
// document and small synthetic corpora.

#include "core/engine.h"

#include <gtest/gtest.h>

#include "datagen/dblp_gen.h"
#include "datagen/xmark_gen.h"
#include "index/index_builder.h"
#include "storage/page_file.h"
#include "xml/parser.h"

namespace xrank {
namespace {

using core::EngineOptions;
using core::EngineResponse;
using core::XRankEngine;
using index::IndexKind;

// The workshop-proceedings document of paper Figure 1 (abbreviated but
// structurally faithful: nested sections, IDREF and XLink references).
constexpr const char* kFigure1Xml = R"(
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

std::vector<xml::Document> Figure1Collection() {
  auto doc = xml::ParseDocument(kFigure1Xml, "figure1.xml");
  EXPECT_TRUE(doc.ok()) << doc.status();
  std::vector<xml::Document> docs;
  docs.push_back(std::move(doc).value());
  return docs;
}

EngineOptions AllIndexOptions() {
  EngineOptions options;
  options.indexes = {IndexKind::kNaiveId, IndexKind::kNaiveRank,
                     IndexKind::kDil, IndexKind::kRdil, IndexKind::kHdil};
  return options;
}

TEST(EngineTest, BuildsFromFigure1) {
  auto engine = XRankEngine::Build(Figure1Collection(), AllIndexOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_GT((*engine)->graph().element_count(), 10u);
  EXPECT_TRUE((*engine)->elem_rank_result().converged);
  for (IndexKind kind :
       {IndexKind::kNaiveId, IndexKind::kNaiveRank, IndexKind::kDil,
        IndexKind::kRdil, IndexKind::kHdil}) {
    EXPECT_TRUE((*engine)->has_index(kind));
    EXPECT_GT((*engine)->index_stats(kind).entry_count, 0u);
  }
}

// The paper's running example: 'XQL language' must return the <subsection>
// (most specific element) rather than its <section>/<body> ancestors, plus
// the <paper> element which has independent occurrences in <title> and
// <abstract>-adjacent elements (Section 2.2).
TEST(EngineTest, Figure1MostSpecificResult) {
  auto engine = XRankEngine::Build(Figure1Collection(), AllIndexOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (IndexKind kind :
       {IndexKind::kDil, IndexKind::kRdil, IndexKind::kHdil}) {
    auto response = (*engine)->Query("XQL language", 10, kind);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_FALSE(response->results.empty())
        << "no results via " << index::IndexKindName(kind);
    std::vector<std::string> tags;
    for (const auto& result : response->results) {
      tags.push_back(result.element_tag);
    }
    // The subsection directly contains both keywords.
    EXPECT_NE(std::find(tags.begin(), tags.end(), "subsection"), tags.end())
        << "via " << index::IndexKindName(kind);
    // Its ancestors whose only occurrences come through it must not appear.
    EXPECT_EQ(std::find(tags.begin(), tags.end(), "section"), tags.end())
        << "via " << index::IndexKindName(kind);
    EXPECT_EQ(std::find(tags.begin(), tags.end(), "body"), tags.end())
        << "via " << index::IndexKindName(kind);
  }
}

// All three Dewey-based processors must agree on the result set and ranks.
TEST(EngineTest, ProcessorsAgreeOnFigure1) {
  auto engine = XRankEngine::Build(Figure1Collection(), AllIndexOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (const char* query : {"XQL", "XQL language", "Ricardo XQL",
                            "xml workshop", "querying xyleme"}) {
    auto dil = (*engine)->Query(query, 20, IndexKind::kDil);
    auto rdil = (*engine)->Query(query, 20, IndexKind::kRdil);
    auto hdil = (*engine)->Query(query, 20, IndexKind::kHdil);
    ASSERT_TRUE(dil.ok() && rdil.ok() && hdil.ok()) << query;
    ASSERT_EQ(dil->results.size(), rdil->results.size()) << query;
    ASSERT_EQ(dil->results.size(), hdil->results.size()) << query;
    for (size_t i = 0; i < dil->results.size(); ++i) {
      EXPECT_EQ(dil->results[i].id, rdil->results[i].id) << query;
      EXPECT_NEAR(dil->results[i].rank, rdil->results[i].rank, 1e-9) << query;
      EXPECT_EQ(dil->results[i].id, hdil->results[i].id) << query;
      EXPECT_NEAR(dil->results[i].rank, hdil->results[i].rank, 1e-9) << query;
    }
  }
}

TEST(EngineTest, DblpCorpusAgreementAcrossIndexes) {
  datagen::DblpOptions gen;
  gen.num_papers = 120;
  datagen::Corpus corpus = datagen::GenerateDblp(gen);
  auto engine =
      XRankEngine::Build(std::move(corpus.documents), AllIndexOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  const auto& quad = corpus.planted.high_correlation[0];
  for (size_t n = 1; n <= 4; ++n) {
    std::vector<std::string> keywords(quad.begin(), quad.begin() + n);
    auto dil = (*engine)->QueryKeywords(keywords, 10, IndexKind::kDil);
    auto rdil = (*engine)->QueryKeywords(keywords, 10, IndexKind::kRdil);
    auto hdil = (*engine)->QueryKeywords(keywords, 10, IndexKind::kHdil);
    ASSERT_TRUE(dil.ok() && rdil.ok() && hdil.ok());
    ASSERT_EQ(dil->results.size(), rdil->results.size()) << n << " keywords";
    ASSERT_EQ(dil->results.size(), hdil->results.size()) << n << " keywords";
    for (size_t i = 0; i < dil->results.size(); ++i) {
      EXPECT_EQ(dil->results[i].id, rdil->results[i].id);
      EXPECT_EQ(dil->results[i].id, hdil->results[i].id);
      EXPECT_NEAR(dil->results[i].rank, rdil->results[i].rank, 1e-9);
    }
  }
}

TEST(EngineTest, XMarkDeepResults) {
  datagen::XMarkOptions gen;
  gen.num_items = 60;
  gen.num_open_auctions = 40;
  gen.num_closed_auctions = 20;
  gen.num_people = 30;
  datagen::Corpus corpus = datagen::GenerateXMark(gen);
  auto engine =
      XRankEngine::Build(std::move(corpus.documents), AllIndexOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  const auto& quad = corpus.planted.high_correlation[0];
  std::vector<std::string> keywords = {quad[0], quad[1]};
  auto response = (*engine)->QueryKeywords(keywords, 10, IndexKind::kDil);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_FALSE(response->results.empty());
  // Planted quadruples live in deep text elements.
  EXPECT_GE(response->results[0].id.depth(), 6u);
}

TEST(EngineTest, AnswerNodeMapping) {
  EngineOptions options = AllIndexOptions();
  options.answer_node_tags = {"workshop", "paper", "section"};
  auto engine = XRankEngine::Build(Figure1Collection(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto response = (*engine)->Query("XQL language", 10, IndexKind::kDil);
  ASSERT_TRUE(response.ok()) << response.status();
  for (const auto& result : response->results) {
    EXPECT_TRUE(result.element_tag == "workshop" ||
                result.element_tag == "paper" ||
                result.element_tag == "section")
        << result.element_tag;
  }

  // Exact ids, tags and snippets for every index kind, recorded from an
  // engine that mapped answer nodes by Dewey id lookups; the parent-link
  // walk must reproduce them.
  struct Expected {
    const char* id;
    const char* tag;
    const char* snippet;
  };
  const Expected kWorkshop = {
      "0", "workshop",
      "28 July 2000 XML and IR: A SIGIR 2000 Workshop David Carmel, Yoelle "
      "Maarek, Aya Soffer 1 XQL and Proximal Nodes Ricar..."};
  const Expected kPaper = {
      "0.3.0", "paper",
      "1 XQL and Proximal Nodes Ricardo Baeza-Yates Gonzalo Navarro We "
      "consider the recently proposed language Searching on ..."};
  const Expected kSection = {
      "0.3.0.5.1", "section",
      "Implementing XML Operations At first sight, the XQL query language "
      "looks Path Expressions"};
  const std::vector<Expected> kNaive = {kWorkshop, kPaper, kSection};
  const std::vector<Expected> kDewey = {kSection, kPaper};
  for (IndexKind kind :
       {IndexKind::kNaiveId, IndexKind::kNaiveRank, IndexKind::kDil,
        IndexKind::kRdil, IndexKind::kHdil}) {
    SCOPED_TRACE(index::IndexKindName(kind));
    auto answers = (*engine)->Query("XQL language", 10, kind);
    ASSERT_TRUE(answers.ok()) << answers.status();
    const bool naive =
        kind == IndexKind::kNaiveId || kind == IndexKind::kNaiveRank;
    const std::vector<Expected>& expected = naive ? kNaive : kDewey;
    ASSERT_EQ(answers->results.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(answers->results[i].id.ToString(), expected[i].id);
      EXPECT_EQ(answers->results[i].element_tag, expected[i].tag);
      EXPECT_EQ(answers->results[i].snippet, expected[i].snippet);
    }
  }
}

// The snippet keeps 117 bytes, but never ends inside a multi-byte
// character: the cut moves back to the character's first byte.
TEST(EngineTest, SnippetCutKeepsUtf8Characters) {
  const std::string kE = "\xC3\xA9";       // é, 2 bytes
  const std::string kZhong = "\xE4\xB8\xAD";  // 中, 3 bytes
  struct Case {
    size_t offset;  // byte offset of the character in the element's text
    std::string character;
    size_t kept;  // bytes kept before "..."
  };
  const Case kCases[] = {
      {116, kE, 116},      // cut would split é after its lead byte
      {115, kE, 117},      // é ends exactly at the cut
      {115, kZhong, 115},  // cut would keep two of 中's three bytes
      {116, kZhong, 116},  // cut would keep one of 中's three bytes
      {114, kZhong, 117},  // 中 ends exactly at the cut
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE("offset " + std::to_string(c.offset));
    std::string text = "needle ";
    text.append(c.offset - text.size(), 'x');
    text += c.character;
    while (text.size() < 160) text += " more" + c.character;
    auto doc = xml::ParseDocument("<doc><p>" + text + "</p><q>other</q></doc>",
                                  "utf8.xml");
    ASSERT_TRUE(doc.ok()) << doc.status();
    std::vector<xml::Document> docs;
    docs.push_back(std::move(doc).value());
    EngineOptions options;
    options.indexes = {IndexKind::kDil};
    auto engine = XRankEngine::Build(std::move(docs), options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto response = (*engine)->Query("needle", 10, IndexKind::kDil);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->results.size(), 1u);
    EXPECT_EQ(response->results[0].snippet, text.substr(0, c.kept) + "...");
  }
}

TEST(EngineTest, MissingKeywordYieldsEmpty) {
  auto engine = XRankEngine::Build(Figure1Collection(), AllIndexOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (IndexKind kind :
       {IndexKind::kNaiveId, IndexKind::kNaiveRank, IndexKind::kDil,
        IndexKind::kRdil, IndexKind::kHdil}) {
    auto response = (*engine)->Query("XQL zzznotaword", 10, kind);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->results.empty());
  }
}

TEST(EngineTest, DiskBackedIndexesWork) {
  EngineOptions options = AllIndexOptions();
  options.disk_dir = ::testing::TempDir();
  auto engine = XRankEngine::Build(Figure1Collection(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (IndexKind kind :
       {IndexKind::kNaiveId, IndexKind::kNaiveRank, IndexKind::kDil,
        IndexKind::kRdil, IndexKind::kHdil}) {
    auto response = (*engine)->Query("XQL language", 10, kind);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_FALSE(response->results.empty()) << index::IndexKindName(kind);
  }
  // The index files really are on disk.
  std::string path = options.disk_dir + "/DIL.xrank";
  auto file = storage::PageFile::OpenOnDisk(path);
  ASSERT_TRUE(file.ok()) << file.status();
  auto reopened = index::OpenIndex(std::move(*file));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->kind, IndexKind::kDil);
}

TEST(EngineTest, WarmCacheModeReusesPages) {
  EngineOptions options;
  options.indexes = {IndexKind::kDil};
  options.cold_cache_per_query = false;
  auto engine = XRankEngine::Build(Figure1Collection(), options);
  ASSERT_TRUE(engine.ok());
  auto first = (*engine)->Query("XQL language", 10, IndexKind::kDil);
  ASSERT_TRUE(first.ok());
  auto second = (*engine)->Query("XQL language", 10, IndexKind::kDil);
  ASSERT_TRUE(second.ok());
  // Warm run pays no physical reads.
  EXPECT_GT(first->stats.sequential_reads + first->stats.random_reads, 0u);
  EXPECT_EQ(second->stats.sequential_reads + second->stats.random_reads, 0u);
  EXPECT_EQ(first->results.size(), second->results.size());
}

TEST(EngineTest, QueryUnbuiltIndexFails) {
  EngineOptions options;
  options.indexes = {IndexKind::kDil};
  auto engine = XRankEngine::Build(Figure1Collection(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto response = (*engine)->Query("XQL", 10, IndexKind::kRdil);
  EXPECT_FALSE(response.ok());
}

}  // namespace
}  // namespace xrank

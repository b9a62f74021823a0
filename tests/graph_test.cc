// Unit tests for the hyperlinked XML graph: Dewey assignment, attribute
// promotion, IDREF/XLink resolution, HTML mode, subtree text and the result
// snippets the engine builds from it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "datagen/dblp_gen.h"
#include "datagen/xmark_gen.h"
#include "graph/builder.h"
#include "xml/parser.h"

namespace xrank::graph {
namespace {

xml::Document Parse(const char* text, const char* uri) {
  auto doc = xml::ParseDocument(text, uri);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(doc).value();
}

// The whole subtree text, by the plain unbounded recursion: the direct
// text, then each element child's non-empty text, joined by spaces.
// DeepTextPrefix must produce its prefixes byte for byte.
std::string ReferenceDeepText(const XmlGraph& graph, NodeId id) {
  if (!graph.is_element(id)) return graph.node(id).text;
  std::string out = graph.DirectText(id);
  for (NodeId child : graph.node(id).element_children) {
    std::string piece = ReferenceDeepText(graph, child);
    if (piece.empty()) continue;
    if (!out.empty()) out.push_back(' ');
    out += piece;
  }
  return out;
}

// Checks DeepTextPrefix against the reference at every element of `graph`,
// at limits around the engine's 117/120-byte snippet rule.
void ExpectPrefixesMatchReference(const XmlGraph& graph) {
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    if (!graph.is_element(u)) continue;
    const std::string full = ReferenceDeepText(graph, u);
    for (size_t limit : {0, 1, 117, 120, 121, 4096}) {
      ASSERT_EQ(graph.DeepTextPrefix(u, limit), full.substr(0, limit))
          << "element " << graph.node(u).dewey_id.ToString() << " limit "
          << limit;
    }
  }
}

XmlGraph BuildGraph(std::vector<xml::Document> documents) {
  GraphBuilder builder;
  for (const xml::Document& doc : documents) {
    EXPECT_TRUE(builder.AddDocument(doc).ok());
  }
  auto graph = std::move(builder).Finalize();
  EXPECT_TRUE(graph.ok()) << graph.status();
  return std::move(graph).value();
}

// A random tree built through the mutation interface, which (unlike the
// parser) can produce empty values. Values are empty, whitespace-only or
// words of varied length, and many elements end up with no text at all.
XmlGraph RandomGraph(uint64_t seed) {
  static const char* const kValues[] = {
      "", "", " ", "  ", "a", "xy", "word", "two words",
      "a middling value, a few dozen bytes long",
      "a value long enough on its own to run past every snippet limit the "
      "engine uses, the 121 bytes of the cut rule included, and then some more"};
  Random random(seed);
  XmlGraph graph;
  const uint32_t doc = graph.AddDocument("random.xml");
  std::vector<NodeId> elements = {
      graph.AddElement(graph.InternName("r"), kInvalidNode, doc)};
  graph.SetDocumentRoot(doc, elements[0]);
  const size_t nodes = random.UniformRange(1, 120);
  for (size_t i = 0; i < nodes; ++i) {
    NodeId parent = elements[random.Uniform(elements.size())];
    if (random.Bernoulli(0.5)) {
      elements.push_back(graph.AddElement(graph.InternName("e"), parent, doc));
    } else {
      graph.AddValue(kValues[random.Uniform(std::size(kValues))], parent, doc);
    }
  }
  graph.FinalizeStructure();
  return graph;
}

TEST(GraphBuilderTest, DeweyIdsFollowDocumentOrder) {
  GraphBuilder builder;
  BuilderOptions options;
  options.attributes_as_subelements = false;
  builder = GraphBuilder(options);
  ASSERT_TRUE(builder.AddDocument(Parse("<a><b/><c><d/></c></a>", "u")).ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok()) << graph.status();

  auto root = graph->FindByDewey(dewey::DeweyId({0}));
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(graph->name(*root), "a");
  auto b = graph->FindByDewey(dewey::DeweyId({0, 0}));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(graph->name(*b), "b");
  auto d = graph->FindByDewey(dewey::DeweyId({0, 1, 0}));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(graph->name(*d), "d");
  EXPECT_FALSE(graph->FindByDewey(dewey::DeweyId({0, 2})).ok());
  EXPECT_FALSE(graph->FindByDewey(dewey::DeweyId({1})).ok());
}

TEST(GraphBuilderTest, AttributesBecomeSubElements) {
  GraphBuilder builder;
  ASSERT_TRUE(
      builder.AddDocument(Parse(R"(<w date="28 July 2000"><t>x</t></w>)", "u"))
          .ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  // Attribute element precedes element children in sibling order.
  auto attr = graph->FindByDewey(dewey::DeweyId({0, 0}));
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(graph->name(*attr), "date");
  EXPECT_EQ(graph->DirectText(*attr), "28 July 2000");
  auto t = graph->FindByDewey(dewey::DeweyId({0, 1}));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(graph->name(*t), "t");
}

TEST(GraphBuilderTest, IdrefResolvesWithinDocument) {
  GraphBuilder builder;
  ASSERT_TRUE(builder
                  .AddDocument(Parse(
                      R"(<ps><p id="1"><cite ref="2">x</cite></p><p id="2">y</p></ps>)",
                      "u"))
                  .ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->total_hyperlink_count(), 1u);
  // Find the cite element and check its link target is paper 2.
  bool found = false;
  for (NodeId u = 0; u < graph->node_count(); ++u) {
    if (graph->is_element(u) && graph->name(u) == "cite") {
      ASSERT_EQ(graph->hyperlinks(u).size(), 1u);
      NodeId target = graph->hyperlinks(u)[0];
      EXPECT_EQ(graph->name(target), "p");
      EXPECT_EQ(graph->DirectText(target), "y");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(GraphBuilderTest, XlinkResolvesAcrossDocuments) {
  GraphBuilder builder;
  ASSERT_TRUE(builder
                  .AddDocument(Parse(
                      R"(<paper><cite xlink="two.xml">x</cite></paper>)", "one.xml"))
                  .ok());
  ASSERT_TRUE(builder.AddDocument(Parse("<paper>target</paper>", "two.xml")).ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->total_hyperlink_count(), 1u);
  // The target is the root of document 1.
  for (NodeId u = 0; u < graph->node_count(); ++u) {
    if (graph->is_element(u) && !graph->hyperlinks(u).empty()) {
      NodeId target = graph->hyperlinks(u)[0];
      EXPECT_EQ(graph->node(target).document, 1u);
      EXPECT_EQ(target, graph->documents()[1].root);
    }
  }
}

TEST(GraphBuilderTest, DanglingLinksCounted) {
  GraphBuilder builder;
  ASSERT_TRUE(builder
                  .AddDocument(Parse(
                      R"(<a><b ref="nope">x</b><c xlink="missing.xml">y</c></a>)",
                      "u"))
                  .ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->total_hyperlink_count(), 0u);
}

TEST(GraphBuilderTest, DanglingLinksErrorWhenStrict) {
  BuilderOptions options;
  options.ignore_dangling_links = false;
  GraphBuilder builder(options);
  ASSERT_TRUE(builder.AddDocument(Parse(R"(<a ref="nope"/>)", "u")).ok());
  auto graph = std::move(builder).Finalize();
  EXPECT_FALSE(graph.ok());
}

TEST(GraphBuilderTest, ElementCountsPerDocument) {
  GraphBuilder builder;
  BuilderOptions options;
  options.attributes_as_subelements = false;
  builder = GraphBuilder(options);
  ASSERT_TRUE(builder.AddDocument(Parse("<a><b/><c/></a>", "u1")).ok());
  ASSERT_TRUE(builder.AddDocument(Parse("<a/>", "u2")).ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->element_count(), 4u);
  EXPECT_EQ(graph->documents()[0].element_count, 3u);
  EXPECT_EQ(graph->documents()[1].element_count, 1u);
}

TEST(GraphBuilderTest, HtmlModeSingleElement) {
  GraphBuilder builder;
  ASSERT_TRUE(builder
                  .AddHtmlDocument(Parse(
                      R"(<html><body><p>hello world</p><a href="x.html">link</a></body></html>)",
                      "page.html"))
                  .ok());
  ASSERT_TRUE(builder.AddHtmlDocument(Parse("<html>x html</html>", "x.html")).ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  // Each HTML document contributes exactly one element.
  EXPECT_EQ(graph->element_count(), 2u);
  EXPECT_EQ(graph->documents()[0].element_count, 1u);
  NodeId root = graph->documents()[0].root;
  EXPECT_EQ(graph->DirectText(root), "hello world link");
  // The href becomes a hyperlink from root to root.
  ASSERT_EQ(graph->hyperlinks(root).size(), 1u);
  EXPECT_EQ(graph->hyperlinks(root)[0], graph->documents()[1].root);
}

TEST(GraphTest, DeepTextConcatenatesSubtree) {
  GraphBuilder builder;
  ASSERT_TRUE(
      builder.AddDocument(Parse("<a>x<b>y</b><c><d>z</d></c></a>", "u")).ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  NodeId root = graph->documents()[0].root;
  std::string text = graph->DeepTextPrefix(root, 4096);
  EXPECT_NE(text.find("x"), std::string::npos);
  EXPECT_NE(text.find("y"), std::string::npos);
  EXPECT_NE(text.find("z"), std::string::npos);
  EXPECT_EQ(text, "x y z");
  EXPECT_EQ(graph->DeepTextPrefix(root, 3), "x y");
  ExpectPrefixesMatchReference(*graph);
}

TEST(DeepTextPrefixTest, MatchesReferenceOnRandomTrees) {
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectPrefixesMatchReference(RandomGraph(seed));
    if (HasFatalFailure()) return;
  }
}

TEST(DeepTextPrefixTest, SeparatorRulesAtEmptyValues) {
  XmlGraph graph;
  const uint32_t doc = graph.AddDocument("u");
  const NodeId root =
      graph.AddElement(graph.InternName("r"), kInvalidNode, doc);
  graph.SetDocumentRoot(doc, root);
  const NodeId empty = graph.AddElement(graph.InternName("e"), root, doc);
  graph.AddValue("", empty, doc);  // an element whose only text is empty
  const NodeId full = graph.AddElement(graph.InternName("f"), root, doc);
  graph.AddValue("", full, doc);  // leading empty value: no space
  graph.AddValue("p", full, doc);
  graph.AddValue("", full, doc);  // empty value after text: one space
  graph.AddValue("q", full, doc);
  graph.AddValue("a", root, doc);
  graph.FinalizeStructure();
  // Root: its value "a", then child e (no text, no space), then child f.
  EXPECT_EQ(graph.DeepTextPrefix(root, 4096), "a p  q");
  EXPECT_EQ(graph.DeepTextPrefix(full, 4096), "p  q");
  EXPECT_EQ(graph.DeepTextPrefix(empty, 4096), "");
  ExpectPrefixesMatchReference(graph);
}

TEST(DeepTextPrefixTest, MatchesReferenceOnXMark) {
  datagen::XMarkOptions options;
  options.num_items = 40;
  options.num_people = 20;
  options.num_open_auctions = 25;
  options.num_closed_auctions = 12;
  options.num_categories = 6;
  ExpectPrefixesMatchReference(
      BuildGraph(datagen::GenerateXMark(options).documents));
}

TEST(DeepTextPrefixTest, MatchesReferenceOnDblp) {
  datagen::DblpOptions options;
  options.num_papers = 150;
  ExpectPrefixesMatchReference(
      BuildGraph(datagen::GenerateDblp(options).documents));
}

// A result whose subtree holds kilobytes of text gets the reference text's
// first 117 bytes plus "...".
TEST(DeepTextPrefixTest, EngineSnippetOfLargeResult) {
  std::string xml = "<library><book><title>needle in a haystack</title>";
  for (int i = 0; i < 200; ++i) {
    xml += "<para>paragraph " + std::to_string(i) +
           " of filler text about nothing much</para>";
  }
  xml += "<para>the zebra is here</para></book><book>other</book></library>";
  auto doc = xml::ParseDocument(xml, "library.xml");
  ASSERT_TRUE(doc.ok()) << doc.status();
  std::vector<xml::Document> docs;
  docs.push_back(std::move(doc).value());
  core::EngineOptions options;
  options.indexes = {index::IndexKind::kDil, index::IndexKind::kHdil};
  auto engine = core::XRankEngine::Build(std::move(docs), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (index::IndexKind kind :
       {index::IndexKind::kDil, index::IndexKind::kHdil}) {
    auto response = (*engine)->Query("needle zebra", 10, kind);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->results.size(), 1u);
    const core::EngineResult& result = response->results[0];
    EXPECT_EQ(result.element_tag, "book");
    auto node = (*engine)->graph().FindByDewey(result.id);
    ASSERT_TRUE(node.ok()) << node.status();
    const std::string full = ReferenceDeepText((*engine)->graph(), *node);
    ASSERT_GT(full.size(), 4096u);
    EXPECT_EQ(result.snippet, full.substr(0, 117) + "...");
  }
}

}  // namespace
}  // namespace xrank::graph

// Cross-cutting property tests: for randomly generated corpora, the DIL
// result set must equal a brute-force evaluation of the paper's Section 2.2
// semantics, and all three Dewey-based processors must agree with each
// other on the full ranked result list.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "datagen/vocabulary.h"
#include "query/dil_query.h"
#include "query/hdil_query.h"
#include "query/rdil_query.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace xrank {
namespace {

using index::IndexKind;
using query::ScoringOptions;
using testutil::BuildIndexedCorpus;
using testutil::Exhaustive;
using testutil::IndexedCorpus;

// Generates a random small corpus with a tiny vocabulary (lots of keyword
// co-occurrence — the adversarial regime for R0 exclusion logic).
std::vector<std::pair<std::string, std::string>> RandomCorpus(uint64_t seed,
                                                              size_t docs) {
  Random rng(seed);
  datagen::Vocabulary vocab(8);  // tiny: heavy term overlap
  std::vector<std::pair<std::string, std::string>> out;
  std::function<std::unique_ptr<xml::Node>(size_t)> build =
      [&](size_t depth) -> std::unique_ptr<xml::Node> {
    auto node = xml::Node::MakeElement("n");
    size_t children = rng.Uniform(depth == 0 ? 1 : 4);
    if (rng.Bernoulli(0.7)) {
      std::string text;
      size_t words = 1 + rng.Uniform(4);
      for (size_t w = 0; w < words; ++w) {
        if (w > 0) text.push_back(' ');
        text += vocab.Word(rng.Uniform(vocab.size()));
      }
      node->AddChild(xml::Node::MakeText(std::move(text)));
    }
    for (size_t c = 0; c < children; ++c) node->AddChild(build(depth - 1));
    return node;
  };
  for (size_t d = 0; d < docs; ++d) {
    xml::Document doc;
    doc.uri = "doc" + std::to_string(d);
    doc.root = build(4);
    out.emplace_back(xml::Serialize(doc), doc.uri);
  }
  return out;
}

// Brute-force Result(Q) of Section 2.2 over the graph: v is a result iff
// for every keyword there is a child subtree (or direct value) containing
// the keyword that is not itself in R0.
std::set<dewey::DeweyId> BruteForceResults(
    const IndexedCorpus& corpus, const std::vector<std::string>& keywords) {
  const graph::XmlGraph& graph = corpus.graph;
  index::Analyzer analyzer;

  // contains*[v][k]: subtree of v contains keyword k.
  size_t n = graph.node_count();
  std::vector<std::vector<bool>> contains(n,
                                          std::vector<bool>(keywords.size()));
  // Direct text terms per element.
  for (graph::NodeId u = 0; u < n; ++u) {
    if (!graph.is_element(u)) continue;
    uint32_t position = 0;
    auto tokens = analyzer.Tokenize(graph.DirectText(u), &position);
    for (const auto& token : tokens) {
      for (size_t k = 0; k < keywords.size(); ++k) {
        if (token.term == keywords[k]) contains[u][k] = true;
      }
    }
  }
  // Propagate upward (children have larger NodeIds than parents in our
  // builder, so a reverse sweep suffices).
  for (graph::NodeId u = static_cast<graph::NodeId>(n); u-- > 0;) {
    if (!graph.is_element(u)) continue;
    graph::NodeId parent = graph.node(u).parent;
    if (parent == graph::kInvalidNode) continue;
    for (size_t k = 0; k < keywords.size(); ++k) {
      if (contains[u][k]) {
        // NOLINTNEXTLINE: vector<bool> reference semantics are fine here.
        contains[parent][k] = contains[parent][k] || true;
      }
    }
  }

  // R0: elements containing all keywords.
  auto in_r0 = [&](graph::NodeId u) {
    for (size_t k = 0; k < keywords.size(); ++k) {
      if (!contains[u][k]) return false;
    }
    return true;
  };

  // Result: for every keyword, some child c (element not in R0, or a value
  // child) with contains*(c, k).
  std::set<dewey::DeweyId> results;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (!graph.is_element(v) || !in_r0(v)) continue;
    bool ok = true;
    for (size_t k = 0; k < keywords.size() && ok; ++k) {
      bool witness = false;
      // Value children: direct occurrence.
      uint32_t position = 0;
      auto tokens = analyzer.Tokenize(graph.DirectText(v), &position);
      for (const auto& token : tokens) {
        if (token.term == keywords[k]) witness = true;
      }
      // Element children not in R0.
      for (graph::NodeId c : graph.node(v).element_children) {
        if (contains[c][k] && !in_r0(c)) witness = true;
      }
      ok = witness;
    }
    if (ok) results.insert(graph.node(v).dewey_id);
  }
  return results;
}

class SemanticsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SemanticsPropertyTest, DilMatchesBruteForceSemantics) {
  auto corpus = BuildIndexedCorpus(RandomCorpus(GetParam(), 6));
  datagen::Vocabulary vocab(8);
  Random rng(GetParam() * 31 + 7);

  for (int trial = 0; trial < 8; ++trial) {
    size_t nk = 1 + rng.Uniform(3);
    std::set<std::string> chosen;
    while (chosen.size() < nk) chosen.insert(vocab.Word(rng.Uniform(8)));
    std::vector<std::string> keywords(chosen.begin(), chosen.end());

    query::DilQueryProcessor dil(corpus->pool(IndexKind::kDil),
                                 corpus->lexicon(IndexKind::kDil),
                                 ScoringOptions{});
    auto response = dil.Execute(keywords, 10000);
    ASSERT_TRUE(response.ok()) << response.status();
    std::set<dewey::DeweyId> dil_results;
    for (const auto& result : response->results) {
      dil_results.insert(result.id);
    }
    std::set<dewey::DeweyId> expected = BruteForceResults(*corpus, keywords);
    EXPECT_EQ(dil_results, expected)
        << "keywords: " << keywords[0]
        << (keywords.size() > 1 ? "," + keywords[1] : "");
  }
}

TEST_P(SemanticsPropertyTest, ProcessorsFullyAgree) {
  auto corpus = BuildIndexedCorpus(RandomCorpus(GetParam() + 1000, 8));
  datagen::Vocabulary vocab(8);
  Random rng(GetParam() * 17 + 3);

  for (int trial = 0; trial < 6; ++trial) {
    size_t nk = 1 + rng.Uniform(3);
    std::set<std::string> chosen;
    while (chosen.size() < nk) chosen.insert(vocab.Word(rng.Uniform(8)));
    std::vector<std::string> keywords(chosen.begin(), chosen.end());

    query::DilQueryProcessor dil(corpus->pool(IndexKind::kDil),
                                 corpus->lexicon(IndexKind::kDil),
                                 ScoringOptions{});
    query::RdilQueryProcessor rdil(corpus->pool(IndexKind::kRdil),
                                   corpus->lexicon(IndexKind::kRdil),
                                   ScoringOptions{});
    query::HdilQueryProcessor hdil(corpus->pool(IndexKind::kHdil),
                                   corpus->lexicon(IndexKind::kHdil),
                                   ScoringOptions{});
    // Ground truth: the full ranked result list.
    auto full = dil.Execute(keywords, 100000);
    ASSERT_TRUE(full.ok());
    std::map<dewey::DeweyId, double> truth;
    for (const auto& result : full->results) {
      truth.emplace(result.id, result.rank);
    }
    for (size_t m : {3u, 50u}) {
      auto a = dil.Execute(keywords, m);
      auto b = rdil.Execute(keywords, m);
      auto c = hdil.Execute(keywords, m);
      ASSERT_TRUE(a.ok() && b.ok() && c.ok());
      ASSERT_EQ(a->results.size(), b->results.size());
      ASSERT_EQ(a->results.size(), c->results.size());
      // Each processor's i-th rank must match the true i-th rank (top-m
      // guarantee), and every returned id must carry its true rank. Ids may
      // legitimately permute within exact rank ties.
      for (const auto* response : {&*a, &*b, &*c}) {
        for (size_t i = 0; i < response->results.size(); ++i) {
          EXPECT_NEAR(response->results[i].rank, full->results[i].rank, 1e-9)
              << "m=" << m << " i=" << i;
          auto it = truth.find(response->results[i].id);
          ASSERT_NE(it, truth.end()) << "phantom result";
          EXPECT_NEAR(it->second, response->results[i].rank, 1e-9);
        }
      }
    }
  }
}

// The skip-block fast path (document-at-a-time merge over the DIL skip
// descriptors) must be invisible in the results: same ids, same ranks, same
// order as the exhaustive merge, for every query shape.
TEST_P(SemanticsPropertyTest, SkipMergeMatchesExhaustiveMerge) {
  auto corpus = BuildIndexedCorpus(RandomCorpus(GetParam() + 2000, 10));
  datagen::Vocabulary vocab(8);
  Random rng(GetParam() * 13 + 5);

  query::DilQueryProcessor skipping(corpus->pool(IndexKind::kDil),
                                    corpus->lexicon(IndexKind::kDil),
                                    ScoringOptions{});
  query::DilQueryProcessor exhaustive(corpus->pool(IndexKind::kDil),
                                      corpus->lexicon(IndexKind::kDil),
                                      ScoringOptions{});
  for (int trial = 0; trial < 8; ++trial) {
    size_t nk = 1 + rng.Uniform(3);
    std::set<std::string> chosen;
    while (chosen.size() < nk) chosen.insert(vocab.Word(rng.Uniform(8)));
    std::vector<std::string> keywords(chosen.begin(), chosen.end());

    for (size_t m : {3u, 10000u}) {
      auto fast = skipping.Execute(keywords, m);
      auto slow = exhaustive.Execute(keywords, m, Exhaustive());
      ASSERT_TRUE(fast.ok() && slow.ok());
      ASSERT_EQ(fast->results.size(), slow->results.size())
          << "keywords: " << keywords[0] << " m=" << m;
      for (size_t i = 0; i < fast->results.size(); ++i) {
        EXPECT_EQ(fast->results[i].id, slow->results[i].id);
        EXPECT_NEAR(fast->results[i].rank, slow->results[i].rank, 1e-12);
      }
      EXPECT_EQ(slow->stats.pages_skipped, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemanticsPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

// On a corpus where one keyword is rare and the other's list spans many
// pages, the conjunctive merge must actually skip pages — and still produce
// exactly the exhaustive merge's results.
TEST(SkipBlockTest, SkipsPagesOnSparseConjunctiveQuery) {
  std::vector<std::pair<std::string, std::string>> docs;
  constexpr size_t kDocs = 400;
  for (size_t d = 0; d < kDocs; ++d) {
    std::string text = "<doc><t>";
    for (int w = 0; w < 12; ++w) text += "common ";
    if (d == 0 || d + 1 == kDocs) text += "rare ";
    text += "</t></doc>";
    docs.emplace_back(std::move(text), "doc" + std::to_string(d));
  }
  auto corpus = BuildIndexedCorpus(std::move(docs));

  query::DilQueryProcessor skipping(corpus->pool(IndexKind::kDil),
                                    corpus->lexicon(IndexKind::kDil),
                                    ScoringOptions{});
  query::DilQueryProcessor exhaustive(corpus->pool(IndexKind::kDil),
                                      corpus->lexicon(IndexKind::kDil),
                                      ScoringOptions{});
  std::vector<std::string> keywords = {"common", "rare"};
  auto fast = skipping.Execute(keywords, 100);
  auto slow = exhaustive.Execute(keywords, 100, Exhaustive());
  ASSERT_TRUE(fast.ok()) << fast.status();
  ASSERT_TRUE(slow.ok()) << slow.status();

  ASSERT_GT(slow->results.size(), 0u);
  ASSERT_EQ(fast->results.size(), slow->results.size());
  for (size_t i = 0; i < fast->results.size(); ++i) {
    EXPECT_EQ(fast->results[i].id, slow->results[i].id);
    EXPECT_NEAR(fast->results[i].rank, slow->results[i].rank, 1e-12);
  }
  // The 'common' list spans many pages; only its first and last documents
  // can produce results, so the fast path must leap over the middle.
  EXPECT_GT(fast->stats.pages_skipped, 0u);
  EXPECT_LT(fast->stats.postings_scanned, slow->stats.postings_scanned);
  EXPECT_EQ(slow->stats.pages_skipped, 0u);
}

}  // namespace
}  // namespace xrank

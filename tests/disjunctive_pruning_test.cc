// Disjunctive dynamic-pruning property tests: MaxScore and block-max WAND
// must be invisible in the results — identical ids AND identical
// (bitwise) ranks versus the exhaustive-merge oracle — across randomized
// corpora, codecs, VBMW block sizing, k values and both
// aggregations; on a rank-skewed corpus they must actually prune; damaged
// bound metadata must degrade to no-prune, never to wrong results; and
// deadline/cancellation must unwind the pruned merges cleanly.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "datagen/vocabulary.h"
#include "index/codec.h"
#include "index/lexicon.h"
#include "index/posting.h"
#include "query/dil_merge.h"
#include "query/dil_query.h"
#include "query/hdil_query.h"
#include "query/posting_cursor.h"
#include "query/scoring.h"
#include "storage/buffer_pool.h"
#include "storage/cost_model.h"
#include "storage/page_file.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace xrank {
namespace {

using index::IndexKind;
using query::MergeAlgorithm;
using query::QueryOptions;
using query::ScoringOptions;
using testutil::BuildIndexedCorpus;
using testutil::Exhaustive;

constexpr MergeAlgorithm kPrunedAlgorithms[] = {
    MergeAlgorithm::kMaxScore, MergeAlgorithm::kBlockMaxWand};

ScoringOptions Disjunctive() {
  ScoringOptions scoring;
  scoring.semantics = query::QuerySemantics::kDisjunctive;
  return scoring;
}

// Same adversarial regime as pruning_test: a tiny vocabulary so keywords
// co-occur heavily and documents legitimately tie.
std::vector<std::pair<std::string, std::string>> RandomCorpus(uint64_t seed,
                                                              size_t docs) {
  Random rng(seed);
  datagen::Vocabulary vocab(8);
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

void ExpectIdenticalResponses(const query::QueryResponse& got,
                              const query::QueryResponse& oracle,
                              const std::string& label) {
  ASSERT_EQ(got.results.size(), oracle.results.size()) << label;
  for (size_t i = 0; i < got.results.size(); ++i) {
    EXPECT_EQ(got.results[i].id, oracle.results[i].id) << label << " i=" << i;
    // Bitwise equality, not NEAR: pruning only removes documents that never
    // reach the accumulator, so surviving ranks go through byte-identical
    // arithmetic.
    EXPECT_EQ(got.results[i].rank, oracle.results[i].rank)
        << label << " i=" << i;
  }
}

class DisjunctivePruningTest : public ::testing::TestWithParam<uint64_t> {};

// Every pruned algorithm == the exhaustive oracle, ids and scores, across
// randomized corpora / k / term counts, under disjunctive semantics.
TEST_P(DisjunctivePruningTest, PrunedTopKMatchesExhaustiveOracle) {
  auto corpus = BuildIndexedCorpus(RandomCorpus(GetParam() + 7000, 10));
  datagen::Vocabulary vocab(8);
  Random rng(GetParam() * 31 + 7);

  query::DilQueryProcessor oracle(corpus->pool(IndexKind::kDil),
                                  corpus->lexicon(IndexKind::kDil),
                                  Disjunctive());
  query::DilQueryProcessor pruned(corpus->pool(IndexKind::kDil),
                                  corpus->lexicon(IndexKind::kDil),
                                  Disjunctive());

  for (int trial = 0; trial < 6; ++trial) {
    size_t nk = 1 + rng.Uniform(4);
    std::set<std::string> chosen;
    while (chosen.size() < nk) chosen.insert(vocab.Word(rng.Uniform(8)));
    std::vector<std::string> keywords(chosen.begin(), chosen.end());

    for (size_t m : {1u, 3u, 10u, 100u}) {
      auto expected = oracle.Execute(keywords, m, Exhaustive());
      ASSERT_TRUE(expected.ok()) << expected.status();
      EXPECT_EQ(expected->stats.algorithm, "exhaustive");
      for (MergeAlgorithm algorithm : kPrunedAlgorithms) {
        QueryOptions options;
        options.algorithm = algorithm;
        auto got = pruned.Execute(keywords, m, options);
        ASSERT_TRUE(got.ok()) << got.status();
        std::string label = std::string(MergeAlgorithmName(algorithm)) +
                            " m=" + std::to_string(m) + " kw=" + keywords[0];
        // BMW may only degrade to itself here (max aggregation).
        EXPECT_EQ(got->stats.algorithm, MergeAlgorithmName(algorithm))
            << label;
        ExpectIdenticalResponses(*got, *expected, label);
      }
    }
  }
}

// Explicitly-requested pruned algorithms on CONJUNCTIVE queries (mixed
// mode): the per-document bounds never assume a missing keyword, so the
// results must still match the conjunctive exhaustive merge bitwise.
TEST_P(DisjunctivePruningTest, MixedModeConjunctiveMatchesOracle) {
  auto corpus = BuildIndexedCorpus(RandomCorpus(GetParam() + 8000, 10));
  datagen::Vocabulary vocab(8);
  Random rng(GetParam() * 37 + 3);

  query::DilQueryProcessor oracle(corpus->pool(IndexKind::kDil),
                                  corpus->lexicon(IndexKind::kDil),
                                  ScoringOptions{});
  query::DilQueryProcessor pruned(corpus->pool(IndexKind::kDil),
                                  corpus->lexicon(IndexKind::kDil),
                                  ScoringOptions{});

  for (int trial = 0; trial < 4; ++trial) {
    size_t nk = 2 + rng.Uniform(2);
    std::set<std::string> chosen;
    while (chosen.size() < nk) chosen.insert(vocab.Word(rng.Uniform(8)));
    std::vector<std::string> keywords(chosen.begin(), chosen.end());
    for (size_t m : {1u, 10u}) {
      auto expected = oracle.Execute(keywords, m, Exhaustive());
      ASSERT_TRUE(expected.ok()) << expected.status();
      for (MergeAlgorithm algorithm : kPrunedAlgorithms) {
        QueryOptions options;
        options.algorithm = algorithm;
        auto got = pruned.Execute(keywords, m, options);
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectIdenticalResponses(*got, *expected,
                                 std::string("mixed ") +
                                     MergeAlgorithmName(algorithm) +
                                     " m=" + std::to_string(m));
      }
    }
  }
}

// A pruned-algorithm request that cannot run (with decay > 1 no score
// bound is sound) degrades to the conjunctive DAAT skip path — the
// next-fastest exact strategy — not silently to the exhaustive merge; the
// stats label reports what actually ran.
TEST_P(DisjunctivePruningTest, UnavailablePrunedRequestFallsBackToDaat) {
  auto corpus = BuildIndexedCorpus(RandomCorpus(GetParam() + 8500, 8));
  datagen::Vocabulary vocab(8);
  Random rng(GetParam() * 41 + 13);

  ScoringOptions growing;
  growing.decay = 1.5;  // decay amplifies deep scores: no sound bound
  query::DilQueryProcessor oracle(corpus->pool(IndexKind::kDil),
                                  corpus->lexicon(IndexKind::kDil), growing);
  query::DilQueryProcessor unbounded(corpus->pool(IndexKind::kDil),
                                     corpus->lexicon(IndexKind::kDil),
                                     growing);
  for (int trial = 0; trial < 3; ++trial) {
    std::set<std::string> chosen;
    while (chosen.size() < 2) chosen.insert(vocab.Word(rng.Uniform(8)));
    std::vector<std::string> keywords(chosen.begin(), chosen.end());
    auto expected = oracle.Execute(keywords, 10, Exhaustive());
    ASSERT_TRUE(expected.ok()) << expected.status();
    for (MergeAlgorithm algorithm : kPrunedAlgorithms) {
      QueryOptions options;
      options.algorithm = algorithm;
      auto got = unbounded.Execute(keywords, 10, options);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->stats.algorithm, "daat")
          << MergeAlgorithmName(algorithm);
      ExpectIdenticalResponses(*got, *expected,
                               std::string("daat fallback from ") +
                                   MergeAlgorithmName(algorithm));
    }
    // An explicit exhaustive request still forces the oracle merge.
    auto forced = unbounded.Execute(keywords, 10, Exhaustive());
    ASSERT_TRUE(forced.ok()) << forced.status();
    EXPECT_EQ(forced->stats.algorithm, "exhaustive");
  }
}

// The HDIL processor now serves disjunctive queries by delegating to DIL.
TEST_P(DisjunctivePruningTest, HdilDelegatesDisjunctiveQueries) {
  auto corpus = BuildIndexedCorpus(RandomCorpus(GetParam() + 9000, 8));
  datagen::Vocabulary vocab(8);
  Random rng(GetParam() * 43 + 29);

  query::DilQueryProcessor oracle(corpus->pool(IndexKind::kDil),
                                  corpus->lexicon(IndexKind::kDil),
                                  Disjunctive());
  query::HdilQueryProcessor hdil(corpus->pool(IndexKind::kHdil),
                                 corpus->lexicon(IndexKind::kHdil),
                                 Disjunctive());
  for (int trial = 0; trial < 3; ++trial) {
    size_t nk = 1 + rng.Uniform(3);
    std::set<std::string> chosen;
    while (chosen.size() < nk) chosen.insert(vocab.Word(rng.Uniform(8)));
    std::vector<std::string> keywords(chosen.begin(), chosen.end());
    auto expected = oracle.Execute(keywords, 10, Exhaustive());
    auto got = hdil.Execute(keywords, 10);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectIdenticalResponses(*got, *expected, "hdil disjunctive");
    EXPECT_FALSE(got->stats.algorithm.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisjunctivePruningTest,
                         ::testing::Range<uint64_t>(1, 9));

// One (spec, rank layout, label) per registered codec / VBMW block sizing;
// the label doubles as the gtest parameter name.
struct CodecParam {
  index::PostingFormatSpec spec;
  testutil::RankLayout ranks;
  const char* label;
};

inline std::vector<CodecParam> AllCodecParams() {
  constexpr testutil::RankLayout kFloat32 = testutil::RankLayout::kFloat32;
  return {
      {{index::kPostingCodecVarint}, kFloat32, "varint_f32"},
      {{index::kPostingCodecBp128}, kFloat32, "bp128_f32"},
      {{index::kPostingCodecVarint, /*vbmw_lambda_milli=*/100}, kFloat32,
       "varint_f32_vbmw"},
  };
}

std::string CodecParamName(
    const ::testing::TestParamInfo<CodecParam>& info) {
  return info.param.label;
}

class DisjunctiveCodecPruningTest
    : public ::testing::TestWithParam<CodecParam> {};

// The pruned-vs-exhaustive oracle must hold under every registered codec
// and under variable-sized (VBMW) blocks — for both aggregations. All
// processors read the same index, so answers compare bitwise.
TEST_P(DisjunctiveCodecPruningTest, PrunedTopKMatchesExhaustiveOracle) {
  index::BuildOptions build;
  build.format = GetParam().spec;
  datagen::Vocabulary vocab(8);
  for (uint64_t seed : {5u, 11u}) {
    auto corpus = BuildIndexedCorpus(RandomCorpus(seed + 7500, 10), {}, 1024,
                                     build);
    ASSERT_EQ(corpus->lexicon(IndexKind::kDil)->format_spec(),
              GetParam().spec);
    Random rng(seed * 59 + 23);

    for (query::RankAggregation aggregation :
         {query::RankAggregation::kMax, query::RankAggregation::kSum}) {
      ScoringOptions scoring = Disjunctive();
      scoring.aggregation = aggregation;
      query::DilQueryProcessor oracle(corpus->pool(IndexKind::kDil),
                                      corpus->lexicon(IndexKind::kDil),
                                      scoring);
      query::DilQueryProcessor pruned(corpus->pool(IndexKind::kDil),
                                      corpus->lexicon(IndexKind::kDil),
                                      scoring);
      for (int trial = 0; trial < 3; ++trial) {
        size_t nk = 1 + rng.Uniform(3);
        std::set<std::string> chosen;
        while (chosen.size() < nk) chosen.insert(vocab.Word(rng.Uniform(8)));
        std::vector<std::string> keywords(chosen.begin(), chosen.end());

        for (size_t m : {1u, 3u, 100u}) {
          auto expected = oracle.Execute(keywords, m, Exhaustive());
          ASSERT_TRUE(expected.ok()) << expected.status();
          for (MergeAlgorithm algorithm : kPrunedAlgorithms) {
            QueryOptions options;
            options.algorithm = algorithm;
            auto got = pruned.Execute(keywords, m, options);
            ASSERT_TRUE(got.ok()) << got.status();
            ExpectIdenticalResponses(
                *got, *expected,
                std::string(GetParam().label) + " " +
                    MergeAlgorithmName(algorithm) +
                    (aggregation == query::RankAggregation::kSum ? " sum"
                                                                 : " max") +
                    " m=" + std::to_string(m));
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, DisjunctiveCodecPruningTest,
                         ::testing::ValuesIn(AllCodecParams()),
                         CodecParamName);

// Hand-built two-term index with full control over ElemRanks: every
// document holds both terms, the first few documents carry large ranks and
// the long tail is tiny — the regime score pruning exists for.
struct SyntheticIndex {
  std::unique_ptr<storage::PageFile> file;
  std::unique_ptr<storage::CostModel> cost_model;
  std::unique_ptr<storage::BufferPool> pool;
  index::Lexicon lexicon;
};

SyntheticIndex BuildSkewedIndex(uint32_t docs,
                                index::PostingFormatSpec spec = {}) {
  SyntheticIndex out;
  out.file = storage::PageFile::CreateInMemory();
  EXPECT_TRUE(out.lexicon.SetFormatSpec(spec).ok());
  const index::PostingFormat format =
      out.lexicon.ListFormat(/*delta_encode_ids=*/true);
  const char* terms[] = {"hot", "cold"};
  for (uint32_t t = 0; t < 2; ++t) {
    std::vector<index::Posting> postings;
    postings.reserve(docs);
    for (uint32_t d = 0; d < docs; ++d) {
      index::Posting posting;
      posting.id = dewey::DeweyId{d, 1};
      posting.elem_rank =
          d < 16 ? 1000.0f - static_cast<float>(d)
                 : 1.0f / static_cast<float>(d + 2);
      posting.positions = {t + 1};
      postings.push_back(std::move(posting));
    }
    index::PostingListWriter writer(out.file.get(), format);
    for (const index::Posting& posting : postings) {
      auto loc = writer.Add(posting);
      EXPECT_TRUE(loc.ok()) << loc.status();
    }
    auto extent = writer.Finish();
    EXPECT_TRUE(extent.ok()) << extent.status();
    index::TermInfo info;
    info.list = *extent;
    info.skips = writer.TakeSkips();
    info.max_doc_rank = writer.max_doc_rank();
    out.lexicon.Add(terms[t], std::move(info));
  }
  out.cost_model = std::make_unique<storage::CostModel>();
  out.pool = std::make_unique<storage::BufferPool>(out.file.get(), 1024,
                                                   out.cost_model.get());
  return out;
}

// On the skewed corpus, MaxScore and block-max WAND must actually skip
// documents and pages — and still match the oracle bitwise.
TEST(DisjunctiveSkewTest, MaxScoreAndBmwPruneOnSkewedRanks) {
  SyntheticIndex idx = BuildSkewedIndex(20000);
  std::vector<std::string> keywords = {"hot", "cold"};

  query::DilQueryProcessor pruned(idx.pool.get(), &idx.lexicon,
                                  Disjunctive());
  query::DilQueryProcessor exhaustive(idx.pool.get(), &idx.lexicon,
                                      Disjunctive());
  auto slow = exhaustive.Execute(keywords, 10, Exhaustive());
  ASSERT_TRUE(slow.ok()) << slow.status();
  ASSERT_EQ(slow->results.size(), 10u);

  for (MergeAlgorithm algorithm :
       {MergeAlgorithm::kMaxScore, MergeAlgorithm::kBlockMaxWand}) {
    QueryOptions options;
    options.algorithm = algorithm;
    auto fast = pruned.Execute(keywords, 10, options);
    ASSERT_TRUE(fast.ok()) << fast.status();
    const char* label = MergeAlgorithmName(algorithm);
    ExpectIdenticalResponses(*fast, *slow, label);
    // Run widening is aggressive here: once the heap is full, one prune
    // decision proves the whole tail irrelevant.
    EXPECT_GT(fast->stats.docs_skipped, 0u) << label;
    EXPECT_GT(fast->stats.blocks_pruned, 0u) << label;
    EXPECT_LT(fast->stats.postings_scanned, slow->stats.postings_scanned)
        << label;
  }

  // kAuto on a 2-term disjunctive query under max aggregation resolves to
  // block-max WAND.
  auto auto_run = pruned.Execute(keywords, 10);
  ASSERT_TRUE(auto_run.ok()) << auto_run.status();
  EXPECT_EQ(auto_run->stats.algorithm, "bmw");
  ExpectIdenticalResponses(*auto_run, *slow, "auto");
}

// Asymmetric corpus: "hot" appears only every `stride` documents with a
// large rank, "cold" in every document with a tiny one. Once the top-k
// fills with hot documents the threshold dwarfs cold's list-level bound —
// the regime where list-level pruning pays off even without page maxima.
SyntheticIndex BuildSparseHotIndex(uint32_t docs, uint32_t stride) {
  SyntheticIndex out;
  out.file = storage::PageFile::CreateInMemory();
  const index::PostingFormat format =
      out.lexicon.ListFormat(/*delta_encode_ids=*/true);
  struct TermList {
    const char* term;
    std::vector<index::Posting> postings;
  };
  std::vector<TermList> terms(2);
  terms[0].term = "hot";
  terms[1].term = "cold";
  for (uint32_t d = 0; d < docs; ++d) {
    if (d % stride == 0) {
      index::Posting posting;
      posting.id = dewey::DeweyId{d, 1};
      posting.elem_rank = 1000.0f - static_cast<float>(d / stride);
      posting.positions = {1};
      terms[0].postings.push_back(std::move(posting));
    }
    index::Posting posting;
    posting.id = dewey::DeweyId{d, 1};
    posting.elem_rank = 1.0f / static_cast<float>(d + 2);
    posting.positions = {2};
    terms[1].postings.push_back(std::move(posting));
  }
  for (TermList& term : terms) {
    index::PostingListWriter writer(out.file.get(), format);
    for (const index::Posting& posting : term.postings) {
      auto loc = writer.Add(posting);
      EXPECT_TRUE(loc.ok()) << loc.status();
    }
    auto extent = writer.Finish();
    EXPECT_TRUE(extent.ok()) << extent.status();
    index::TermInfo info;
    info.list = *extent;
    info.skips = writer.TakeSkips();
    info.max_doc_rank = writer.max_doc_rank();
    out.lexicon.Add(term.term, std::move(info));
  }
  out.cost_model = std::make_unique<storage::CostModel>();
  out.pool = std::make_unique<storage::BufferPool>(out.file.get(), 1024,
                                                   out.cost_model.get());
  return out;
}

// Under sum aggregation the per-page maxima are unsound, but the
// serialized per-term max_doc_rank still gives MaxScore a sound list-level
// bound — it must keep pruning. A BMW request must degrade to MaxScore.
TEST(DisjunctiveSkewTest, SumAggregationUsesListBoundsAndDegradesBmw) {
  SyntheticIndex idx = BuildSparseHotIndex(20000, 1000);
  std::vector<std::string> keywords = {"hot", "cold"};
  ScoringOptions scoring = Disjunctive();
  scoring.aggregation = query::RankAggregation::kSum;
  ASSERT_TRUE(query::SupportsScorePruning(scoring));
  ASSERT_FALSE(query::SupportsBlockMaxBounds(scoring));

  query::DilQueryProcessor pruned(idx.pool.get(), &idx.lexicon, scoring);
  query::DilQueryProcessor exhaustive(idx.pool.get(), &idx.lexicon, scoring);
  auto slow = exhaustive.Execute(keywords, 10, Exhaustive());
  ASSERT_TRUE(slow.ok()) << slow.status();

  QueryOptions bmw;
  bmw.algorithm = MergeAlgorithm::kBlockMaxWand;
  auto degraded = pruned.Execute(keywords, 10, bmw);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded->stats.algorithm, "maxscore");
  ExpectIdenticalResponses(*degraded, *slow, "bmw->maxscore");

  // MaxScore never prunes a candidate here (the essential hot list's bound
  // always reaches theta) — its win is demoting cold to the non-essential
  // partition, whose tail is advanced lazily instead of being merged.
  QueryOptions maxscore;
  maxscore.algorithm = MergeAlgorithm::kMaxScore;
  auto fast = pruned.Execute(keywords, 10, maxscore);
  ASSERT_TRUE(fast.ok()) << fast.status();
  ExpectIdenticalResponses(*fast, *slow, "maxscore sum");
  EXPECT_GT(fast->stats.pivot_advances, 0u);
  EXPECT_LT(fast->stats.postings_scanned, slow->stats.postings_scanned);
}

// Damaged bound metadata — non-finite per-page max_rank and per-term
// max_doc_rank — must degrade to "never prune", not to wrong results.
TEST(DisjunctiveSkewTest, CorruptedBoundsDegradeToNoPrune) {
  SyntheticIndex idx = BuildSkewedIndex(5000);
  std::vector<std::string> keywords = {"hot", "cold"};

  // Rebuild the lexicon with poisoned descriptors.
  index::Lexicon damaged;
  ASSERT_TRUE(damaged.SetFormatSpec(idx.lexicon.format_spec()).ok());
  for (const char* term : {"hot", "cold"}) {
    const index::TermInfo* info = idx.lexicon.Find(term);
    ASSERT_NE(info, nullptr);
    index::TermInfo bad = *info;
    bad.max_doc_rank = std::numeric_limits<float>::quiet_NaN();
    for (index::SkipEntry& skip : bad.skips) {
      skip.max_rank = std::numeric_limits<float>::infinity();
    }
    damaged.Add(term, std::move(bad));
  }

  query::DilQueryProcessor exhaustive(idx.pool.get(), &idx.lexicon,
                                      Disjunctive());
  auto slow = exhaustive.Execute(keywords, 10, Exhaustive());
  ASSERT_TRUE(slow.ok()) << slow.status();

  for (query::RankAggregation aggregation :
       {query::RankAggregation::kMax, query::RankAggregation::kSum}) {
    ScoringOptions scoring = Disjunctive();
    scoring.aggregation = aggregation;
    query::DilQueryProcessor oracle(idx.pool.get(), &idx.lexicon, scoring);
    auto expected = oracle.Execute(keywords, 10, Exhaustive());
    ASSERT_TRUE(expected.ok()) << expected.status();
    query::DilQueryProcessor processor(idx.pool.get(), &damaged, scoring);
    for (MergeAlgorithm algorithm : kPrunedAlgorithms) {
      QueryOptions options;
      options.algorithm = algorithm;
      auto got = processor.Execute(keywords, 10, options);
      ASSERT_TRUE(got.ok()) << got.status();
      const char* label = MergeAlgorithmName(algorithm);
      ExpectIdenticalResponses(*got, *expected, label);
      // Infinite bounds can never fall strictly below the threshold.
      EXPECT_EQ(got->stats.docs_skipped, 0u) << label;
      EXPECT_EQ(got->stats.blocks_pruned, 0u) << label;
    }
  }
}

// Cancellation mid-merge: every pruned algorithm unwinds with a clean
// DeadlineExceeded (its first cooperative check is inside the merge loop),
// or serves a correct partial top-k when allowed.
TEST(DisjunctiveSkewTest, CancellationUnwindsPrunedMerges) {
  SyntheticIndex idx = BuildSkewedIndex(5000);
  std::vector<std::string> keywords = {"hot", "cold"};
  query::DilQueryProcessor processor(idx.pool.get(), &idx.lexicon,
                                     Disjunctive());
  std::atomic<bool> cancel{true};

  for (MergeAlgorithm algorithm : kPrunedAlgorithms) {
    QueryOptions strict;
    strict.algorithm = algorithm;
    strict.cancel = &cancel;
    auto failed = processor.Execute(keywords, 10, strict);
    ASSERT_FALSE(failed.ok()) << MergeAlgorithmName(algorithm);
    EXPECT_EQ(failed.status().code(), StatusCode::kDeadlineExceeded)
        << MergeAlgorithmName(algorithm);

    QueryOptions partial = strict;
    partial.allow_partial_results = true;
    auto served = processor.Execute(keywords, 10, partial);
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_TRUE(served->stats.partial) << MergeAlgorithmName(algorithm);
  }
}

// VBMW block sizing: a positive lambda must close pages early on the
// rank-skewed list (strictly more, smaller pages than the dense writer),
// and queries over the variable-block index stay oracle-exact.
TEST(VbmwBlockTest, LambdaProducesMorePagesAndStaysExact) {
  index::PostingFormatSpec dense_spec;
  index::PostingFormatSpec vbmw_spec;
  vbmw_spec.vbmw_lambda_milli = 2000;  // lambda = 2.0 rank units of waste

  SyntheticIndex dense = BuildSkewedIndex(20000, dense_spec);
  SyntheticIndex vbmw = BuildSkewedIndex(20000, vbmw_spec);
  ASSERT_EQ(vbmw.lexicon.format_spec().vbmw_lambda_milli, 2000u);

  const index::TermInfo* dense_info = dense.lexicon.Find("hot");
  const index::TermInfo* vbmw_info = vbmw.lexicon.Find("hot");
  ASSERT_NE(dense_info, nullptr);
  ASSERT_NE(vbmw_info, nullptr);
  EXPECT_GT(vbmw_info->skips.size(), dense_info->skips.size());
  EXPECT_EQ(vbmw_info->list.entry_count, dense_info->list.entry_count);

  std::vector<std::string> keywords = {"hot", "cold"};
  query::DilQueryProcessor oracle(vbmw.pool.get(), &vbmw.lexicon,
                                  Disjunctive());
  query::DilQueryProcessor pruned(vbmw.pool.get(), &vbmw.lexicon,
                                  Disjunctive());
  auto slow = oracle.Execute(keywords, 10, Exhaustive());
  ASSERT_TRUE(slow.ok()) << slow.status();
  for (MergeAlgorithm algorithm : kPrunedAlgorithms) {
    QueryOptions options;
    options.algorithm = algorithm;
    auto fast = pruned.Execute(keywords, 10, options);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ExpectIdenticalResponses(*fast, *slow,
                             std::string("vbmw ") +
                                 MergeAlgorithmName(algorithm));
  }
}

TEST(ResolveMergeAlgorithmTest, HeuristicAndDegradations) {
  ScoringOptions max_agg = Disjunctive();
  ScoringOptions sum_agg = Disjunctive();
  sum_agg.aggregation = query::RankAggregation::kSum;
  ScoringOptions growing = Disjunctive();
  growing.decay = 1.5;  // no sound bound: decay amplifies deep scores

  // Auto: few-term + sound page bounds -> BMW; otherwise MaxScore.
  EXPECT_EQ(query::ResolveMergeAlgorithm(MergeAlgorithm::kAuto, max_agg, 2),
            MergeAlgorithm::kBlockMaxWand);
  EXPECT_EQ(query::ResolveMergeAlgorithm(MergeAlgorithm::kAuto, max_agg, 8),
            MergeAlgorithm::kMaxScore);
  EXPECT_EQ(query::ResolveMergeAlgorithm(MergeAlgorithm::kAuto, sum_agg, 2),
            MergeAlgorithm::kMaxScore);
  // BMW degrades to MaxScore when page bounds are unsound.
  EXPECT_EQ(query::ResolveMergeAlgorithm(MergeAlgorithm::kBlockMaxWand,
                                         sum_agg, 2),
            MergeAlgorithm::kMaxScore);
  EXPECT_EQ(query::ResolveMergeAlgorithm(MergeAlgorithm::kBlockMaxWand,
                                         max_agg, 2),
            MergeAlgorithm::kBlockMaxWand);
  // No sound list bound at all -> exhaustive, whatever was asked.
  for (MergeAlgorithm algorithm : kPrunedAlgorithms) {
    EXPECT_EQ(query::ResolveMergeAlgorithm(algorithm, growing, 2),
              MergeAlgorithm::kExhaustive);
  }
  EXPECT_EQ(query::ResolveMergeAlgorithm(MergeAlgorithm::kExhaustive,
                                         max_agg, 2),
            MergeAlgorithm::kExhaustive);
}

TEST(TermScoreBoundTest, SoundnessFallbacks) {
  ScoringOptions max_agg = Disjunctive();
  ScoringOptions sum_agg = Disjunctive();
  sum_agg.aggregation = query::RankAggregation::kSum;

  index::TermInfo info;
  info.list.entry_count = 10;
  info.skips.push_back(index::SkipEntry{0, dewey::DeweyId({0, 1}), 3.5f});
  info.skips.push_back(index::SkipEntry{1, dewey::DeweyId({5, 1}), 7.25f});
  info.max_doc_rank = 12.5f;

  EXPECT_EQ(query::TermScoreBound(info, max_agg), 7.25);
  EXPECT_EQ(query::TermScoreBound(info, sum_agg), 12.5);

  // Unknown / damaged metadata -> +inf (no pruning), never a finite lie.
  index::TermInfo unknown = info;
  unknown.max_doc_rank = 0.0f;  // pre-field serialized blobs read back as 0
  EXPECT_TRUE(std::isinf(query::TermScoreBound(unknown, sum_agg)));
  index::TermInfo damaged = info;
  damaged.skips[1].max_rank = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isinf(query::TermScoreBound(damaged, max_agg)));
  index::TermInfo no_skips = info;
  no_skips.skips.clear();
  EXPECT_TRUE(std::isinf(query::TermScoreBound(no_skips, max_agg)));

  // Empty lists contribute nothing.
  index::TermInfo empty;
  EXPECT_EQ(query::TermScoreBound(empty, max_agg), 0.0);
  EXPECT_EQ(query::TermScoreBound(empty, sum_agg), 0.0);
}

// The serialized per-term max_doc_rank round-trips through the lexicon
// blob and dominates every per-document rank sum.
TEST(MaxDocRankTest, WriterTracksPerDocumentSums) {
  auto file = storage::PageFile::CreateInMemory();
  std::vector<index::Posting> postings;
  // Document 3 holds three occurrences summing to 6.0 — larger than any
  // single rank in the list.
  const std::pair<uint32_t, float> entries[] = {
      {1, 2.5f}, {3, 1.0f}, {3, 2.0f}, {3, 3.0f}, {7, 4.0f}};
  uint32_t component = 1;
  for (const auto& [doc, rank] : entries) {
    index::Posting posting;
    posting.id = dewey::DeweyId{doc, component++};
    posting.elem_rank = rank;
    posting.positions = {1};
    postings.push_back(std::move(posting));
  }
  index::PostingListWriter writer(
      file.get(), index::DefaultPostingFormat(/*delta_encode_ids=*/true));
  for (const index::Posting& posting : postings) {
    ASSERT_TRUE(writer.Add(posting).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_GE(writer.max_doc_rank(), 6.0f);
  EXPECT_LE(writer.max_doc_rank(), 6.01f);
}

}  // namespace
}  // namespace xrank

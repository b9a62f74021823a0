// Block-max pruning property tests: the pruned conjunctive top-k merge must
// be invisible in the results — identical ids AND identical (bitwise) ranks
// versus the exhaustive-merge oracle — across randomized corpora, k values
// and term counts; and on a rank-skewed corpus it must actually prune. Also
// covers the decoded-block cache: cached re-execution returns identical
// results and reports hits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "datagen/vocabulary.h"
#include "index/block_cache.h"
#include "index/codec.h"
#include "index/lexicon.h"
#include "index/posting.h"
#include "query/dil_query.h"
#include "query/hdil_query.h"
#include "query/result_heap.h"
#include "query/scoring.h"
#include "storage/buffer_pool.h"
#include "storage/cost_model.h"
#include "storage/page_file.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace xrank {
namespace {

using index::IndexKind;
using query::ScoringOptions;
using testutil::BuildIndexedCorpus;
using testutil::Exhaustive;

// Same adversarial regime as semantics_property_test: a tiny vocabulary so
// keywords co-occur heavily and documents legitimately tie.
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

class PruningPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Pruned top-k == exhaustive top-k, ids and scores, across randomized
// corpora / k / term counts — with and without the decoded-block cache.
TEST_P(PruningPropertyTest, PrunedTopKMatchesExhaustiveOracle) {
  auto corpus = BuildIndexedCorpus(RandomCorpus(GetParam() + 4000, 10));
  datagen::Vocabulary vocab(8);
  Random rng(GetParam() * 29 + 11);
  index::BlockCache cache(1u << 20);

  query::DilQueryProcessor exhaustive(corpus->pool(IndexKind::kDil),
                                      corpus->lexicon(IndexKind::kDil),
                                      ScoringOptions{});
  query::DilQueryProcessor pruned(corpus->pool(IndexKind::kDil),
                                  corpus->lexicon(IndexKind::kDil),
                                  ScoringOptions{});
  query::DilQueryProcessor pruned_cached(corpus->pool(IndexKind::kDil),
                                         corpus->lexicon(IndexKind::kDil),
                                         ScoringOptions{}, &cache);

  for (int trial = 0; trial < 8; ++trial) {
    size_t nk = 1 + rng.Uniform(3);
    std::set<std::string> chosen;
    while (chosen.size() < nk) chosen.insert(vocab.Word(rng.Uniform(8)));
    std::vector<std::string> keywords(chosen.begin(), chosen.end());

    for (size_t m : {1u, 3u, 10u, 100u}) {
      auto oracle = exhaustive.Execute(keywords, m, Exhaustive());
      ASSERT_TRUE(oracle.ok()) << oracle.status();
      for (auto* processor : {&pruned, &pruned_cached}) {
        auto got = processor->Execute(keywords, m);
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectIdenticalResponses(*got, *oracle,
                                 "m=" + std::to_string(m) +
                                     " kw=" + keywords[0]);
      }
      EXPECT_EQ(oracle->stats.blocks_pruned, 0u);
    }
  }
}

// The HDIL processor (rank-prefix TA phase + possible DIL fallback) with a
// block cache attached must agree with the cacheless run.
TEST_P(PruningPropertyTest, HdilWithBlockCacheMatchesWithout) {
  auto corpus = BuildIndexedCorpus(RandomCorpus(GetParam() + 5000, 8));
  datagen::Vocabulary vocab(8);
  Random rng(GetParam() * 41 + 13);
  index::BlockCache cache(1u << 20);

  query::HdilQueryProcessor plain(corpus->pool(IndexKind::kHdil),
                                  corpus->lexicon(IndexKind::kHdil),
                                  ScoringOptions{});
  query::HdilQueryProcessor cached(corpus->pool(IndexKind::kHdil),
                                   corpus->lexicon(IndexKind::kHdil),
                                   ScoringOptions{}, &cache);
  for (int trial = 0; trial < 6; ++trial) {
    size_t nk = 1 + rng.Uniform(3);
    std::set<std::string> chosen;
    while (chosen.size() < nk) chosen.insert(vocab.Word(rng.Uniform(8)));
    std::vector<std::string> keywords(chosen.begin(), chosen.end());

    for (size_t m : {3u, 25u}) {
      auto a = plain.Execute(keywords, m);
      auto b = cached.Execute(keywords, m);
      ASSERT_TRUE(a.ok() && b.ok());
      ExpectIdenticalResponses(*b, *a, "hdil m=" + std::to_string(m));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruningPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

// One (spec, rank layout, label) per registered codec; the label doubles
// as the gtest parameter name.
struct CodecParam {
  index::PostingFormatSpec spec;
  testutil::RankLayout ranks;
  const char* label;
};

inline const std::vector<CodecParam>& AllCodecParams() {
  static const std::vector<CodecParam> params = {
      {{index::kPostingCodecVarint}, testutil::RankLayout::kFloat32,
       "varint_f32"},
      {{index::kPostingCodecBp128}, testutil::RankLayout::kFloat32,
       "bp128_f32"},
  };
  return params;
}

std::string CodecParamName(
    const ::testing::TestParamInfo<CodecParam>& info) {
  return info.param.label;
}

class CodecPruningPropertyTest : public ::testing::TestWithParam<CodecParam> {
};

// The pruned-vs-exhaustive oracle must hold under every registered codec.
// All processors read the same index, so answers compare bitwise.
TEST_P(CodecPruningPropertyTest, PrunedTopKMatchesExhaustiveOracle) {
  index::BuildOptions build;
  build.format = GetParam().spec;
  datagen::Vocabulary vocab(8);
  for (uint64_t seed : {3u, 7u}) {
    auto corpus = BuildIndexedCorpus(RandomCorpus(seed + 6000, 10), {}, 1024,
                                     build);
    ASSERT_EQ(corpus->lexicon(IndexKind::kDil)->format_spec(),
              GetParam().spec);
    Random rng(seed * 53 + 17);

    query::DilQueryProcessor exhaustive(corpus->pool(IndexKind::kDil),
                                        corpus->lexicon(IndexKind::kDil),
                                        ScoringOptions{});
    query::DilQueryProcessor pruned(corpus->pool(IndexKind::kDil),
                                    corpus->lexicon(IndexKind::kDil),
                                    ScoringOptions{});
    for (int trial = 0; trial < 4; ++trial) {
      size_t nk = 1 + rng.Uniform(3);
      std::set<std::string> chosen;
      while (chosen.size() < nk) chosen.insert(vocab.Word(rng.Uniform(8)));
      std::vector<std::string> keywords(chosen.begin(), chosen.end());

      for (size_t m : {1u, 3u, 100u}) {
        auto oracle = exhaustive.Execute(keywords, m, Exhaustive());
        ASSERT_TRUE(oracle.ok()) << oracle.status();
        auto got = pruned.Execute(keywords, m);
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectIdenticalResponses(*got, *oracle,
                                 std::string(GetParam().label) +
                                     " m=" + std::to_string(m) +
                                     " kw=" + keywords[0]);
      }
    }
  }
}

// HDIL's TA phase (rank-ordered prefix + random probes) under every codec.
TEST_P(CodecPruningPropertyTest, HdilMatchesDilOracle) {
  index::BuildOptions build;
  build.format = GetParam().spec;
  datagen::Vocabulary vocab(8);
  auto corpus =
      BuildIndexedCorpus(RandomCorpus(9001, 8), {}, 1024, build);
  Random rng(97);

  query::DilQueryProcessor oracle(corpus->pool(IndexKind::kDil),
                                  corpus->lexicon(IndexKind::kDil),
                                  ScoringOptions{});
  query::HdilQueryProcessor hdil(corpus->pool(IndexKind::kHdil),
                                 corpus->lexicon(IndexKind::kHdil),
                                 ScoringOptions{});
  for (int trial = 0; trial < 4; ++trial) {
    size_t nk = 1 + rng.Uniform(3);
    std::set<std::string> chosen;
    while (chosen.size() < nk) chosen.insert(vocab.Word(rng.Uniform(8)));
    std::vector<std::string> keywords(chosen.begin(), chosen.end());
    for (size_t m : {3u, 25u}) {
      auto a = oracle.Execute(keywords, m, Exhaustive());
      auto b = hdil.Execute(keywords, m);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      // Ids must agree exactly; ranks to within float noise (HDIL's TA
      // phase may aggregate in a different order than the DIL merge).
      ASSERT_EQ(b->results.size(), a->results.size()) << GetParam().label;
      for (size_t i = 0; i < a->results.size(); ++i) {
        EXPECT_EQ(b->results[i].id, a->results[i].id)
            << GetParam().label << " i=" << i;
        EXPECT_NEAR(b->results[i].rank, a->results[i].rank, 1e-9)
            << GetParam().label << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, CodecPruningPropertyTest,
                         ::testing::ValuesIn(AllCodecParams()),
                         CodecParamName);

// Hand-built two-term index with full control over ElemRanks: every
// document holds both terms (document skipping can never help), the first
// few documents carry large ranks and the long tail is tiny — the regime
// block-max pruning exists for.
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
    out.lexicon.Add(terms[t], std::move(info));
  }
  out.cost_model = std::make_unique<storage::CostModel>();
  out.pool = std::make_unique<storage::BufferPool>(out.file.get(), 1024,
                                                   out.cost_model.get());
  return out;
}

TEST(PruningTest, PrunesBlocksOnSkewedRanksAndMatchesOracle) {
  SyntheticIndex idx = BuildSkewedIndex(20000);
  std::vector<std::string> keywords = {"hot", "cold"};

  query::DilQueryProcessor pruned(idx.pool.get(), &idx.lexicon,
                                  ScoringOptions{});
  query::DilQueryProcessor exhaustive(idx.pool.get(), &idx.lexicon,
                                      ScoringOptions{});
  auto fast = pruned.Execute(keywords, 10);
  auto slow = exhaustive.Execute(keywords, 10, Exhaustive());
  ASSERT_TRUE(fast.ok()) << fast.status();
  ASSERT_TRUE(slow.ok()) << slow.status();

  ASSERT_EQ(fast->results.size(), 10u);
  ExpectIdenticalResponses(*fast, *slow, "skewed");
  // Every document holds both terms, so document-at-a-time skipping alone
  // reads everything; only the rank bounds can cut the tail.
  EXPECT_GT(fast->stats.blocks_pruned, 0u);
  EXPECT_LT(fast->stats.postings_scanned, slow->stats.postings_scanned);
  EXPECT_EQ(slow->stats.blocks_pruned, 0u);
}

// Same skewed regime under every codec: pruning must still fire and still
// be invisible in the results.
class SkewedCodecPruningTest : public ::testing::TestWithParam<CodecParam> {};

TEST_P(SkewedCodecPruningTest, PrunesAndMatchesOracle) {
  SyntheticIndex idx = BuildSkewedIndex(10000, GetParam().spec);
  std::vector<std::string> keywords = {"hot", "cold"};

  query::DilQueryProcessor pruned(idx.pool.get(), &idx.lexicon,
                                  ScoringOptions{});
  query::DilQueryProcessor exhaustive(idx.pool.get(), &idx.lexicon,
                                      ScoringOptions{});
  auto fast = pruned.Execute(keywords, 10);
  auto slow = exhaustive.Execute(keywords, 10, Exhaustive());
  ASSERT_TRUE(fast.ok()) << fast.status();
  ASSERT_TRUE(slow.ok()) << slow.status();
  ASSERT_EQ(fast->results.size(), 10u);
  ExpectIdenticalResponses(*fast, *slow, GetParam().label);
  EXPECT_GT(fast->stats.blocks_pruned, 0u) << GetParam().label;
  EXPECT_LT(fast->stats.postings_scanned, slow->stats.postings_scanned)
      << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(Codecs, SkewedCodecPruningTest,
                         ::testing::ValuesIn(AllCodecParams()),
                         CodecParamName);

// Pruning must disable itself under scoring options where the bound is
// unsound (sum aggregation) and still match the oracle.
TEST(PruningTest, SumAggregationDisablesPruningButStaysCorrect) {
  SyntheticIndex idx = BuildSkewedIndex(5000);
  std::vector<std::string> keywords = {"hot", "cold"};
  ScoringOptions sum_options;
  sum_options.aggregation = query::RankAggregation::kSum;
  ASSERT_FALSE(query::SupportsBlockMaxBounds(sum_options));

  query::DilQueryProcessor pruned(idx.pool.get(), &idx.lexicon, sum_options);
  query::DilQueryProcessor exhaustive(idx.pool.get(), &idx.lexicon,
                                      sum_options);
  auto fast = pruned.Execute(keywords, 10);
  auto slow = exhaustive.Execute(keywords, 10, Exhaustive());
  ASSERT_TRUE(fast.ok() && slow.ok());
  ExpectIdenticalResponses(*fast, *slow, "sum");
  EXPECT_EQ(fast->stats.blocks_pruned, 0u);
}

// Repeating a query through one shared block cache serves pages without
// re-decoding: hits are reported and results stay identical.
TEST(BlockCacheTest, RepeatedQueryHitsCacheWithIdenticalResults) {
  SyntheticIndex idx = BuildSkewedIndex(2000);
  index::BlockCache cache(4u << 20);
  std::vector<std::string> keywords = {"hot", "cold"};

  query::DilQueryProcessor processor(idx.pool.get(), &idx.lexicon,
                                     ScoringOptions{}, &cache);
  auto first = processor.Execute(keywords, 10);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->stats.block_cache_hits, 0u);
  EXPECT_GT(cache.insertions(), 0u);

  auto second = processor.Execute(keywords, 10);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_GT(second->stats.block_cache_hits, 0u);
  ExpectIdenticalResponses(*second, *first, "cached repeat");

  cache.Clear();
  EXPECT_EQ(cache.cached_blocks(), 0u);
  EXPECT_EQ(cache.charged_bytes(), 0u);
  auto third = processor.Execute(keywords, 10);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->stats.block_cache_hits, 0u);  // invalidation took
  ExpectIdenticalResponses(*third, *first, "post-clear");
}

TEST(BlockCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  index::BlockCache::Block sample;
  sample.Append(
      index::Posting{dewey::DeweyId{1, 2}, 1.0f, {1, 2, 3}}.view());
  size_t charge = index::BlockCache::BlockCharge(sample);
  // Room for ~3 blocks in one shard.
  index::BlockCache cache(charge * 3 + charge / 2, /*num_shards=*/1);

  auto block = std::make_shared<const index::BlockCache::Block>(sample);
  for (uint32_t p = 0; p < 5; ++p) {
    cache.Insert(index::BlockCache::Key{1, p}, block);
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.charged_bytes(), charge * 3 + charge / 2);
  // Oldest keys evicted, newest retained.
  EXPECT_EQ(cache.Lookup(index::BlockCache::Key{1, 0}), nullptr);
  EXPECT_NE(cache.Lookup(index::BlockCache::Key{1, 4}), nullptr);
  // Distinct file ids never alias.
  EXPECT_EQ(cache.Lookup(index::BlockCache::Key{2, 4}), nullptr);
}

TEST(BlockCacheTest, ZeroCapacityDisablesCaching) {
  index::BlockCache cache(0);
  auto block = std::make_shared<const index::BlockCache::Block>();
  cache.Insert(index::BlockCache::Key{1, 1}, block);
  EXPECT_EQ(cache.Lookup(index::BlockCache::Key{1, 1}), nullptr);
  EXPECT_EQ(cache.cached_blocks(), 0u);
}

TEST(KthRankTest, ThresholdTracksTheMthBestCandidate) {
  query::TopKAccumulator accumulator(2);
  EXPECT_TRUE(std::isinf(accumulator.KthRank()));
  accumulator.Add(dewey::DeweyId{1}, 5.0);
  EXPECT_TRUE(std::isinf(accumulator.KthRank()));  // heap not full yet
  accumulator.Add(dewey::DeweyId{2}, 3.0);
  EXPECT_EQ(accumulator.KthRank(), 3.0);
  accumulator.Add(dewey::DeweyId{3}, 4.0);
  EXPECT_EQ(accumulator.KthRank(), 4.0);
  // Re-adding an id with a higher rank re-sorts the threshold.
  accumulator.Add(dewey::DeweyId{2}, 6.0);
  EXPECT_EQ(accumulator.KthRank(), 5.0);
}

// The accumulator against a brute-force map of every candidate: seeded
// streams whose ids repeat (re-added both higher and lower) and whose ranks
// tie at the m-th place, with and without a shared θ floor.
TEST(TopKAccumulatorTest, MatchesAllCandidateReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t m : {size_t{0}, size_t{1}, size_t{10}, size_t{84}}) {
    for (bool shared_floor : {false, true}) {
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        xrank::Random rng(seed * 1000 + m);
        query::TopKAccumulator accumulator(m);
        query::SharedTopKThreshold shared;
        const double floor = 2.0;
        if (shared_floor) {
          shared.Raise(floor);
          accumulator.AttachShared(&shared);
        }
        std::map<dewey::DeweyId, double> best;
        for (int step = 0; step < 400; ++step) {
          // 60 ids of depth 1-3, ranks on a coarse grid so ties are common.
          const uint32_t key = static_cast<uint32_t>(rng.Uniform(60));
          dewey::DeweyId id;
          if (key % 3 == 0) {
            id = dewey::DeweyId{key};
          } else if (key % 3 == 1) {
            id = dewey::DeweyId{key / 3, key};
          } else {
            id = dewey::DeweyId{key / 3, 1, key};
          }
          const double rank = static_cast<double>(rng.Uniform(16)) / 4.0;
          accumulator.Add(id, rank);
          auto [it, inserted] = best.emplace(id, rank);
          if (!inserted) it->second = std::max(it->second, rank);

          std::vector<query::RankedResult> expected;
          for (const auto& [candidate, r] : best) {
            expected.push_back(query::RankedResult{candidate, r});
          }
          std::sort(expected.begin(), expected.end(),
                    [](const query::RankedResult& a,
                       const query::RankedResult& b) {
                      return query::RankOrder(a.rank, a.id, b.rank, b.id);
                    });
          if (expected.size() > m) expected.resize(m);
          const std::vector<query::RankedResult> top = accumulator.TakeTop();
          ASSERT_EQ(top.size(), expected.size()) << "step " << step;
          for (size_t i = 0; i < top.size(); ++i) {
            EXPECT_EQ(top[i].id, expected[i].id) << "step " << step;
            EXPECT_EQ(top[i].rank, expected[i].rank) << "step " << step;
          }
          double kth = (m == 0 || expected.size() < m) ? -kInf
                                                       : expected.back().rank;
          if (shared_floor) kth = std::max(kth, floor);
          EXPECT_EQ(accumulator.KthRank(), kth) << "step " << step;
          for (double threshold : {rank, kth, 1.5}) {
            size_t count = 0;
            for (const auto& [candidate, r] : best) {
              if (r >= threshold) ++count;
            }
            EXPECT_EQ(accumulator.CountAtLeast(threshold), std::min(count, m))
                << "step " << step << " threshold " << threshold;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace xrank

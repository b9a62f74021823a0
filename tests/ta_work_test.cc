// Pins the exact work of the threshold algorithm (paper Figure 7) that
// Naive-Rank, RDIL and HDIL run: postings read, rounds, index probes and
// cost-model units of planted queries on a seeded corpus, each query on a
// cold pool, together with the answers. The other query tests bound these
// counts; this one fails on any change to how much work the algorithm
// does, so a change that claims to keep the algorithm as it is has to keep
// every number here.
//
// On a mismatch the test prints the row it measured, in the table's
// format, so a deliberate change of behaviour can re-pin it.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "datagen/dblp_gen.h"
#include "query/hdil_query.h"
#include "query/naive_query.h"
#include "query/rdil_query.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace xrank::query {
namespace {

using index::IndexKind;
using testutil::ResultsDigest;

struct Work {
  std::string corpus;       // a Setting's name
  std::string processor;    // "naive-rank", "rdil" or "hdil"
  std::string correlation;  // "high" or "low"
  size_t keywords = 0;
  uint64_t postings_scanned = 0;
  uint64_t rounds = 0;
  uint64_t btree_probes = 0;
  uint64_t hash_probes = 0;
  double io_cost = 0.0;
  bool threshold_terminated = false;
  bool switched_to_dil = false;
  size_t result_count = 0;
  // FNV-1a over every result's Dewey id and the bits of its rank, in
  // result order: equal digests mean the same ids with bitwise equal ranks.
  uint64_t results_digest = 0;

  bool operator==(const Work& other) const = default;
};

std::string FormatRow(const Work& w) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", \"%s\", \"%s\", %zu, %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %.1f, %s, %s, %zu, 0x%016" PRIx64
                "ull},",
                w.corpus.c_str(), w.processor.c_str(), w.correlation.c_str(),
                w.keywords,
                w.postings_scanned, w.rounds, w.btree_probes, w.hash_probes,
                w.io_cost, w.threshold_terminated ? "true" : "false",
                w.switched_to_dil ? "true" : "false", w.result_count,
                w.results_digest);
  return buf;
}

// corpus, processor, correlation, keywords, postings_scanned, rounds,
// btree_probes, hash_probes, io_cost, threshold_terminated,
// switched_to_dil, result_count, results_digest.
const std::vector<Work>& ExpectedWork() {
  static const std::vector<Work> expected = {
      {"sparse", "naive-rank", "high", 1, 2, 2, 0, 0, 50.0, false, false, 2,
       0x733378bd3fd09411ull},
      {"sparse", "naive-rank", "high", 2, 6, 4, 0, 2, 150.0, false, false, 2,
       0xb222ab20f366f1d1ull},
      {"sparse", "naive-rank", "high", 3, 10, 6, 0, 4, 200.0, false, false, 2,
       0xf7d0bf047013a5c9ull},
      {"sparse", "naive-rank", "high", 4, 14, 8, 0, 6, 251.0, false, false, 2,
       0x66eebf7dbcb7d711ull},
      {"sparse", "naive-rank", "low", 1, 10, 10, 0, 0, 50.0, true, false, 10,
       0x1c98010caa429423ull},
      {"sparse", "naive-rank", "low", 2, 24, 18, 0, 12, 200.0, false, false, 6,
       0x76bced3310830ca0ull},
      {"sparse", "naive-rank", "low", 3, 42, 30, 0, 24, 250.0, false, false, 6,
       0x910d5ba3f117b67aull},
      {"sparse", "naive-rank", "low", 4, 60, 42, 0, 36, 300.0, false, false, 6,
       0x96919de18a3faa00ull},
      {"sparse", "rdil", "high", 1, 2, 1, 0, 0, 100.0, false, false, 1,
       0x3162dddc82297b2aull},
      {"sparse", "rdil", "high", 2, 4, 2, 2, 0, 150.0, false, false, 1,
       0x31995ddc8257e41aull},
      {"sparse", "rdil", "high", 3, 6, 3, 6, 0, 200.0, false, false, 1,
       0x71d168576d792705ull},
      {"sparse", "rdil", "high", 4, 8, 4, 12, 0, 251.0, false, false, 1,
       0x30f5dddc81cca94aull},
      {"sparse", "rdil", "low", 1, 10, 5, 0, 0, 100.0, false, false, 5,
       0xa5e58a65579b9aa2ull},
      {"sparse", "rdil", "low", 2, 15, 9, 9, 0, 150.0, false, false, 3,
       0x04acc170255d5a7aull},
      {"sparse", "rdil", "low", 3, 24, 15, 24, 0, 200.0, false, false, 3,
       0x7f9e128567086ed3ull},
      {"sparse", "rdil", "low", 4, 33, 21, 45, 0, 250.0, false, false, 3,
       0x37d1de99ad069b2aull},
      {"sparse", "hdil", "high", 1, 3, 1, 0, 0, 150.0, false, true, 1,
       0x3162dddc82297b2aull},
      {"sparse", "hdil", "high", 2, 6, 2, 2, 0, 250.0, false, true, 1,
       0x31995ddc8257e41aull},
      {"sparse", "hdil", "high", 3, 9, 3, 6, 0, 350.0, false, true, 1,
       0x71d168576d792705ull},
      {"sparse", "hdil", "high", 4, 12, 4, 12, 0, 450.0, false, true, 1,
       0x30f5dddc81cca94aull},
      {"sparse", "hdil", "low", 1, 15, 5, 0, 0, 150.0, false, true, 5,
       0xa5e58a65579b9aa2ull},
      {"sparse", "hdil", "low", 2, 21, 9, 9, 0, 300.0, false, true, 3,
       0x04acc170255d5a7aull},
      {"sparse", "hdil", "low", 3, 31, 13, 21, 0, 400.0, false, true, 3,
       0x7f9e128567086ed3ull},
      {"sparse", "hdil", "low", 4, 41, 17, 37, 0, 500.0, false, true, 3,
       0x37d1de99ad069b2aull},
      {"dense", "naive-rank", "high", 1, 5, 5, 0, 0, 50.0, true, false, 5,
       0xa17f8f696d7d6803ull},
      {"dense", "naive-rank", "high", 2, 15, 10, 0, 5, 150.0, true, false, 5,
       0x80bee5260903a433ull},
      {"dense", "naive-rank", "high", 3, 25, 15, 0, 10, 250.0, true, false, 5,
       0x23583838a738193cull},
      {"dense", "naive-rank", "high", 4, 35, 20, 0, 15, 350.0, true, false, 5,
       0x92771e5de093c263ull},
      {"dense", "naive-rank", "low", 1, 5, 5, 0, 0, 50.0, true, false, 5,
       0x2ce5f4ba189b638cull},
      {"dense", "naive-rank", "low", 2, 40, 34, 0, 30, 200.0, true, false, 5,
       0x6660a259558f73a6ull},
      {"dense", "naive-rank", "low", 3, 63, 51, 0, 48, 251.0, true, false, 5,
       0xc215a0e3d02e105eull},
      {"dense", "naive-rank", "low", 4, 98, 80, 0, 78, 351.0, true, false, 5,
       0x3cc6e32b8a603e16ull},
      {"dense", "rdil", "high", 1, 10, 5, 0, 0, 100.0, true, false, 5,
       0x5c9f44de0595860bull},
      {"dense", "rdil", "high", 2, 20, 10, 10, 0, 200.0, true, false, 5,
       0x695ede3e691a5d3bull},
      {"dense", "rdil", "high", 3, 30, 15, 30, 0, 251.0, true, false, 5,
       0xae5c65e329eb8a1eull},
      {"dense", "rdil", "high", 4, 40, 20, 60, 0, 301.0, true, false, 5,
       0xa340ab8237a78c6bull},
      {"dense", "rdil", "low", 1, 10, 5, 0, 0, 100.0, true, false, 5,
       0x908dcef37401dd2eull},
      {"dense", "rdil", "low", 2, 37, 31, 31, 0, 150.0, false, false, 3,
       0x1e36ea7390923aa3ull},
      {"dense", "rdil", "low", 3, 55, 46, 55, 0, 201.0, false, false, 3,
       0x48f4bdbfd7515c78ull},
      {"dense", "rdil", "low", 4, 86, 74, 98, 0, 251.0, false, false, 3,
       0xd3cbd6e001dea493ull},
      {"dense", "hdil", "high", 1, 10, 5, 0, 0, 150.0, true, false, 5,
       0x5c9f44de0595860bull},
      {"dense", "hdil", "high", 2, 20, 10, 10, 0, 250.0, true, false, 5,
       0x695ede3e691a5d3bull},
      {"dense", "hdil", "high", 3, 30, 15, 30, 0, 350.0, true, false, 5,
       0xae5c65e329eb8a1eull},
      {"dense", "hdil", "high", 4, 40, 20, 60, 0, 450.0, true, false, 5,
       0xa340ab8237a78c6bull},
      {"dense", "hdil", "low", 1, 10, 5, 0, 0, 150.0, true, false, 5,
       0x908dcef37401dd2eull},
      {"dense", "hdil", "low", 2, 28, 16, 16, 0, 250.0, false, true, 3,
       0x1e36ea7390923aa3ull},
      {"dense", "hdil", "low", 3, 42, 24, 33, 0, 350.0, false, true, 3,
       0x48f4bdbfd7515c78ull},
      {"dense", "hdil", "low", 4, 56, 32, 56, 0, 450.0, false, true, 3,
       0xd3cbd6e001dea493ull},
      {"disjoint", "naive-rank", "high", 1, 10, 10, 0, 0, 50.0, true, false, 10,
       0x16c8ef6e18201584ull},
      {"disjoint", "naive-rank", "high", 2, 30, 20, 0, 10, 150.0, true, false,
       10, 0x64b75ac3517fcac4ull},
      {"disjoint", "naive-rank", "high", 3, 50, 30, 0, 20, 250.0, true, false,
       10, 0xf9a9f8403a649efaull},
      {"disjoint", "naive-rank", "high", 4, 70, 40, 0, 30, 350.0, true, false,
       10, 0xb085eed03943b384ull},
      {"disjoint", "naive-rank", "low", 1, 10, 10, 0, 0, 50.0, true, false, 10,
       0x72c433e825d2f54dull},
      {"disjoint", "naive-rank", "low", 2, 81, 81, 0, 81, 200.0, false, false,
       0, 0xcbf29ce484222325ull},
      {"disjoint", "naive-rank", "low", 3, 114, 114, 0, 114, 250.0, false,
       false, 0, 0xcbf29ce484222325ull},
      {"disjoint", "naive-rank", "low", 4, 163, 163, 0, 163, 300.0, false,
       false, 0, 0xcbf29ce484222325ull},
      {"disjoint", "rdil", "high", 1, 20, 10, 0, 0, 100.0, true, false, 10,
       0x887ea7519a25f8ebull},
      {"disjoint", "rdil", "high", 2, 39, 19, 19, 0, 200.0, true, false, 10,
       0x5ea29a63c4e3b02bull},
      {"disjoint", "rdil", "high", 3, 58, 28, 56, 0, 251.0, true, false, 10,
       0xe50f59115f2987b1ull},
      {"disjoint", "rdil", "high", 4, 77, 37, 111, 0, 302.0, true, false, 10,
       0xd902b569e00b80ebull},
      {"disjoint", "rdil", "low", 1, 20, 10, 0, 0, 100.0, true, false, 10,
       0x45d74a1116820a92ull},
      {"disjoint", "rdil", "low", 2, 46, 46, 46, 0, 200.0, false, false, 0,
       0xcbf29ce484222325ull},
      {"disjoint", "rdil", "low", 3, 64, 64, 64, 0, 250.0, false, false, 0,
       0xcbf29ce484222325ull},
      {"disjoint", "rdil", "low", 4, 91, 91, 91, 0, 300.0, false, false, 0,
       0xcbf29ce484222325ull},
      {"disjoint", "hdil", "high", 1, 97, 8, 0, 0, 150.0, false, true, 10,
       0x887ea7519a25f8ebull},
      {"disjoint", "hdil", "high", 2, 194, 16, 16, 0, 250.0, false, true, 10,
       0x5ea29a63c4e3b02bull},
      {"disjoint", "hdil", "high", 3, 291, 24, 48, 0, 350.0, false, true, 10,
       0xe50f59115f2987b1ull},
      {"disjoint", "hdil", "high", 4, 388, 32, 96, 0, 450.0, false, true, 10,
       0xd902b569e00b80ebull},
      {"disjoint", "hdil", "low", 1, 37, 8, 0, 0, 150.0, false, true, 10,
       0x45d74a1116820a92ull},
      {"disjoint", "hdil", "low", 2, 16, 16, 16, 0, 250.0, false, true, 0,
       0xcbf29ce484222325ull},
      {"disjoint", "hdil", "low", 3, 24, 24, 24, 0, 350.0, false, true, 0,
       0xcbf29ce484222325ull},
      {"disjoint", "hdil", "low", 4, 32, 32, 32, 0, 450.0, false, true, 0,
       0xcbf29ce484222325ull},
  };
  return expected;
}

// A seeded 250-paper dblp corpus and the m its queries ask for. Together
// the three reach every way the scan ends.
struct Setting {
  const char* name;
  double dense_plant_rate;        // DblpOptions::dense_plant_rate
  size_t low_corr_joint_papers;   // DblpOptions::low_corr_joint_papers
  size_t m;
};
constexpr Setting kSettings[] = {
    // Short lists: RDIL and Naive-Rank mostly read them to the end, and
    // HDIL's rank prefixes run dry.
    {"sparse", 0.0, 2, 10},
    // The stopping test ends every high-correlation query; on 2 to 4
    // low-correlation keywords RDIL reads its lists to the end and HDIL's
    // cost estimate switches to DIL.
    {"dense", 0.2, 2, 5},
    // Low-correlation keywords never meet, so no result clears HDIL's
    // threshold (r = 0) and it switches; on high correlation the estimate
    // switches.
    {"disjoint", 0.3, 0, 10},
};

TEST(ThresholdWorkTest, PlantedQueriesDoExactlyThePinnedWork) {
  std::vector<Work> measured;
  for (const Setting& setting : kSettings) {
    datagen::DblpOptions gen;
    gen.num_papers = 250;
    gen.seed = 7;
    gen.dense_plant_rate = setting.dense_plant_rate;
    gen.low_corr_joint_papers = setting.low_corr_joint_papers;
    datagen::Corpus corpus_data = datagen::GenerateDblp(gen);
    std::vector<std::pair<std::string, std::string>> docs;
    for (const xml::Document& doc : corpus_data.documents) {
      docs.emplace_back(xml::Serialize(doc), doc.uri);
    }
    auto corpus = testutil::BuildIndexedCorpus(docs);

    NaiveRankQueryProcessor naive_rank(
        corpus->pool(IndexKind::kNaiveRank),
        corpus->lexicon(IndexKind::kNaiveRank), ScoringOptions{});
    RdilQueryProcessor rdil(corpus->pool(IndexKind::kRdil),
                            corpus->lexicon(IndexKind::kRdil),
                            ScoringOptions{});
    HdilQueryProcessor hdil(corpus->pool(IndexKind::kHdil),
                            corpus->lexicon(IndexKind::kHdil),
                            ScoringOptions{});
    auto run = [&](const std::string& processor,
                   const std::vector<std::string>& keywords) {
      corpus->DropCaches();
      if (processor == "naive-rank") {
        return naive_rank.Execute(keywords, setting.m);
      }
      if (processor == "rdil") return rdil.Execute(keywords, setting.m);
      return hdil.Execute(keywords, setting.m);
    };

    const auto& high = corpus_data.planted.high_correlation[0];
    const auto& low = corpus_data.planted.low_correlation[0];
    for (const std::string processor : {"naive-rank", "rdil", "hdil"}) {
      for (const std::string correlation : {"high", "low"}) {
        const auto& planted = correlation == "high" ? high : low;
        for (size_t n = 1; n <= 4; ++n) {
          std::vector<std::string> keywords(planted.begin(),
                                            planted.begin() + n);
          auto response = run(processor, keywords);
          ASSERT_TRUE(response.ok()) << response.status();
          const QueryStats& stats = response->stats;
          Work work;
          work.corpus = setting.name;
          work.processor = processor;
          work.correlation = correlation;
          work.keywords = n;
          work.postings_scanned = stats.postings_scanned;
          work.rounds = stats.rounds;
          work.btree_probes = stats.btree_probes;
          work.hash_probes = stats.hash_probes;
          work.io_cost = stats.io_cost;
          work.threshold_terminated = stats.threshold_terminated;
          work.switched_to_dil = stats.switched_to_dil;
          work.result_count = response->results.size();
          work.results_digest = ResultsDigest(response->results);
          measured.push_back(std::move(work));
        }
      }
    }
  }

  testutil::ExpectPinnedRows(measured, ExpectedWork(), FormatRow);
}

}  // namespace
}  // namespace xrank::query

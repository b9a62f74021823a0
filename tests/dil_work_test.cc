// Pins the exact work of the DIL merges (paper Figure 5 and its pruned
// variants): the exhaustive merge, the conjunctive document-at-a-time
// merge with and without block-max pruning, MaxScore and block-max WAND.
// For planted queries on corpora whose lists span many pages it records
// postings read, pages and blocks skipped, documents skipped, pivot
// advances and cost-model units, each query on a cold pool, together with
// the merge that ran and the answers. The pruning tests compare answers
// with the exhaustive merge and bound these counts; this one fails on any
// change to how much work a merge does, so a change that claims to keep
// the merges as they are has to keep every number here.
//
// On a mismatch the test prints the row it measured, in the table's
// format, so a deliberate change of behaviour can re-pin it.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "datagen/dblp_gen.h"
#include "index/lexicon.h"
#include "index/posting.h"
#include "query/dil_query.h"
#include "query/result_heap.h"
#include "storage/buffer_pool.h"
#include "storage/cost_model.h"
#include "storage/page_file.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace xrank::query {
namespace {

using index::IndexKind;
using testutil::ResultsDigest;

struct Work {
  std::string queries;  // a query family's name
  std::string merge;    // a MergeCase's name
  size_t keywords = 0;
  bool raised = false;  // a shared θ was raised before the scan
  uint64_t postings_scanned = 0;
  uint64_t pages_skipped = 0;
  uint64_t blocks_pruned = 0;
  uint64_t docs_skipped = 0;
  uint64_t pivot_advances = 0;
  double io_cost = 0.0;
  std::string algorithm;  // the merge that ran (QueryStats::algorithm)
  size_t result_count = 0;
  uint64_t results_digest = 0;

  bool operator==(const Work& other) const = default;
};

std::string FormatRow(const Work& w) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", \"%s\", %zu, %s, %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %.1f, \"%s\", %zu, 0x%016" PRIx64
                "ull},",
                w.queries.c_str(), w.merge.c_str(), w.keywords,
                w.raised ? "true" : "false", w.postings_scanned,
                w.pages_skipped, w.blocks_pruned, w.docs_skipped,
                w.pivot_advances, w.io_cost, w.algorithm.c_str(),
                w.result_count, w.results_digest);
  return buf;
}

// queries, merge, keywords, raised, postings_scanned, pages_skipped,
// blocks_pruned, docs_skipped, pivot_advances, io_cost, algorithm,
// result_count, results_digest.
const std::vector<Work>& ExpectedWork() {
  static const std::vector<Work> expected = {
      {"skewed", "exhaustive-and", 1, false, 20000, 0, 0, 0, 0, 104.0,
       "exhaustive", 10, 0xbd815bf800b2b4e8ull},
      {"skewed", "exhaustive-and", 1, true, 20000, 0, 0, 0, 0, 104.0,
       "exhaustive", 10, 0xbd815bf800b2b4e8ull},
      {"skewed", "exhaustive-and", 2, false, 30000, 0, 0, 0, 0, 181.0,
       "exhaustive", 10, 0xae1962fe509e0986ull},
      {"skewed", "exhaustive-and", 2, true, 30000, 0, 0, 0, 0, 181.0,
       "exhaustive", 10, 0xae1962fe509e0986ull},
      {"skewed", "exhaustive-and", 3, false, 50000, 0, 0, 0, 0, 285.0,
       "exhaustive", 10, 0x4b660b9604a74b41ull},
      {"skewed", "exhaustive-and", 3, true, 50000, 0, 0, 0, 0, 285.0,
       "exhaustive", 10, 0x4b660b9604a74b41ull},
      {"skewed", "exhaustive-and", 4, false, 50400, 0, 0, 0, 0, 336.0,
       "exhaustive", 10, 0xd1a9784ee794a19dull},
      {"skewed", "exhaustive-and", 4, true, 50400, 0, 0, 0, 0, 336.0,
       "exhaustive", 10, 0xd1a9784ee794a19dull},
      {"skewed", "exhaustive-or", 1, false, 20000, 0, 0, 0, 0, 104.0,
       "exhaustive", 10, 0xbd815bf800b2b4e8ull},
      {"skewed", "exhaustive-or", 1, true, 20000, 0, 0, 0, 0, 104.0,
       "exhaustive", 10, 0xbd815bf800b2b4e8ull},
      {"skewed", "exhaustive-or", 2, false, 30000, 0, 0, 0, 0, 181.0,
       "exhaustive", 10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "exhaustive-or", 2, true, 30000, 0, 0, 0, 0, 181.0,
       "exhaustive", 10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "exhaustive-or", 3, false, 50000, 0, 0, 0, 0, 285.0,
       "exhaustive", 10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "exhaustive-or", 3, true, 50000, 0, 0, 0, 0, 285.0,
       "exhaustive", 10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "exhaustive-or", 4, false, 50400, 0, 0, 0, 0, 336.0,
       "exhaustive", 10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "exhaustive-or", 4, true, 50400, 0, 0, 0, 0, 336.0,
       "exhaustive", 10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "daat-max", 1, false, 757, 23, 50, 2, 1, 103.0, "daat", 10,
       0xbd815bf800b2b4e8ull},
      {"skewed", "daat-max", 1, true, 373, 24, 51, 2, 1, 102.0, "daat", 10,
       0xbd815bf800b2b4e8ull},
      {"skewed", "daat-max", 2, false, 1130, 32, 73, 2, 568, 206.0, "daat", 10,
       0xae1962fe509e0986ull},
      {"skewed", "daat-max", 2, true, 756, 34, 75, 2, 381, 204.0, "daat", 10,
       0xae1962fe509e0986ull},
      {"skewed", "daat-max", 3, false, 15084, 0, 68, 1, 10056, 217.0, "daat",
       10, 0x4b660b9604a74b41ull},
      {"skewed", "daat-max", 3, true, 1134, 57, 125, 2, 761, 307.0, "daat", 10,
       0x4b660b9604a74b41ull},
      {"skewed", "daat-max", 4, false, 1600, 0, 0, 0, 1197, 336.0, "daat", 10,
       0xd1a9784ee794a19dull},
      {"skewed", "daat-max", 4, true, 1600, 0, 0, 0, 1197, 336.0, "daat", 10,
       0xd1a9784ee794a19dull},
      {"skewed", "daat-sum", 1, false, 20000, 0, 0, 0, 0, 104.0, "daat", 10,
       0xbd815bf800b2b4e8ull},
      {"skewed", "daat-sum", 1, true, 20000, 0, 0, 0, 0, 104.0, "daat", 10,
       0xbd815bf800b2b4e8ull},
      {"skewed", "daat-sum", 2, false, 20000, 0, 0, 0, 9999, 181.0, "daat", 10,
       0xae1962fe509e0986ull},
      {"skewed", "daat-sum", 2, true, 20000, 0, 0, 0, 9999, 181.0, "daat", 10,
       0xae1962fe509e0986ull},
      {"skewed", "daat-sum", 3, false, 30000, 0, 0, 0, 19998, 285.0, "daat", 10,
       0x4b660b9604a74b41ull},
      {"skewed", "daat-sum", 3, true, 30000, 0, 0, 0, 19998, 285.0, "daat", 10,
       0x4b660b9604a74b41ull},
      {"skewed", "daat-sum", 4, false, 1600, 0, 0, 0, 1197, 336.0, "daat", 10,
       0xd1a9784ee794a19dull},
      {"skewed", "daat-sum", 4, true, 1600, 0, 0, 0, 1197, 336.0, "daat", 10,
       0xd1a9784ee794a19dull},
      {"skewed", "maxscore-and", 1, false, 757, 23, 50, 2, 1, 103.0, "maxscore",
       10, 0xbd815bf800b2b4e8ull},
      {"skewed", "maxscore-and", 1, true, 373, 24, 51, 2, 1, 102.0, "maxscore",
       10, 0xbd815bf800b2b4e8ull},
      {"skewed", "maxscore-and", 2, false, 1509, 32, 73, 189, 189, 206.0,
       "maxscore", 10, 0xae1962fe509e0986ull},
      {"skewed", "maxscore-and", 2, true, 1135, 34, 64, 2, 2, 204.0, "maxscore",
       10, 0xae1962fe509e0986ull},
      {"skewed", "maxscore-and", 3, false, 25140, 0, 68, 1, 0, 217.0,
       "maxscore", 10, 0x4b660b9604a74b41ull},
      {"skewed", "maxscore-and", 3, true, 1892, 57, 91, 2, 3, 307.0, "maxscore",
       10, 0x4b660b9604a74b41ull},
      {"skewed", "maxscore-and", 4, false, 4589, 0, 0, 1080, 2157, 336.0,
       "maxscore", 10, 0xd1a9784ee794a19dull},
      {"skewed", "maxscore-and", 4, true, 4521, 0, 0, 1114, 2225, 336.0,
       "maxscore", 10, 0xd1a9784ee794a19dull},
      {"skewed", "maxscore-or", 1, false, 757, 23, 50, 2, 1, 103.0, "maxscore",
       10, 0xbd815bf800b2b4e8ull},
      {"skewed", "maxscore-or", 1, true, 373, 24, 51, 2, 1, 102.0, "maxscore",
       10, 0xbd815bf800b2b4e8ull},
      {"skewed", "maxscore-or", 2, false, 1135, 34, 75, 2, 2, 204.0, "maxscore",
       10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "maxscore-or", 2, true, 1135, 34, 64, 2, 2, 204.0, "maxscore",
       10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "maxscore-or", 3, false, 1892, 57, 102, 2, 3, 307.0,
       "maxscore", 10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "maxscore-or", 3, true, 1892, 57, 91, 2, 3, 307.0, "maxscore",
       10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "maxscore-or", 4, false, 2477, 54, 101, 189, 377, 360.0,
       "maxscore", 10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "maxscore-or", 4, true, 1908, 57, 92, 2, 4, 357.0, "maxscore",
       10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "maxscore-or-sum", 1, false, 20000, 0, 0, 0, 0, 104.0,
       "maxscore", 10, 0xbd815bf800b2b4e8ull},
      {"skewed", "maxscore-or-sum", 1, true, 20000, 0, 0, 0, 0, 104.0,
       "maxscore", 10, 0xbd815bf800b2b4e8ull},
      {"skewed", "maxscore-or-sum", 2, false, 30000, 0, 0, 0, 0, 181.0,
       "maxscore", 10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "maxscore-or-sum", 2, true, 30000, 0, 0, 0, 0, 181.0,
       "maxscore", 10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "maxscore-or-sum", 3, false, 50000, 0, 0, 0, 0, 285.0,
       "maxscore", 10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "maxscore-or-sum", 3, true, 50000, 0, 0, 0, 0, 285.0,
       "maxscore", 10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "maxscore-or-sum", 4, false, 50400, 0, 0, 0, 0, 336.0,
       "maxscore", 10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "maxscore-or-sum", 4, true, 50400, 0, 0, 0, 0, 336.0,
       "maxscore", 10, 0xdc6a57f7a6ffa706ull},
      {"skewed", "bmw-and", 1, false, 757, 23, 50, 2, 1, 103.0, "bmw", 10,
       0xbd815bf800b2b4e8ull},
      {"skewed", "bmw-and", 1, true, 373, 24, 51, 2, 1, 102.0, "bmw", 10,
       0xbd815bf800b2b4e8ull},
      {"skewed", "bmw-and", 2, false, 1509, 32, 73, 189, 189, 206.0, "bmw", 10,
       0xae1962fe509e0986ull},
      {"skewed", "bmw-and", 2, true, 943, 34, 75, 194, 194, 204.0, "bmw", 10,
       0xae1962fe509e0986ull},
      {"skewed", "bmw-and", 3, false, 25140, 0, 68, 1, 0, 217.0, "bmw", 10,
       0x4b660b9604a74b41ull},
      {"skewed", "bmw-and", 3, true, 1508, 57, 125, 194, 387, 307.0, "bmw", 10,
       0x4b660b9604a74b41ull},
      {"skewed", "bmw-and", 4, false, 4589, 0, 0, 1080, 2528, 336.0, "bmw", 10,
       0xd1a9784ee794a19dull},
      {"skewed", "bmw-and", 4, true, 4521, 0, 0, 1114, 2596, 336.0, "bmw", 10,
       0xd1a9784ee794a19dull},
      {"skewed", "bmw-or", 1, false, 757, 23, 50, 2, 1, 103.0, "bmw", 10,
       0xbd815bf800b2b4e8ull},
      {"skewed", "bmw-or", 1, true, 373, 24, 51, 2, 1, 102.0, "bmw", 10,
       0xbd815bf800b2b4e8ull},
      {"skewed", "bmw-or", 2, false, 1135, 34, 75, 2, 2, 204.0, "bmw", 10,
       0xdc6a57f7a6ffa706ull},
      {"skewed", "bmw-or", 2, true, 559, 35, 76, 2, 2, 203.0, "bmw", 10,
       0xdc6a57f7a6ffa706ull},
      {"skewed", "bmw-or", 3, false, 1892, 57, 125, 2, 3, 307.0, "bmw", 10,
       0xdc6a57f7a6ffa706ull},
      {"skewed", "bmw-or", 3, true, 932, 59, 127, 2, 3, 305.0, "bmw", 10,
       0xdc6a57f7a6ffa706ull},
      {"skewed", "bmw-or", 4, false, 1940, 54, 123, 20, 50, 360.0, "bmw", 10,
       0xdc6a57f7a6ffa706ull},
      {"skewed", "bmw-or", 4, true, 972, 57, 126, 19, 47, 357.0, "bmw", 10,
       0xdc6a57f7a6ffa706ull},
      {"reversed", "exhaustive-and", 1, false, 400, 0, 0, 0, 0, 51.0,
       "exhaustive", 10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "exhaustive-and", 1, true, 400, 0, 0, 0, 0, 51.0,
       "exhaustive", 10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "exhaustive-and", 2, false, 20400, 0, 0, 0, 0, 155.0,
       "exhaustive", 10, 0x2379f713bbbd444cull},
      {"reversed", "exhaustive-and", 2, true, 20400, 0, 0, 0, 0, 155.0,
       "exhaustive", 10, 0x2379f713bbbd444cull},
      {"reversed", "exhaustive-and", 3, false, 30400, 0, 0, 0, 0, 232.0,
       "exhaustive", 10, 0x5df549a4b0207d4cull},
      {"reversed", "exhaustive-and", 3, true, 30400, 0, 0, 0, 0, 232.0,
       "exhaustive", 10, 0x5df549a4b0207d4cull},
      {"reversed", "exhaustive-and", 4, false, 50400, 0, 0, 0, 0, 336.0,
       "exhaustive", 10, 0xb620aad052532eeaull},
      {"reversed", "exhaustive-and", 4, true, 50400, 0, 0, 0, 0, 336.0,
       "exhaustive", 10, 0xb620aad052532eeaull},
      {"reversed", "exhaustive-or", 1, false, 400, 0, 0, 0, 0, 51.0,
       "exhaustive", 10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "exhaustive-or", 1, true, 400, 0, 0, 0, 0, 51.0,
       "exhaustive", 10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "exhaustive-or", 2, false, 20400, 0, 0, 0, 0, 155.0,
       "exhaustive", 10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "exhaustive-or", 2, true, 20400, 0, 0, 0, 0, 155.0,
       "exhaustive", 10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "exhaustive-or", 3, false, 30400, 0, 0, 0, 0, 232.0,
       "exhaustive", 10, 0x7cac77d16dc571a8ull},
      {"reversed", "exhaustive-or", 3, true, 30400, 0, 0, 0, 0, 232.0,
       "exhaustive", 10, 0x7cac77d16dc571a8ull},
      {"reversed", "exhaustive-or", 4, false, 50400, 0, 0, 0, 0, 336.0,
       "exhaustive", 10, 0xdc6a57f7a6ffa706ull},
      {"reversed", "exhaustive-or", 4, true, 50400, 0, 0, 0, 0, 336.0,
       "exhaustive", 10, 0xdc6a57f7a6ffa706ull},
      {"reversed", "daat-max", 1, false, 341, 0, 0, 1, 0, 51.0, "daat", 10,
       0x8bdd45a63e64c1d3ull},
      {"reversed", "daat-max", 1, true, 341, 0, 0, 1, 0, 51.0, "daat", 10,
       0x8bdd45a63e64c1d3ull},
      {"reversed", "daat-max", 2, false, 800, 0, 0, 0, 399, 155.0, "daat", 10,
       0x2379f713bbbd444cull},
      {"reversed", "daat-max", 2, true, 800, 0, 0, 0, 399, 155.0, "daat", 10,
       0x2379f713bbbd444cull},
      {"reversed", "daat-max", 3, false, 1200, 0, 0, 0, 798, 232.0, "daat", 10,
       0x5df549a4b0207d4cull},
      {"reversed", "daat-max", 3, true, 1200, 0, 0, 0, 798, 232.0, "daat", 10,
       0x5df549a4b0207d4cull},
      {"reversed", "daat-max", 4, false, 1600, 0, 0, 0, 1197, 336.0, "daat", 10,
       0xb620aad052532eeaull},
      {"reversed", "daat-max", 4, true, 1600, 0, 0, 0, 1197, 336.0, "daat", 10,
       0xb620aad052532eeaull},
      {"reversed", "daat-sum", 1, false, 400, 0, 0, 0, 0, 51.0, "daat", 10,
       0x8bdd45a63e64c1d3ull},
      {"reversed", "daat-sum", 1, true, 400, 0, 0, 0, 0, 51.0, "daat", 10,
       0x8bdd45a63e64c1d3ull},
      {"reversed", "daat-sum", 2, false, 800, 0, 0, 0, 399, 155.0, "daat", 10,
       0x2379f713bbbd444cull},
      {"reversed", "daat-sum", 2, true, 800, 0, 0, 0, 399, 155.0, "daat", 10,
       0x2379f713bbbd444cull},
      {"reversed", "daat-sum", 3, false, 1200, 0, 0, 0, 798, 232.0, "daat", 10,
       0x5df549a4b0207d4cull},
      {"reversed", "daat-sum", 3, true, 1200, 0, 0, 0, 798, 232.0, "daat", 10,
       0x5df549a4b0207d4cull},
      {"reversed", "daat-sum", 4, false, 1600, 0, 0, 0, 1197, 336.0, "daat", 10,
       0xb620aad052532eeaull},
      {"reversed", "daat-sum", 4, true, 1600, 0, 0, 0, 1197, 336.0, "daat", 10,
       0xb620aad052532eeaull},
      {"reversed", "maxscore-and", 1, false, 341, 0, 0, 1, 0, 51.0, "maxscore",
       10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "maxscore-and", 1, true, 341, 0, 0, 1, 0, 51.0, "maxscore",
       10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "maxscore-and", 2, false, 1242, 0, 0, 0, 390, 155.0,
       "maxscore", 10, 0x2379f713bbbd444cull},
      {"reversed", "maxscore-and", 2, true, 800, 0, 0, 0, 399, 155.0,
       "maxscore", 10, 0x2379f713bbbd444cull},
      {"reversed", "maxscore-and", 3, false, 2868, 0, 0, 371, 1264, 232.0,
       "maxscore", 10, 0x5df549a4b0207d4cull},
      {"reversed", "maxscore-and", 3, true, 2642, 0, 0, 371, 1490, 232.0,
       "maxscore", 10, 0x5df549a4b0207d4cull},
      {"reversed", "maxscore-and", 4, false, 4589, 0, 0, 1080, 2157, 336.0,
       "maxscore", 10, 0xb620aad052532eeaull},
      {"reversed", "maxscore-and", 4, true, 4521, 0, 0, 1114, 2225, 336.0,
       "maxscore", 10, 0xb620aad052532eeaull},
      {"reversed", "maxscore-or", 1, false, 341, 0, 0, 1, 0, 51.0, "maxscore",
       10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "maxscore-or", 1, true, 341, 0, 0, 1, 0, 51.0, "maxscore",
       10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "maxscore-or", 2, false, 1123, 0, 9, 1, 331, 146.0,
       "maxscore", 10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "maxscore-or", 2, true, 682, 0, 9, 1, 340, 146.0, "maxscore",
       10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "maxscore-or", 3, false, 2094, 0, 40, 180, 1083, 192.0,
       "maxscore", 10, 0x7cac77d16dc571a8ull},
      {"reversed", "maxscore-or", 3, true, 1535, 33, 50, 2, 753, 257.0,
       "maxscore", 10, 0x7cac77d16dc571a8ull},
      {"reversed", "maxscore-or", 4, false, 2477, 54, 101, 189, 377, 360.0,
       "maxscore", 10, 0xdc6a57f7a6ffa706ull},
      {"reversed", "maxscore-or", 4, true, 1908, 57, 92, 2, 4, 357.0,
       "maxscore", 10, 0xdc6a57f7a6ffa706ull},
      {"reversed", "maxscore-or-sum", 1, false, 400, 0, 0, 0, 0, 51.0,
       "maxscore", 10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "maxscore-or-sum", 1, true, 400, 0, 0, 0, 0, 51.0,
       "maxscore", 10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "maxscore-or-sum", 2, false, 1241, 0, 0, 0, 390, 155.0,
       "maxscore", 10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "maxscore-or-sum", 2, true, 800, 0, 0, 0, 399, 155.0,
       "maxscore", 10, 0x8bdd45a63e64c1d3ull},
      {"reversed", "maxscore-or-sum", 3, false, 20425, 0, 0, 0, 9974, 232.0,
       "maxscore", 10, 0x7cac77d16dc571a8ull},
      {"reversed", "maxscore-or-sum", 3, true, 20400, 0, 0, 0, 9999, 232.0,
       "maxscore", 10, 0x7cac77d16dc571a8ull},
      {"reversed", "maxscore-or-sum", 4, false, 50400, 0, 0, 0, 0, 336.0,
       "maxscore", 10, 0xdc6a57f7a6ffa706ull},
      {"reversed", "maxscore-or-sum", 4, true, 50400, 0, 0, 0, 0, 336.0,
       "maxscore", 10, 0xdc6a57f7a6ffa706ull},
      {"reversed", "bmw-and", 1, false, 341, 0, 0, 1, 0, 51.0, "bmw", 10,
       0x8bdd45a63e64c1d3ull},
      {"reversed", "bmw-and", 1, true, 341, 0, 0, 1, 0, 51.0, "bmw", 10,
       0x8bdd45a63e64c1d3ull},
      {"reversed", "bmw-and", 2, false, 1242, 0, 0, 390, 390, 155.0, "bmw", 10,
       0x2379f713bbbd444cull},
      {"reversed", "bmw-and", 2, true, 800, 0, 0, 399, 399, 155.0, "bmw", 10,
       0x2379f713bbbd444cull},
      {"reversed", "bmw-and", 3, false, 2868, 0, 0, 1266, 1635, 232.0, "bmw",
       10, 0x5df549a4b0207d4cull},
      {"reversed", "bmw-and", 3, true, 2642, 0, 0, 1492, 1861, 232.0, "bmw", 10,
       0x5df549a4b0207d4cull},
      {"reversed", "bmw-and", 4, false, 4589, 0, 0, 1080, 2528, 336.0, "bmw",
       10, 0xb620aad052532eeaull},
      {"reversed", "bmw-and", 4, true, 4521, 0, 0, 1114, 2596, 336.0, "bmw", 10,
       0xb620aad052532eeaull},
      {"reversed", "bmw-or", 1, false, 341, 0, 0, 1, 0, 51.0, "bmw", 10,
       0x8bdd45a63e64c1d3ull},
      {"reversed", "bmw-or", 1, true, 341, 0, 0, 1, 0, 51.0, "bmw", 10,
       0x8bdd45a63e64c1d3ull},
      {"reversed", "bmw-or", 2, false, 1123, 0, 9, 333, 332, 146.0, "bmw", 10,
       0x8bdd45a63e64c1d3ull},
      {"reversed", "bmw-or", 2, true, 682, 0, 9, 342, 341, 146.0, "bmw", 10,
       0x8bdd45a63e64c1d3ull},
      {"reversed", "bmw-or", 3, false, 2094, 0, 40, 1086, 1265, 192.0, "bmw",
       10, 0x7cac77d16dc571a8ull},
      {"reversed", "bmw-or", 3, true, 1535, 33, 73, 756, 759, 257.0, "bmw", 10,
       0x7cac77d16dc571a8ull},
      {"reversed", "bmw-or", 4, false, 1940, 54, 123, 20, 50, 360.0, "bmw", 10,
       0xdc6a57f7a6ffa706ull},
      {"reversed", "bmw-or", 4, true, 972, 57, 126, 19, 47, 357.0, "bmw", 10,
       0xdc6a57f7a6ffa706ull},
      {"dblp", "exhaustive-and", 1, false, 3497, 0, 0, 0, 0, 58.0, "exhaustive",
       10, 0x1355ea63ff541e13ull},
      {"dblp", "exhaustive-and", 1, true, 3497, 0, 0, 0, 0, 58.0, "exhaustive",
       10, 0x1355ea63ff541e13ull},
      {"dblp", "exhaustive-and", 2, false, 6994, 0, 0, 0, 0, 116.0,
       "exhaustive", 10, 0x6eedd0eb8dee8453ull},
      {"dblp", "exhaustive-and", 2, true, 6994, 0, 0, 0, 0, 116.0, "exhaustive",
       10, 0x6eedd0eb8dee8453ull},
      {"dblp", "exhaustive-and", 3, false, 10491, 0, 0, 0, 0, 174.0,
       "exhaustive", 10, 0xb668d709823fe98full},
      {"dblp", "exhaustive-and", 3, true, 10491, 0, 0, 0, 0, 174.0,
       "exhaustive", 10, 0xb668d709823fe98full},
      {"dblp", "exhaustive-and", 4, false, 13988, 0, 0, 0, 0, 232.0,
       "exhaustive", 10, 0xe697e688fe702053ull},
      {"dblp", "exhaustive-and", 4, true, 13988, 0, 0, 0, 0, 232.0,
       "exhaustive", 10, 0xe697e688fe702053ull},
      {"dblp", "exhaustive-or", 1, false, 3497, 0, 0, 0, 0, 58.0, "exhaustive",
       10, 0x1355ea63ff541e13ull},
      {"dblp", "exhaustive-or", 1, true, 3497, 0, 0, 0, 0, 58.0, "exhaustive",
       10, 0x1355ea63ff541e13ull},
      {"dblp", "exhaustive-or", 2, false, 6994, 0, 0, 0, 0, 116.0, "exhaustive",
       10, 0x6eedd0eb8dee8453ull},
      {"dblp", "exhaustive-or", 2, true, 6994, 0, 0, 0, 0, 116.0, "exhaustive",
       10, 0x6eedd0eb8dee8453ull},
      {"dblp", "exhaustive-or", 3, false, 10491, 0, 0, 0, 0, 174.0,
       "exhaustive", 10, 0xb668d709823fe98full},
      {"dblp", "exhaustive-or", 3, true, 10491, 0, 0, 0, 0, 174.0, "exhaustive",
       10, 0xb668d709823fe98full},
      {"dblp", "exhaustive-or", 4, false, 13988, 0, 0, 0, 0, 232.0,
       "exhaustive", 10, 0xe697e688fe702053ull},
      {"dblp", "exhaustive-or", 4, true, 13988, 0, 0, 0, 0, 232.0, "exhaustive",
       10, 0xe697e688fe702053ull},
      {"dblp", "daat-max", 1, false, 421, 0, 7, 1, 0, 51.0, "daat", 10,
       0x1355ea63ff541e13ull},
      {"dblp", "daat-max", 1, true, 421, 0, 7, 1, 0, 51.0, "daat", 10,
       0x1355ea63ff541e13ull},
      {"dblp", "daat-max", 2, false, 842, 0, 14, 1, 0, 102.0, "daat", 10,
       0x6eedd0eb8dee8453ull},
      {"dblp", "daat-max", 2, true, 842, 0, 14, 1, 0, 102.0, "daat", 10,
       0x6eedd0eb8dee8453ull},
      {"dblp", "daat-max", 3, false, 1263, 0, 21, 1, 0, 153.0, "daat", 10,
       0xb668d709823fe98full},
      {"dblp", "daat-max", 3, true, 1263, 0, 21, 1, 0, 153.0, "daat", 10,
       0xb668d709823fe98full},
      {"dblp", "daat-max", 4, false, 1684, 0, 28, 1, 0, 204.0, "daat", 10,
       0xe697e688fe702053ull},
      {"dblp", "daat-max", 4, true, 1684, 0, 28, 1, 0, 204.0, "daat", 10,
       0xe697e688fe702053ull},
      {"dblp", "daat-sum", 1, false, 3497, 0, 0, 0, 0, 58.0, "daat", 10,
       0x1355ea63ff541e13ull},
      {"dblp", "daat-sum", 1, true, 3497, 0, 0, 0, 0, 58.0, "daat", 10,
       0x1355ea63ff541e13ull},
      {"dblp", "daat-sum", 2, false, 6994, 0, 0, 0, 0, 116.0, "daat", 10,
       0x6eedd0eb8dee8453ull},
      {"dblp", "daat-sum", 2, true, 6994, 0, 0, 0, 0, 116.0, "daat", 10,
       0x6eedd0eb8dee8453ull},
      {"dblp", "daat-sum", 3, false, 10491, 0, 0, 0, 0, 174.0, "daat", 10,
       0xb668d709823fe98full},
      {"dblp", "daat-sum", 3, true, 10491, 0, 0, 0, 0, 174.0, "daat", 10,
       0xb668d709823fe98full},
      {"dblp", "daat-sum", 4, false, 13988, 0, 0, 0, 0, 232.0, "daat", 10,
       0xe697e688fe702053ull},
      {"dblp", "daat-sum", 4, true, 13988, 0, 0, 0, 0, 232.0, "daat", 10,
       0xe697e688fe702053ull},
      {"dblp", "maxscore-and", 1, false, 421, 0, 7, 1, 0, 51.0, "maxscore", 10,
       0x1355ea63ff541e13ull},
      {"dblp", "maxscore-and", 1, true, 421, 0, 7, 1, 0, 51.0, "maxscore", 10,
       0x1355ea63ff541e13ull},
      {"dblp", "maxscore-and", 2, false, 842, 0, 14, 1, 0, 102.0, "maxscore",
       10, 0x6eedd0eb8dee8453ull},
      {"dblp", "maxscore-and", 2, true, 842, 0, 14, 1, 0, 102.0, "maxscore", 10,
       0x6eedd0eb8dee8453ull},
      {"dblp", "maxscore-and", 3, false, 1263, 0, 21, 1, 0, 153.0, "maxscore",
       10, 0xb668d709823fe98full},
      {"dblp", "maxscore-and", 3, true, 1263, 0, 21, 1, 0, 153.0, "maxscore",
       10, 0xb668d709823fe98full},
      {"dblp", "maxscore-and", 4, false, 1684, 0, 28, 1, 0, 204.0, "maxscore",
       10, 0xe697e688fe702053ull},
      {"dblp", "maxscore-and", 4, true, 1684, 0, 28, 1, 0, 204.0, "maxscore",
       10, 0xe697e688fe702053ull},
      {"dblp", "maxscore-or", 1, false, 421, 0, 7, 1, 0, 51.0, "maxscore", 10,
       0x1355ea63ff541e13ull},
      {"dblp", "maxscore-or", 1, true, 421, 0, 7, 1, 0, 51.0, "maxscore", 10,
       0x1355ea63ff541e13ull},
      {"dblp", "maxscore-or", 2, false, 842, 0, 14, 1, 0, 102.0, "maxscore", 10,
       0x6eedd0eb8dee8453ull},
      {"dblp", "maxscore-or", 2, true, 842, 0, 14, 1, 0, 102.0, "maxscore", 10,
       0x6eedd0eb8dee8453ull},
      {"dblp", "maxscore-or", 3, false, 1263, 0, 21, 1, 0, 153.0, "maxscore",
       10, 0xb668d709823fe98full},
      {"dblp", "maxscore-or", 3, true, 1263, 0, 21, 1, 0, 153.0, "maxscore", 10,
       0xb668d709823fe98full},
      {"dblp", "maxscore-or", 4, false, 1684, 0, 28, 1, 0, 204.0, "maxscore",
       10, 0xe697e688fe702053ull},
      {"dblp", "maxscore-or", 4, true, 1684, 0, 28, 1, 0, 204.0, "maxscore", 10,
       0xe697e688fe702053ull},
      {"dblp", "maxscore-or-sum", 1, false, 3497, 0, 0, 0, 0, 58.0, "maxscore",
       10, 0x1355ea63ff541e13ull},
      {"dblp", "maxscore-or-sum", 1, true, 3497, 0, 0, 0, 0, 58.0, "maxscore",
       10, 0x1355ea63ff541e13ull},
      {"dblp", "maxscore-or-sum", 2, false, 6994, 0, 0, 0, 0, 116.0, "maxscore",
       10, 0x6eedd0eb8dee8453ull},
      {"dblp", "maxscore-or-sum", 2, true, 6994, 0, 0, 0, 0, 116.0, "maxscore",
       10, 0x6eedd0eb8dee8453ull},
      {"dblp", "maxscore-or-sum", 3, false, 10491, 0, 0, 0, 0, 174.0,
       "maxscore", 10, 0xb668d709823fe98full},
      {"dblp", "maxscore-or-sum", 3, true, 10491, 0, 0, 0, 0, 174.0, "maxscore",
       10, 0xb668d709823fe98full},
      {"dblp", "maxscore-or-sum", 4, false, 13988, 0, 0, 0, 0, 232.0,
       "maxscore", 10, 0xe697e688fe702053ull},
      {"dblp", "maxscore-or-sum", 4, true, 13988, 0, 0, 0, 0, 232.0, "maxscore",
       10, 0xe697e688fe702053ull},
      {"dblp", "bmw-and", 1, false, 421, 0, 7, 1, 0, 51.0, "bmw", 10,
       0x1355ea63ff541e13ull},
      {"dblp", "bmw-and", 1, true, 421, 0, 7, 1, 0, 51.0, "bmw", 10,
       0x1355ea63ff541e13ull},
      {"dblp", "bmw-and", 2, false, 842, 0, 14, 1, 0, 102.0, "bmw", 10,
       0x6eedd0eb8dee8453ull},
      {"dblp", "bmw-and", 2, true, 842, 0, 14, 1, 0, 102.0, "bmw", 10,
       0x6eedd0eb8dee8453ull},
      {"dblp", "bmw-and", 3, false, 1263, 0, 21, 1, 0, 153.0, "bmw", 10,
       0xb668d709823fe98full},
      {"dblp", "bmw-and", 3, true, 1263, 0, 21, 1, 0, 153.0, "bmw", 10,
       0xb668d709823fe98full},
      {"dblp", "bmw-and", 4, false, 1684, 0, 28, 1, 0, 204.0, "bmw", 10,
       0xe697e688fe702053ull},
      {"dblp", "bmw-and", 4, true, 1684, 0, 28, 1, 0, 204.0, "bmw", 10,
       0xe697e688fe702053ull},
      {"dblp", "bmw-or", 1, false, 421, 0, 7, 1, 0, 51.0, "bmw", 10,
       0x1355ea63ff541e13ull},
      {"dblp", "bmw-or", 1, true, 421, 0, 7, 1, 0, 51.0, "bmw", 10,
       0x1355ea63ff541e13ull},
      {"dblp", "bmw-or", 2, false, 842, 0, 14, 1, 0, 102.0, "bmw", 10,
       0x6eedd0eb8dee8453ull},
      {"dblp", "bmw-or", 2, true, 842, 0, 14, 1, 0, 102.0, "bmw", 10,
       0x6eedd0eb8dee8453ull},
      {"dblp", "bmw-or", 3, false, 1263, 0, 21, 1, 0, 153.0, "bmw", 10,
       0xb668d709823fe98full},
      {"dblp", "bmw-or", 3, true, 1263, 0, 21, 1, 0, 153.0, "bmw", 10,
       0xb668d709823fe98full},
      {"dblp", "bmw-or", 4, false, 1684, 0, 28, 1, 0, 204.0, "bmw", 10,
       0xe697e688fe702053ull},
      {"dblp", "bmw-or", 4, true, 1684, 0, 28, 1, 0, 204.0, "bmw", 10,
       0xe697e688fe702053ull},
      {"dblp-sel", "exhaustive-and", 1, false, 2000, 0, 0, 0, 0, 55.0,
       "exhaustive", 10, 0x291034753ae736ddull},
      {"dblp-sel", "exhaustive-and", 1, true, 2000, 0, 0, 0, 0, 55.0,
       "exhaustive", 10, 0x291034753ae736ddull},
      {"dblp-sel", "exhaustive-and", 2, false, 2500, 0, 0, 0, 0, 106.0,
       "exhaustive", 10, 0x993a11237cc9a85cull},
      {"dblp-sel", "exhaustive-and", 2, true, 2500, 0, 0, 0, 0, 106.0,
       "exhaustive", 10, 0x993a11237cc9a85cull},
      {"dblp-sel", "exhaustive-and", 3, false, 2625, 0, 0, 0, 0, 156.0,
       "exhaustive", 10, 0xf0048670a00a6c1cull},
      {"dblp-sel", "exhaustive-and", 3, true, 2625, 0, 0, 0, 0, 156.0,
       "exhaustive", 10, 0xf0048670a00a6c1cull},
      {"dblp-sel", "exhaustive-and", 4, false, 2657, 0, 0, 0, 0, 157.0,
       "exhaustive", 10, 0x4d83ddf6bc295bd4ull},
      {"dblp-sel", "exhaustive-and", 4, true, 2657, 0, 0, 0, 0, 157.0,
       "exhaustive", 10, 0x4d83ddf6bc295bd4ull},
      {"dblp-sel", "exhaustive-or", 1, false, 2000, 0, 0, 0, 0, 55.0,
       "exhaustive", 10, 0x291034753ae736ddull},
      {"dblp-sel", "exhaustive-or", 1, true, 2000, 0, 0, 0, 0, 55.0,
       "exhaustive", 10, 0x291034753ae736ddull},
      {"dblp-sel", "exhaustive-or", 2, false, 2500, 0, 0, 0, 0, 106.0,
       "exhaustive", 10, 0x0ee230622957afb5ull},
      {"dblp-sel", "exhaustive-or", 2, true, 2500, 0, 0, 0, 0, 106.0,
       "exhaustive", 10, 0x0ee230622957afb5ull},
      {"dblp-sel", "exhaustive-or", 3, false, 2625, 0, 0, 0, 0, 156.0,
       "exhaustive", 10, 0x4945f13c4ea46213ull},
      {"dblp-sel", "exhaustive-or", 3, true, 2625, 0, 0, 0, 0, 156.0,
       "exhaustive", 10, 0x4945f13c4ea46213ull},
      {"dblp-sel", "exhaustive-or", 4, false, 2657, 0, 0, 0, 0, 157.0,
       "exhaustive", 10, 0x6a1ae88f91a93572ull},
      {"dblp-sel", "exhaustive-or", 4, true, 2657, 0, 0, 0, 0, 157.0,
       "exhaustive", 10, 0x6a1ae88f91a93572ull},
      {"dblp-sel", "daat-max", 1, false, 384, 0, 4, 1, 0, 51.0, "daat", 10,
       0x291034753ae736ddull},
      {"dblp-sel", "daat-max", 1, true, 384, 0, 4, 1, 0, 51.0, "daat", 10,
       0x291034753ae736ddull},
      {"dblp-sel", "daat-max", 2, false, 752, 0, 1, 1, 376, 105.0, "daat", 10,
       0x993a11237cc9a85cull},
      {"dblp-sel", "daat-max", 2, true, 752, 0, 1, 1, 376, 105.0, "daat", 10,
       0x993a11237cc9a85cull},
      {"dblp-sel", "daat-max", 3, false, 375, 0, 0, 0, 248, 156.0, "daat", 10,
       0xf0048670a00a6c1cull},
      {"dblp-sel", "daat-max", 3, true, 375, 0, 0, 0, 248, 156.0, "daat", 10,
       0xf0048670a00a6c1cull},
      {"dblp-sel", "daat-max", 4, false, 128, 0, 0, 0, 93, 157.0, "daat", 10,
       0x4d83ddf6bc295bd4ull},
      {"dblp-sel", "daat-max", 4, true, 128, 0, 0, 0, 93, 157.0, "daat", 10,
       0x4d83ddf6bc295bd4ull},
      {"dblp-sel", "daat-sum", 1, false, 2000, 0, 0, 0, 0, 55.0, "daat", 10,
       0x291034753ae736ddull},
      {"dblp-sel", "daat-sum", 1, true, 2000, 0, 0, 0, 0, 55.0, "daat", 10,
       0x291034753ae736ddull},
      {"dblp-sel", "daat-sum", 2, false, 1000, 0, 0, 0, 499, 106.0, "daat", 10,
       0x993a11237cc9a85cull},
      {"dblp-sel", "daat-sum", 2, true, 1000, 0, 0, 0, 499, 106.0, "daat", 10,
       0x993a11237cc9a85cull},
      {"dblp-sel", "daat-sum", 3, false, 375, 0, 0, 0, 248, 156.0, "daat", 10,
       0xf0048670a00a6c1cull},
      {"dblp-sel", "daat-sum", 3, true, 375, 0, 0, 0, 248, 156.0, "daat", 10,
       0xf0048670a00a6c1cull},
      {"dblp-sel", "daat-sum", 4, false, 128, 0, 0, 0, 93, 157.0, "daat", 10,
       0x4d83ddf6bc295bd4ull},
      {"dblp-sel", "daat-sum", 4, true, 128, 0, 0, 0, 93, 157.0, "daat", 10,
       0x4d83ddf6bc295bd4ull},
      {"dblp-sel", "maxscore-and", 1, false, 384, 0, 4, 1, 0, 51.0, "maxscore",
       10, 0x291034753ae736ddull},
      {"dblp-sel", "maxscore-and", 1, true, 384, 0, 4, 1, 0, 51.0, "maxscore",
       10, 0x291034753ae736ddull},
      {"dblp-sel", "maxscore-and", 2, false, 1040, 0, 1, 281, 280, 105.0,
       "maxscore", 10, 0x993a11237cc9a85cull},
      {"dblp-sel", "maxscore-and", 2, true, 1040, 0, 1, 281, 280, 105.0,
       "maxscore", 10, 0x993a11237cc9a85cull},
      {"dblp-sel", "maxscore-and", 3, false, 1227, 0, 0, 342, 371, 156.0,
       "maxscore", 10, 0xf0048670a00a6c1cull},
      {"dblp-sel", "maxscore-and", 3, true, 1227, 0, 0, 342, 371, 156.0,
       "maxscore", 10, 0xf0048670a00a6c1cull},
      {"dblp-sel", "maxscore-and", 4, false, 2166, 0, 0, 164, 163, 157.0,
       "maxscore", 10, 0x4d83ddf6bc295bd4ull},
      {"dblp-sel", "maxscore-and", 4, true, 1724, 0, 0, 311, 310, 157.0,
       "maxscore", 10, 0x4d83ddf6bc295bd4ull},
      {"dblp-sel", "maxscore-or", 1, false, 384, 0, 4, 1, 0, 51.0, "maxscore",
       10, 0x291034753ae736ddull},
      {"dblp-sel", "maxscore-or", 1, true, 384, 0, 4, 1, 0, 51.0, "maxscore",
       10, 0x291034753ae736ddull},
      {"dblp-sel", "maxscore-or", 2, false, 1040, 0, 1, 281, 280, 105.0,
       "maxscore", 10, 0x0ee230622957afb5ull},
      {"dblp-sel", "maxscore-or", 2, true, 1040, 0, 1, 281, 280, 105.0,
       "maxscore", 10, 0x0ee230622957afb5ull},
      {"dblp-sel", "maxscore-or", 3, false, 1227, 0, 0, 342, 371, 156.0,
       "maxscore", 10, 0x4945f13c4ea46213ull},
      {"dblp-sel", "maxscore-or", 3, true, 1227, 0, 0, 342, 371, 156.0,
       "maxscore", 10, 0x4945f13c4ea46213ull},
      {"dblp-sel", "maxscore-or", 4, false, 1259, 0, 0, 342, 371, 157.0,
       "maxscore", 10, 0x6a1ae88f91a93572ull},
      {"dblp-sel", "maxscore-or", 4, true, 1259, 0, 0, 342, 371, 157.0,
       "maxscore", 10, 0x6a1ae88f91a93572ull},
      {"dblp-sel", "maxscore-or-sum", 1, false, 2000, 0, 0, 0, 0, 55.0,
       "maxscore", 10, 0x291034753ae736ddull},
      {"dblp-sel", "maxscore-or-sum", 1, true, 2000, 0, 0, 0, 0, 55.0,
       "maxscore", 10, 0x291034753ae736ddull},
      {"dblp-sel", "maxscore-or-sum", 2, false, 2500, 0, 0, 0, 0, 106.0,
       "maxscore", 10, 0x0ee230622957afb5ull},
      {"dblp-sel", "maxscore-or-sum", 2, true, 2500, 0, 0, 0, 0, 106.0,
       "maxscore", 10, 0x0ee230622957afb5ull},
      {"dblp-sel", "maxscore-or-sum", 3, false, 2625, 0, 0, 0, 0, 156.0,
       "maxscore", 10, 0x4945f13c4ea46213ull},
      {"dblp-sel", "maxscore-or-sum", 3, true, 2625, 0, 0, 0, 0, 156.0,
       "maxscore", 10, 0x4945f13c4ea46213ull},
      {"dblp-sel", "maxscore-or-sum", 4, false, 2657, 0, 0, 0, 0, 157.0,
       "maxscore", 10, 0x6a1ae88f91a93572ull},
      {"dblp-sel", "maxscore-or-sum", 4, true, 2657, 0, 0, 0, 0, 157.0,
       "maxscore", 10, 0x6a1ae88f91a93572ull},
      {"dblp-sel", "bmw-and", 1, false, 384, 0, 4, 1, 0, 51.0, "bmw", 10,
       0x291034753ae736ddull},
      {"dblp-sel", "bmw-and", 1, true, 384, 0, 4, 1, 0, 51.0, "bmw", 10,
       0x291034753ae736ddull},
      {"dblp-sel", "bmw-and", 2, false, 1040, 0, 1, 281, 280, 105.0, "bmw", 10,
       0x993a11237cc9a85cull},
      {"dblp-sel", "bmw-and", 2, true, 1040, 0, 1, 281, 280, 105.0, "bmw", 10,
       0x993a11237cc9a85cull},
      {"dblp-sel", "bmw-and", 3, false, 1227, 0, 0, 342, 371, 156.0, "bmw", 10,
       0xf0048670a00a6c1cull},
      {"dblp-sel", "bmw-and", 3, true, 1227, 0, 0, 342, 371, 156.0, "bmw", 10,
       0xf0048670a00a6c1cull},
      {"dblp-sel", "bmw-and", 4, false, 2166, 0, 0, 164, 163, 157.0, "bmw", 10,
       0x4d83ddf6bc295bd4ull},
      {"dblp-sel", "bmw-and", 4, true, 1724, 0, 0, 311, 310, 157.0, "bmw", 10,
       0x4d83ddf6bc295bd4ull},
      {"dblp-sel", "bmw-or", 1, false, 384, 0, 4, 1, 0, 51.0, "bmw", 10,
       0x291034753ae736ddull},
      {"dblp-sel", "bmw-or", 1, true, 384, 0, 4, 1, 0, 51.0, "bmw", 10,
       0x291034753ae736ddull},
      {"dblp-sel", "bmw-or", 2, false, 1040, 0, 1, 281, 280, 105.0, "bmw", 10,
       0x0ee230622957afb5ull},
      {"dblp-sel", "bmw-or", 2, true, 1040, 0, 1, 281, 280, 105.0, "bmw", 10,
       0x0ee230622957afb5ull},
      {"dblp-sel", "bmw-or", 3, false, 1227, 0, 0, 342, 371, 156.0, "bmw", 10,
       0x4945f13c4ea46213ull},
      {"dblp-sel", "bmw-or", 3, true, 1227, 0, 0, 342, 371, 156.0, "bmw", 10,
       0x4945f13c4ea46213ull},
      {"dblp-sel", "bmw-or", 4, false, 1259, 0, 0, 342, 371, 157.0, "bmw", 10,
       0x6a1ae88f91a93572ull},
      {"dblp-sel", "bmw-or", 4, true, 1259, 0, 0, 342, 371, 157.0, "bmw", 10,
       0x6a1ae88f91a93572ull},
  };
  return expected;
}

// A merge request and the scoring it runs under.
struct MergeCase {
  const char* name;
  MergeAlgorithm algorithm;
  QuerySemantics semantics;
  RankAggregation aggregation;
};
constexpr MergeCase kMergeCases[] = {
    {"exhaustive-and", MergeAlgorithm::kExhaustive,
     QuerySemantics::kConjunctive, RankAggregation::kMax},
    {"exhaustive-or", MergeAlgorithm::kExhaustive,
     QuerySemantics::kDisjunctive, RankAggregation::kMax},
    // The conjunctive default: DAAT with block-max pruning, and without
    // it under sum aggregation, where page maxima bound nothing.
    {"daat-max", MergeAlgorithm::kAuto, QuerySemantics::kConjunctive,
     RankAggregation::kMax},
    {"daat-sum", MergeAlgorithm::kAuto, QuerySemantics::kConjunctive,
     RankAggregation::kSum},
    {"maxscore-and", MergeAlgorithm::kMaxScore, QuerySemantics::kConjunctive,
     RankAggregation::kMax},
    {"maxscore-or", MergeAlgorithm::kMaxScore, QuerySemantics::kDisjunctive,
     RankAggregation::kMax},
    // MaxScore on list bounds alone.
    {"maxscore-or-sum", MergeAlgorithm::kMaxScore,
     QuerySemantics::kDisjunctive, RankAggregation::kSum},
    {"bmw-and", MergeAlgorithm::kBlockMaxWand, QuerySemantics::kConjunctive,
     RankAggregation::kMax},
    {"bmw-or", MergeAlgorithm::kBlockMaxWand, QuerySemantics::kDisjunctive,
     RankAggregation::kMax},
};

constexpr size_t kM = 10;

// A keyword order queried on one index: the family runs its first 1 to 4
// keywords.
struct QueryFamily {
  std::string name;
  std::vector<std::string> keywords;
};

// Four hand-built lists over 20,000 single-element documents, about 35
// pages each, shaped so that every way a merge advances or stops is
// reached: "hot" and "even" rank high in their first 16 documents and again
// around document 10,000, so pruning jumps to the middle of the lists and
// then charges their tails; "even" misses every odd document and "sparse"
// holds every 50th, so conjunctive merges leap to align; "tiny" is in every
// document with a small list bound, so MaxScore demotes it and WAND leaps
// over it once θ passes that bound.
struct SkewedIndex {
  std::unique_ptr<storage::PageFile> file;
  std::unique_ptr<storage::CostModel> cost_model;
  std::unique_ptr<storage::BufferPool> pool;
  index::Lexicon lexicon;
};

std::unique_ptr<SkewedIndex> BuildSkewedIndex() {
  constexpr uint32_t kDocs = 20000;
  auto out = std::make_unique<SkewedIndex>();
  out->file = storage::PageFile::CreateInMemory();
  const index::PostingFormat format =
      out->lexicon.ListFormat(/*delta_encode_ids=*/true);
  auto peaked = [](uint32_t d, float first, float middle) {
    if (d < 16) return first - static_cast<float>(d);
    if (d >= 10000 && d < 10016) return middle - static_cast<float>(d - 10000);
    return 1.0f / static_cast<float>(d + 2);
  };
  struct Term {
    const char* name;
    uint32_t position;
  };
  const Term terms[] = {{"hot", 1}, {"even", 2}, {"tiny", 3}, {"sparse", 4}};
  for (const Term& term : terms) {
    index::PostingListWriter writer(out->file.get(), format);
    for (uint32_t d = 0; d < kDocs; ++d) {
      index::Posting posting;
      posting.positions = {term.position};
      const std::string name = term.name;
      if (name == "hot") {
        posting.id = dewey::DeweyId{d, 1};
        posting.elem_rank = peaked(d, 1000.0f, 2000.0f);
      } else if (name == "even") {
        if (d % 2 != 0) continue;
        posting.id = dewey::DeweyId{d, 1};
        posting.elem_rank = peaked(d, 900.0f, 1500.0f);
      } else if (name == "tiny") {
        posting.id = dewey::DeweyId{d, 2};
        posting.elem_rank = 1.0f + static_cast<float>(d % 4);
      } else {
        if (d % 50 != 0) continue;
        posting.id = dewey::DeweyId{d, 1, 1};
        posting.elem_rank = 100.0f - static_cast<float>(d) / 500.0f;
      }
      auto loc = writer.Add(posting);
      EXPECT_TRUE(loc.ok()) << loc.status();
    }
    auto extent = writer.Finish();
    EXPECT_TRUE(extent.ok()) << extent.status();
    index::TermInfo info;
    info.list = *extent;
    info.skips = writer.TakeSkips();
    info.max_doc_rank = writer.max_doc_rank();
    out->lexicon.Add(term.name, std::move(info));
  }
  out->cost_model = std::make_unique<storage::CostModel>();
  out->pool = std::make_unique<storage::BufferPool>(out->file.get(), 1024,
                                                    out->cost_model.get());
  return out;
}

TEST(DilMergeWorkTest, PlantedQueriesDoExactlyThePinnedWork) {
  std::unique_ptr<SkewedIndex> skewed = BuildSkewedIndex();

  // A seeded dblp corpus with one planted set, sprayed densely: the
  // planted keywords' lists span several pages. Its families are the
  // high-correlation quadruple, whose four keywords share their elements,
  // and the selectivity ladder "sel0".."sel3", in every 4^b-th abstract.
  datagen::DblpOptions gen;
  gen.num_papers = 2000;
  gen.seed = 7;
  gen.planted_sets = 1;
  gen.dense_plant_rate = 0.2;
  datagen::Corpus dblp_data = datagen::GenerateDblp(gen);
  std::vector<std::pair<std::string, std::string>> docs;
  for (const xml::Document& doc : dblp_data.documents) {
    docs.emplace_back(xml::Serialize(doc), doc.uri);
  }
  auto dblp = testutil::BuildIndexedCorpus(docs);
  const auto& planted = dblp_data.planted.high_correlation[0];
  std::vector<std::string> ladder;
  for (size_t b = 0; b < 4; ++b) {
    ladder.push_back(dblp_data.planted.selectivity_terms[b].first);
  }

  // One index, how to make its pool cold, and its query families.
  struct Index {
    storage::BufferPool* pool;
    const index::Lexicon* lexicon;
    std::function<void()> drop_caches;
    std::vector<QueryFamily> families;
  };
  const Index indexes[] = {
      {skewed->pool.get(), &skewed->lexicon,
       [&] {
         skewed->pool->DropCache();
         skewed->cost_model->Reset();
       },
       {{"skewed", {"hot", "even", "tiny", "sparse"}},
        {"reversed", {"sparse", "tiny", "even", "hot"}}}},
      {dblp->pool(IndexKind::kDil), dblp->lexicon(IndexKind::kDil),
       [&] { dblp->DropCaches(); },
       {{"dblp", std::vector<std::string>(planted.begin(), planted.end())},
        {"dblp-sel", ladder}}},
  };

  std::vector<Work> measured;
  for (const Index& idx : indexes) {
    for (const QueryFamily& family : idx.families) {
      for (const MergeCase& merge : kMergeCases) {
        ScoringOptions scoring;
        scoring.semantics = merge.semantics;
        scoring.aggregation = merge.aggregation;
        DilQueryProcessor processor(idx.pool, idx.lexicon, scoring);
        for (size_t n = 1; n <= 4; ++n) {
          std::vector<std::string> keywords(family.keywords.begin(),
                                            family.keywords.begin() + n);
          // The raised θ is the m-th rank of the exhaustive answer (the
          // last rank when there are fewer): what a shard that found the
          // same answer first would forward.
          QueryOptions exhaustive;
          exhaustive.algorithm = MergeAlgorithm::kExhaustive;
          auto answer = processor.Execute(keywords, kM, exhaustive);
          ASSERT_TRUE(answer.ok()) << answer.status();
          for (bool raised : {false, true}) {
            SharedTopKThreshold shared;
            if (raised && !answer->results.empty()) {
              shared.Raise(answer->results.back().rank);
            }
            QueryOptions options;
            options.algorithm = merge.algorithm;
            if (raised) options.shared_threshold = &shared;
            idx.drop_caches();
            auto response = processor.Execute(keywords, kM, options);
            ASSERT_TRUE(response.ok()) << response.status();
            const QueryStats& stats = response->stats;
            Work work;
            work.queries = family.name;
            work.merge = merge.name;
            work.keywords = n;
            work.raised = raised;
            work.postings_scanned = stats.postings_scanned;
            work.pages_skipped = stats.pages_skipped;
            work.blocks_pruned = stats.blocks_pruned;
            work.docs_skipped = stats.docs_skipped;
            work.pivot_advances = stats.pivot_advances;
            work.io_cost = stats.io_cost;
            work.algorithm = stats.algorithm;
            work.result_count = response->results.size();
            work.results_digest = ResultsDigest(response->results);
            measured.push_back(std::move(work));
          }
        }
      }
    }
  }

  testutil::ExpectPinnedRows(measured, ExpectedWork(), FormatRow);
}

}  // namespace
}  // namespace xrank::query

#ifndef XRANK_QUERY_DIL_QUERY_H_
#define XRANK_QUERY_DIL_QUERY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "index/lexicon.h"
#include "query/deadline.h"
#include "query/query.h"
#include "storage/buffer_pool.h"

namespace xrank::query {

// Single-pass DIL evaluation (paper Figure 5): merges the keyword inverted
// lists in Dewey-ID order through the Dewey stack, computing the most
// specific results and their ranks in one scan of each list. The merge is
// chosen per query (QueryOptions::algorithm) from query/dil_merge.h:
// conjunctive queries default to the document-at-a-time merge, which skips
// documents missing a keyword and, under max aggregation, page runs whose
// rank bounds cannot reach the top-k; disjunctive queries default to
// block-max WAND or MaxScore; kExhaustive runs the full merge of Figure 5.
// All of them return bitwise the same results.
class DilQueryProcessor {
 public:
  // `pool` must wrap a DIL (or HDIL — the full lists are format-compatible)
  // index file; `lexicon` describes it. Both are borrowed. `block_cache`
  // (optional, borrowed) serves decoded posting pages.
  DilQueryProcessor(storage::BufferPool* pool,
                    const index::Lexicon* lexicon,
                    const ScoringOptions& scoring,
                    index::BlockCache* block_cache = nullptr);

  // Keywords must already be analyzer-normalized. A keyword missing from
  // the lexicon yields an empty result (conjunctive semantics).
  // `options` bounds the scan (deadline / cancellation / partial results —
  // see QueryOptions).
  Result<QueryResponse> Execute(const std::vector<std::string>& keywords,
                                size_t m, const QueryOptions& options = {});

  // Variant used by the HDIL fallback: evaluates against an already-running
  // budget so the total (RDIL phase + DIL rescan) stays within one
  // deadline. `deadline` is borrowed and must outlive the call.
  Result<QueryResponse> Execute(const std::vector<std::string>& keywords,
                                size_t m, const QueryOptions& options,
                                QueryDeadline* deadline);

 private:
  storage::BufferPool* pool_;
  const index::Lexicon* lexicon_;
  ScoringOptions scoring_;
  index::BlockCache* block_cache_;
};

}  // namespace xrank::query

#endif  // XRANK_QUERY_DIL_QUERY_H_

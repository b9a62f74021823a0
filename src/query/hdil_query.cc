#include "query/hdil_query.h"

#include <algorithm>

#include "common/timer.h"
#include "index/block_cache.h"
#include "query/dil_query.h"
#include "query/threshold_scan.h"
#include "query/trace.h"
#include "storage/btree.h"

namespace xrank::query {

Result<size_t> HdilLongestCommonPrefix(storage::BufferPool* pool,
                                       const index::Lexicon* lexicon,
                                       const index::TermInfo& info,
                                       const dewey::DeweyId& key) {
  if (info.btree_root == storage::kInvalidRef || info.list.entry_count == 0) {
    return static_cast<size_t>(0);
  }
  storage::BtreeReader sparse(pool, info.btree_root);
  XRANK_ASSIGN_OR_RETURN(storage::SeekResult seek, sparse.SeekCeil(key));

  // The Dewey-order neighbours of `key` live on the last list page whose
  // first ID precedes key (pred) or on the following page (ceil); scan both
  // pages of the full list — they are the "leaf level" of this tree.
  std::vector<uint32_t> pages;
  if (seek.has_pred) pages.push_back(static_cast<uint32_t>(seek.pred.value));
  if (seek.has_ceil) pages.push_back(static_cast<uint32_t>(seek.ceil.value));
  size_t best = 0;
  for (uint32_t page : pages) {
    index::PostingListCursor cursor(
        pool, info.list, lexicon->ListFormat(/*delta_encode_ids=*/true));
    XRANK_RETURN_NOT_OK(cursor.SeekToPage(page));
    index::PostingView posting;
    for (;;) {
      XRANK_ASSIGN_OR_RETURN(bool has, cursor.Next(&posting));
      if (!has) break;
      best = std::max(best,
                      dewey::CommonPrefixLength(key.components(), posting.id));
      if (cursor.current_page_index() != page) break;
    }
  }
  return best;
}

Status HdilScanPrefix(
    storage::BufferPool* pool, const index::Lexicon* lexicon,
    const index::TermInfo& info, const dewey::DeweyId& prefix,
    const std::function<bool(const index::PostingView&)>& fn) {
  if (info.btree_root == storage::kInvalidRef || info.list.entry_count == 0) {
    return Status::OK();
  }
  storage::BtreeReader sparse(pool, info.btree_root);
  XRANK_ASSIGN_OR_RETURN(storage::SeekResult seek, sparse.SeekCeil(prefix));
  uint32_t start_page;
  if (seek.has_pred) {
    start_page = static_cast<uint32_t>(seek.pred.value);
  } else if (seek.has_ceil) {
    start_page = static_cast<uint32_t>(seek.ceil.value);
  } else {
    return Status::OK();
  }
  index::PostingListCursor cursor(
      pool, info.list, lexicon->ListFormat(/*delta_encode_ids=*/true));
  XRANK_RETURN_NOT_OK(cursor.SeekToPage(start_page));
  index::PostingView posting;
  for (;;) {
    XRANK_ASSIGN_OR_RETURN(bool has, cursor.Next(&posting));
    if (!has) return Status::OK();
    if (dewey::IsPrefix(prefix.components(), posting.id)) {
      if (!fn(posting)) return Status::OK();
    } else if (dewey::IdLess(prefix.components(), posting.id)) {
      return Status::OK();  // past the subtree
    }
  }
}

HdilQueryProcessor::HdilQueryProcessor(storage::BufferPool* pool,
                                       const index::Lexicon* lexicon,
                                       const ScoringOptions& scoring,
                                       index::BlockCache* block_cache)
    : pool_(pool),
      lexicon_(lexicon),
      scoring_(scoring),
      block_cache_(block_cache) {}

Result<QueryResponse> HdilQueryProcessor::ExecuteDil(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options, QueryDeadline* deadline) {
  DilQueryProcessor dil(pool_, lexicon_, scoring_, block_cache_);
  return dil.Execute(keywords, m, options, deadline);
}

Result<QueryResponse> HdilQueryProcessor::Execute(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options) {
  if (scoring_.semantics == QuerySemantics::kDisjunctive) {
    // The threshold algorithm here assumes conjunctive semantics (paper
    // Section 4.3). Disjunctive queries run on the same lists through the
    // DIL processor, which picks a pruned merge (MaxScore / BMW)
    // or the exhaustive oracle per QueryOptions::algorithm.
    QueryDeadline deadline(options);
    return ExecuteDil(keywords, m, options, &deadline);
  }
  WallTimer timer;
  const storage::CostModel* model = pool_->cost_model();
  CostSnapshot before = TakeSnapshot(model);
  QueryResponse response;
  QueryTrace* trace = options.trace;
  std::vector<const index::TermInfo*> infos;
  XRANK_RETURN_NOT_OK(
      FindEveryTerm(*lexicon_, keywords, scoring_, trace, &infos));
  if (infos.empty()) {
    response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
    return response;
  }
  const size_t n = infos.size();
  std::vector<index::PostingListCursor> rank_cursors;
  rank_cursors.reserve(n);
  {
    ScopedSpan span(trace, "cursor_open");
    for (const index::TermInfo* info : infos) {
      rank_cursors.emplace_back(
          pool_, info->rank_list,
          lexicon_->ListFormat(/*delta_encode_ids=*/false));
      rank_cursors.back().set_block_cache(block_cache_);
    }
  }
  ThresholdScan scan(std::move(rank_cursors), m, options,
                     ThresholdScan::DryList::kStop, &response);
  const ThresholdScan::DeweyProbes probes{
      [&](size_t j, const dewey::DeweyId& key) {
        return HdilLongestCommonPrefix(pool_, lexicon_, *infos[j], key);
      },
      [&](size_t j, const dewey::DeweyId& prefix,
          const ThresholdScan::PostingVisitor& visit) {
        return HdilScanPrefix(pool_, lexicon_, *infos[j], prefix, visit);
      }};

  // Adaptive strategy (Section 4.4.2): every `interval` rounds, estimate
  // RDIL's remaining cost as (m - r) * t / r, for the r results above the
  // threshold after t cost units, and switch when it exceeds DIL's, which
  // is predictable a priori: a sequential scan of each keyword's full list
  // (a pool without a cost model makes no estimate). Rounds go round-robin
  // over n lists, so the interval scales with n to see the same per-list
  // progress; the first check comes late enough that one-off startup costs
  // (first B+-tree levels, first list pages) do not pollute the estimate.
  // The estimator diverges at r = 0: no result has cleared the threshold
  // after a full interval, the signature of uncorrelated keywords, so
  // switch at once.
  constexpr uint64_t kCheckInterval = 16;
  const uint64_t interval = std::max<uint64_t>(8, kCheckInterval * n / 2);
  double dil_cost = 0.0;
  if (model != nullptr) {
    for (const index::TermInfo* info : infos) {
      dil_cost += model->options().sequential_read_cost * info->list.page_count;
    }
  }
  auto switch_now = [&](double threshold) {
    if (response.stats.rounds % interval != 0) return false;
    double r = static_cast<double>(scan.accumulator().CountAtLeast(threshold));
    if (r == 0.0) return true;
    if (model == nullptr) return false;
    double t = model->TotalCost() - before.cost;
    return (static_cast<double>(m) - r) * t / r > dil_cost;
  };
  XRANK_ASSIGN_OR_RETURN(
      bool switch_to_dil,
      scan.Run(
          [&](size_t k, const index::PostingView& entry) {
            return scan.ProbeAndVerify(k, entry, probes, scoring_);
          },
          switch_now));

  // The per-term stats of the TA phase are recorded whether or not the
  // query falls back: the fallback's DIL cursors append their own rows.
  scan.RecordTerms(keywords, lexicon_->codec_name());
  if (switch_to_dil) {
    // The fallback rescans under the SAME deadline object, so the overall
    // budget is honored even when the switch happens late. Its spans nest
    // under dil_fallback in the trace.
    ScopedSpan span(trace, "dil_fallback");
    XRANK_ASSIGN_OR_RETURN(QueryResponse dil_response,
                           ExecuteDil(keywords, m, options, scan.deadline()));
    response.results = std::move(dil_response.results);
    MergeQueryStats(&response.stats, dil_response.stats);
    response.stats.algorithm = dil_response.stats.algorithm;
    response.stats.switched_to_dil = true;
  } else {
    scan.TakeTop();
  }
  response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
  FillIoStats(model, before, &response.stats);
  return response;
}

}  // namespace xrank::query

#include "query/hdil_query.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/timer.h"
#include "index/block_cache.h"
#include "query/dewey_stack.h"
#include "query/dil_query.h"
#include "query/result_heap.h"
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
    index::Posting posting;
    for (;;) {
      XRANK_ASSIGN_OR_RETURN(bool has, cursor.Next(&posting));
      if (!has) break;
      best = std::max(best, key.CommonPrefixLength(posting.id));
      if (cursor.current_page_index() != page) break;
    }
  }
  return best;
}

Status HdilScanPrefix(
    storage::BufferPool* pool, const index::Lexicon* lexicon,
    const index::TermInfo& info, const dewey::DeweyId& prefix,
    const std::function<bool(const index::Posting&)>& fn) {
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
  index::Posting posting;
  for (;;) {
    XRANK_ASSIGN_OR_RETURN(bool has, cursor.Next(&posting));
    if (!has) return Status::OK();
    if (prefix.IsPrefixOf(posting.id)) {
      if (!fn(posting)) return Status::OK();
    } else if (prefix < posting.id) {
      return Status::OK();  // past the subtree
    }
  }
}

HdilQueryProcessor::HdilQueryProcessor(storage::BufferPool* pool,
                                       const index::Lexicon* lexicon,
                                       const ScoringOptions& scoring,
                                       const HdilStrategyOptions& strategy,
                                       index::BlockCache* block_cache)
    : pool_(pool),
      lexicon_(lexicon),
      scoring_(scoring),
      strategy_(strategy),
      block_cache_(block_cache) {}

Result<QueryResponse> HdilQueryProcessor::ExecuteDil(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options, QueryDeadline* deadline) {
  DilQueryProcessor dil(pool_, lexicon_, scoring_, /*use_skip_blocks=*/true,
                        block_cache_);
  return dil.Execute(keywords, m, options, deadline);
}

Result<QueryResponse> HdilQueryProcessor::Execute(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options) {
  if (keywords.empty()) {
    return Status::InvalidArgument("query has no keywords");
  }
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
  size_t n = keywords.size();

  std::vector<const index::TermInfo*> infos(n);
  {
    ScopedSpan span(trace, "lexicon");
    for (size_t k = 0; k < n; ++k) {
      infos[k] = lexicon_->Find(keywords[k]);
      if (infos[k] == nullptr) {
        response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
        return response;
      }
    }
  }
  std::vector<index::PostingListCursor> rank_cursors;
  rank_cursors.reserve(n);
  double dil_cost_estimate = 0.0;
  {
    ScopedSpan span(trace, "cursor_open");
    for (size_t k = 0; k < n; ++k) {
      rank_cursors.emplace_back(
          pool_, infos[k]->rank_list,
          lexicon_->ListFormat(/*delta_encode_ids=*/false));
      rank_cursors.back().set_block_cache(block_cache_);
      // DIL's cost is predictable a priori: a full sequential scan of each
      // keyword's inverted list (paper Section 4.4.2).
      double seq_cost =
          model != nullptr ? model->options().sequential_read_cost : 1.0;
      dil_cost_estimate += seq_cost * infos[k]->list.page_count;
    }
  }
  std::vector<QueryTrace::TermStats> term_stats(trace != nullptr ? n : 0);

  TopKAccumulator accumulator(m);
  if (options.shared_threshold != nullptr) {
    accumulator.AttachShared(options.shared_threshold);
  }

  auto verify = [&](const dewey::DeweyId& lcp) -> Status {
    struct Hit {
      size_t keyword;
      index::Posting posting;
    };
    std::vector<Hit> hits;
    for (size_t k = 0; k < n; ++k) {
      size_t before_scan = hits.size();
      XRANK_RETURN_NOT_OK(HdilScanPrefix(
          pool_, lexicon_, *infos[k], lcp,
          [&](const index::Posting& posting) {
            hits.push_back(Hit{k, posting});
            return true;
          }));
      if (trace != nullptr) {
        term_stats[k].postings_read += hits.size() - before_scan;
      }
    }
    response.stats.postings_scanned += hits.size();
    std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
      if (a.posting.id != b.posting.id) return a.posting.id < b.posting.id;
      return a.keyword < b.keyword;
    });
    DeweyStackMerger merger(n, scoring_, /*min_result_depth=*/lcp.depth(),
                            [&](const CandidateResult& candidate) {
                              accumulator.Add(candidate.id,
                                              candidate.overall_rank);
                            });
    for (const Hit& hit : hits) merger.Add(hit.keyword, hit.posting);
    merger.Flush();
    accumulator.MarkSeen(lcp);
    return Status::OK();
  };

  // --- RDIL mode over the rank-ordered prefix lists ---
  ScopedSpan merge_span(trace, "merge");
  QueryDeadline deadline(options);
  std::vector<double> last_rank(n, std::numeric_limits<double>::infinity());
  size_t next_list = 0;
  bool switch_to_dil = false;
  bool done = false;
  bool expired = false;

  while (!done && !switch_to_dil) {
    Status tick = deadline.Check();
    if (!tick.ok()) {
      if (!options.allow_partial_results) return tick;
      expired = true;  // serve RDIL's accumulator; never start the rescan
      break;
    }
    size_t k = next_list;
    next_list = (next_list + 1) % n;

    index::Posting entry;
    XRANK_ASSIGN_OR_RETURN(bool has, rank_cursors[k].Next(&entry));
    if (!has) {
      // The rank prefix only covers the top fraction of this list: once it
      // runs dry the threshold cannot drop further, so fall back to DIL
      // (Section 4.4.2's low-correlation case).
      switch_to_dil = true;
      break;
    }
    ++response.stats.postings_scanned;
    ++response.stats.rounds;
    if (trace != nullptr) ++term_stats[k].postings_read;
    last_rank[k] = entry.elem_rank;

    size_t lcp_len = entry.id.depth();
    for (size_t j = 0; j < n && lcp_len > 0; ++j) {
      if (j == k) continue;
      XRANK_ASSIGN_OR_RETURN(size_t cpl,
                             HdilLongestCommonPrefix(pool_, lexicon_,
                                                     *infos[j], entry.id));
      ++response.stats.btree_probes;
      if (trace != nullptr) ++term_stats[j].btree_probes;
      lcp_len = std::min(lcp_len, cpl);
    }
    if (lcp_len >= 1) {
      dewey::DeweyId lcp = entry.id.Prefix(lcp_len);
      if (!accumulator.Contains(lcp)) {
        XRANK_RETURN_NOT_OK(verify(lcp));
      }
    }

    double threshold = 0.0;
    bool bounded = true;
    for (size_t j = 0; j < n; ++j) {
      if (std::isinf(last_rank[j])) {
        bounded = false;
        break;
      }
      threshold += last_rank[j];
    }
    if (bounded && accumulator.CountAtLeast(threshold) >= m) {
      done = true;
      response.stats.threshold_terminated = true;
      break;
    }

    // Adaptive strategy (Section 4.4.2): estimate RDIL's remaining time as
    // (m - r) * t / r and compare against DIL's predictable full-scan cost.
    // Rounds are split round-robin over n lists, so the interval between
    // checks scales with n to see the same per-list progress.
    uint64_t interval =
        std::max<uint64_t>(8, strategy_.check_interval * n / 2);
    if (bounded && response.stats.rounds % interval == 0) {
      double r = static_cast<double>(accumulator.CountAtLeast(threshold));
      if (r == 0.0) {
        // The paper's estimator diverges at r = 0: no result has cleared
        // the threshold after a full check interval, the signature of
        // uncorrelated keywords — switch immediately.
        switch_to_dil = true;
      } else if (r >= static_cast<double>(
                          strategy_.min_results_for_estimate)) {
        double t;
        double dil_budget;
        if (strategy_.use_cost_model && model != nullptr) {
          t = model->TotalCost() - before.cost;
          dil_budget = dil_cost_estimate;  // cost-model units
        } else {
          // Wall-clock mode (the paper's implementation): budget DIL at a
          // fixed per-page sequential-scan time.
          constexpr double kSequentialPageMs = 0.02;
          t = timer.ElapsedSeconds() * 1e3;
          double total_pages = 0.0;
          for (size_t j = 0; j < n; ++j) {
            total_pages += infos[j]->list.page_count;
          }
          dil_budget = kSequentialPageMs * total_pages;
        }
        double estimate = (static_cast<double>(m) - r) * t / r;
        if (estimate > dil_budget) switch_to_dil = true;
      }
    }
  }

  merge_span.End();
  // The per-term stats of the TA phase are recorded whether or not the
  // query falls back: the fallback's DIL cursors append their own rows.
  if (trace != nullptr) {
    for (size_t k = 0; k < n; ++k) {
      term_stats[k].term = keywords[k];
      term_stats[k].codec = std::string(lexicon_->codec_name());
      term_stats[k].block_cache_hits = rank_cursors[k].block_cache_hits();
      trace->AddTermStats(std::move(term_stats[k]));
    }
  }
  for (const index::PostingListCursor& cursor : rank_cursors) {
    response.stats.block_cache_hits += cursor.block_cache_hits();
  }
  if (expired) {
    response.stats.partial = true;
    ScopedSpan span(trace, "rank");
    response.results = accumulator.TakeTop();
  } else if (switch_to_dil) {
    // The fallback rescans under the SAME deadline object, so the overall
    // budget is honored even when the switch happens late. Its spans nest
    // under dil_fallback in the trace.
    ScopedSpan span(trace, "dil_fallback");
    XRANK_ASSIGN_OR_RETURN(QueryResponse dil_response,
                           ExecuteDil(keywords, m, options, &deadline));
    response.results = std::move(dil_response.results);
    response.stats.postings_scanned += dil_response.stats.postings_scanned;
    response.stats.pages_skipped += dil_response.stats.pages_skipped;
    response.stats.blocks_pruned += dil_response.stats.blocks_pruned;
    response.stats.docs_skipped += dil_response.stats.docs_skipped;
    response.stats.pivot_advances += dil_response.stats.pivot_advances;
    response.stats.block_cache_hits += dil_response.stats.block_cache_hits;
    response.stats.algorithm = dil_response.stats.algorithm;
    response.stats.switched_to_dil = true;
    response.stats.partial = dil_response.stats.partial;
  } else {
    ScopedSpan span(trace, "rank");
    response.results = accumulator.TakeTop();
  }
  response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
  FillIoStats(model, before, &response.stats);
  return response;
}

}  // namespace xrank::query

#include "query/rdil_query.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/timer.h"
#include "query/dewey_stack.h"
#include "query/result_heap.h"
#include "query/trace.h"
#include "storage/btree.h"

namespace xrank::query {

RdilQueryProcessor::RdilQueryProcessor(storage::BufferPool* pool,
                                       const index::Lexicon* lexicon,
                                       const ScoringOptions& scoring)
    : pool_(pool), lexicon_(lexicon), scoring_(scoring) {}

Result<QueryResponse> RdilQueryProcessor::Execute(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options) {
  if (keywords.empty()) {
    return Status::InvalidArgument("query has no keywords");
  }
  if (scoring_.semantics == QuerySemantics::kDisjunctive) {
    return Status::Unimplemented(
        "disjunctive queries are evaluated via DIL (the threshold algorithm "
        "here assumes conjunctive semantics, paper Section 4.3)");
  }
  WallTimer timer;
  CostSnapshot before = TakeSnapshot(pool_->cost_model());
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
  std::vector<index::PostingListCursor> cursors;
  std::vector<storage::BtreeReader> btrees;
  cursors.reserve(n);
  btrees.reserve(n);
  {
    ScopedSpan span(trace, "cursor_open");
    for (size_t k = 0; k < n; ++k) {
      cursors.emplace_back(
          pool_, infos[k]->list,
          lexicon_->ListFormat(/*delta_encode_ids=*/false));
      btrees.emplace_back(pool_, infos[k]->btree_root);
    }
  }
  std::vector<QueryTrace::TermStats> term_stats(trace != nullptr ? n : 0);

  TopKAccumulator accumulator(m);
  if (options.shared_threshold != nullptr) {
    accumulator.AttachShared(options.shared_threshold);
  }

  // Verifies the deepest common ancestor `lcp`: range-scan every keyword's
  // B+-tree for the subtree, fetch the referenced postings from the
  // rank-ordered lists (random reads — the RDIL cost the paper discusses),
  // and run the Dewey-stack merge rooted at lcp.
  auto verify = [&](const dewey::DeweyId& lcp) -> Status {
    struct Hit {
      size_t keyword;
      index::Posting posting;
    };
    std::vector<Hit> hits;
    for (size_t k = 0; k < n; ++k) {
      std::vector<uint64_t> locations;
      XRANK_RETURN_NOT_OK(btrees[k].ScanPrefix(
          lcp, [&](const storage::BtreeEntry& entry) {
            locations.push_back(entry.value);
            return true;
          }));
      for (uint64_t loc : locations) {
        XRANK_ASSIGN_OR_RETURN(
            index::Posting posting,
            index::ReadPostingAt(
                pool_, infos[k]->list, index::DecodePostingLocation(loc),
                lexicon_->ListFormat(/*delta_encode_ids=*/false)));
        ++response.stats.postings_scanned;
        if (trace != nullptr) ++term_stats[k].postings_read;
        hits.push_back(Hit{k, std::move(posting)});
      }
    }
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
    // Whether or not lcp qualified, never verify it again (Figure 7
    // line 18's containment check).
    accumulator.MarkSeen(lcp);
    return Status::OK();
  };

  // Round-robin over the rank-ordered lists (Figure 7 lines 7-10).
  ScopedSpan merge_span(trace, "merge");
  QueryDeadline deadline(options);
  std::vector<double> last_rank(n, std::numeric_limits<double>::infinity());
  std::vector<bool> exhausted(n, false);
  size_t next_list = 0;
  bool done = false;
  while (!done) {
    // One check per threshold round bounds the overrun to a single round's
    // work (a handful of B+-tree probes plus one subtree verification).
    Status tick = deadline.Check();
    if (!tick.ok()) {
      if (!options.allow_partial_results) return tick;
      response.stats.partial = true;
      break;
    }
    // Pick the next non-exhausted list.
    size_t k = n;
    for (size_t step = 0; step < n; ++step) {
      size_t candidate = (next_list + step) % n;
      if (!exhausted[candidate]) {
        k = candidate;
        break;
      }
    }
    if (k == n) break;  // every list fully consumed
    next_list = (k + 1) % n;

    index::Posting entry;
    XRANK_ASSIGN_OR_RETURN(bool has, cursors[k].Next(&entry));
    if (!has) {
      exhausted[k] = true;
      continue;
    }
    ++response.stats.postings_scanned;
    ++response.stats.rounds;
    if (trace != nullptr) ++term_stats[k].postings_read;
    last_rank[k] = entry.elem_rank;

    // Deepest common prefix across all keywords (lines 11-16): probe each
    // other keyword's B+-tree for the entry's neighbourhood.
    size_t lcp_len = entry.id.depth();
    for (size_t j = 0; j < n && lcp_len > 0; ++j) {
      if (j == k) continue;
      XRANK_ASSIGN_OR_RETURN(size_t cpl,
                             btrees[j].LongestCommonPrefixWith(entry.id));
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

    // Threshold check (lines 26-28).
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
    }
  }

  merge_span.End();
  {
    ScopedSpan span(trace, "rank");
    response.results = accumulator.TakeTop();
  }
  if (trace != nullptr) {
    for (size_t k = 0; k < n; ++k) {
      term_stats[k].term = keywords[k];
      term_stats[k].codec = std::string(lexicon_->codec_name());
      trace->AddTermStats(std::move(term_stats[k]));
    }
  }
  response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
  FillIoStats(pool_->cost_model(), before, &response.stats);
  return response;
}

}  // namespace xrank::query

#include "query/naive_query.h"

#include <algorithm>
#include <span>

#include "common/timer.h"
#include "index/naive_index.h"
#include "query/proximity.h"
#include "query/result_heap.h"
#include "query/threshold_scan.h"
#include "query/trace.h"

namespace xrank::query {

namespace {

// Naive scoring: no specificity decay — just the element's own ElemRank per
// keyword, summed and scaled by proximity (Section 4.1's "inaccurate
// ranking" baseline).
double NaiveScore(const std::vector<index::PostingView>& postings,
                  const ScoringOptions& scoring) {
  std::vector<double> keyword_ranks;
  std::vector<std::span<const uint32_t>> positions;
  keyword_ranks.reserve(postings.size());
  positions.reserve(postings.size());
  for (const index::PostingView& posting : postings) {
    keyword_ranks.push_back(static_cast<double>(posting.elem_rank));
    positions.push_back(posting.positions);
  }
  uint32_t window = MinimalWindowSize(positions);
  double proximity =
      ProximityFromWindow(scoring.proximity, window, postings.size());
  return CombineRanks(keyword_ranks, proximity);
}

}  // namespace

NaiveIdQueryProcessor::NaiveIdQueryProcessor(storage::BufferPool* pool,
                                             const index::Lexicon* lexicon,
                                             const ScoringOptions& scoring)
    : pool_(pool), lexicon_(lexicon), scoring_(scoring) {}

Result<QueryResponse> NaiveIdQueryProcessor::Execute(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options) {
  WallTimer timer;
  CostSnapshot before = TakeSnapshot(pool_->cost_model());
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
  std::vector<index::PostingListCursor> cursors;
  cursors.reserve(n);
  {
    ScopedSpan span(trace, "cursor_open");
    for (const index::TermInfo* info : infos) {
      cursors.emplace_back(pool_, info->list,
                           lexicon_->ListFormat(/*delta_encode_ids=*/false));
    }
  }
  std::vector<QueryTrace::TermStats> terms(n);

  TopKAccumulator accumulator(m);
  if (options.shared_threshold != nullptr) {
    accumulator.AttachShared(options.shared_threshold);
  }
  std::vector<index::PostingView> current(n);
  std::vector<bool> live(n, false);
  auto advance = [&](size_t k) -> Status {
    XRANK_ASSIGN_OR_RETURN(bool has, cursors[k].Next(&current[k]));
    live[k] = has;
    if (has) {
      ++response.stats.postings_scanned;
      ++terms[k].postings_read;
    }
    return Status::OK();
  };
  ScopedSpan merge_span(trace, "merge");
  for (size_t k = 0; k < n; ++k) XRANK_RETURN_NOT_OK(advance(k));

  // Equality merge join on the element ordinal: advance the smallest; when
  // all heads agree the element contains every keyword.
  QueryDeadline deadline(options);
  for (;;) {
    Status tick = deadline.Check();
    if (!tick.ok()) {
      if (!options.allow_partial_results) return tick;
      response.stats.partial = true;
      break;
    }
    if (std::find(live.begin(), live.end(), false) != live.end()) break;

    uint32_t max_ordinal = 0;
    bool all_equal = true;
    for (size_t k = 0; k < n; ++k) {
      uint32_t ordinal = current[k].document_id();
      if (k == 0) {
        max_ordinal = ordinal;
      } else if (ordinal != max_ordinal) {
        all_equal = false;
        max_ordinal = std::max(max_ordinal, ordinal);
      }
    }
    if (all_equal) {
      accumulator.Add(current[0].id, NaiveScore(current, scoring_));
      for (size_t k = 0; k < n; ++k) XRANK_RETURN_NOT_OK(advance(k));
      continue;
    }
    for (size_t k = 0; k < n; ++k) {
      while (live[k] && current[k].document_id() < max_ordinal) {
        XRANK_RETURN_NOT_OK(advance(k));
      }
    }
  }

  merge_span.End();
  {
    ScopedSpan span(trace, "rank");
    response.results = accumulator.TakeTop();
  }
  AddTermRows(trace, keywords, lexicon_->codec_name(), std::move(terms));
  response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
  FillIoStats(pool_->cost_model(), before, &response.stats);
  return response;
}

NaiveRankQueryProcessor::NaiveRankQueryProcessor(
    storage::BufferPool* pool, const index::Lexicon* lexicon,
    const ScoringOptions& scoring)
    : pool_(pool), lexicon_(lexicon), scoring_(scoring) {}

Result<QueryResponse> NaiveRankQueryProcessor::Execute(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options) {
  WallTimer timer;
  CostSnapshot before = TakeSnapshot(pool_->cost_model());
  QueryResponse response;
  std::vector<const index::TermInfo*> infos;
  XRANK_RETURN_NOT_OK(
      FindEveryTerm(*lexicon_, keywords, scoring_, options.trace, &infos));
  if (infos.empty()) {
    response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
    return response;
  }
  const size_t n = infos.size();
  const index::PostingFormat format =
      lexicon_->ListFormat(/*delta_encode_ids=*/false);
  std::vector<index::PostingListCursor> cursors;
  cursors.reserve(n);
  {
    ScopedSpan span(options.trace, "cursor_open");
    for (const index::TermInfo* info : infos) {
      cursors.emplace_back(pool_, info->list, format);
    }
  }
  ThresholdScan scan(std::move(cursors), m, options,
                     ThresholdScan::DryList::kSkip, &response);

  // Probes the other keywords' hash indexes for the entry's element — no
  // common-ancestor inference is needed because ancestors are explicitly
  // replicated (Section 5.1).
  std::vector<index::DecodedBlock> blocks(n);  // the pages probed into
  auto evaluate = [&](size_t k, const index::PostingView& entry) -> Status {
    if (!scan.FirstVisit(entry.id)) return Status::OK();
    uint32_t ordinal = entry.document_id();
    std::vector<index::PostingView> postings(n);
    postings[k] = entry;
    for (size_t j = 0; j < n; ++j) {
      if (j == k) continue;
      ++response.stats.hash_probes;
      ++scan.term(j).hash_probes;
      XRANK_ASSIGN_OR_RETURN(
          std::optional<index::PostingLocation> loc,
          index::HashIndexLookup(pool_, *infos[j], ordinal));
      if (!loc.has_value()) return Status::OK();
      XRANK_ASSIGN_OR_RETURN(
          postings[j], index::ReadPostingAt(pool_, infos[j]->list, *loc,
                                            format, &blocks[j]));
      ++response.stats.postings_scanned;
      ++scan.term(j).postings_read;
    }
    scan.AddResult(entry.id, NaiveScore(postings, scoring_));
    return Status::OK();
  };
  XRANK_RETURN_NOT_OK(scan.Run(evaluate).status());
  scan.RecordTerms(keywords, lexicon_->codec_name());
  scan.TakeTop();
  response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
  FillIoStats(pool_->cost_model(), before, &response.stats);
  return response;
}

}  // namespace xrank::query

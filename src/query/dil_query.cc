#include "query/dil_query.h"

#include "common/timer.h"
#include "query/dewey_stack.h"
#include "query/dil_merge.h"
#include "query/posting_cursor.h"
#include "query/result_heap.h"
#include "query/trace.h"

namespace xrank::query {

DilQueryProcessor::DilQueryProcessor(storage::BufferPool* pool,
                                     const index::Lexicon* lexicon,
                                     const ScoringOptions& scoring,
                                     index::BlockCache* block_cache)
    : pool_(pool),
      lexicon_(lexicon),
      scoring_(scoring),
      block_cache_(block_cache) {}

Result<QueryResponse> DilQueryProcessor::Execute(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options) {
  QueryDeadline deadline(options);
  return Execute(keywords, m, options, &deadline);
}

Result<QueryResponse> DilQueryProcessor::Execute(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options, QueryDeadline* deadline) {
  if (keywords.empty()) {
    return Status::InvalidArgument("query has no keywords");
  }
  WallTimer timer;
  CostSnapshot before = TakeSnapshot(pool_->cost_model());
  QueryResponse response;
  QueryTrace* trace = options.trace;

  const bool conjunctive = scoring_.semantics == QuerySemantics::kConjunctive;
  // The merge. A conjunctive query runs the document-at-a-time merge by
  // default (kAuto), and also when a pruned algorithm was requested but
  // has no sound bound (decay > 1): the request degrades to the
  // next-fastest exact merge, never silently to the exhaustive one. Only an
  // explicit kExhaustive forces the exhaustive merge. An explicit pruned
  // request runs as asked under either semantics: its per-document bounds
  // never assume that a missing keyword zeroes the score.
  const MergeAlgorithm algorithm =
      ResolveMergeAlgorithm(options.algorithm, scoring_, keywords.size());
  const bool daat = conjunctive &&
                    options.algorithm != MergeAlgorithm::kExhaustive &&
                    (options.algorithm == MergeAlgorithm::kAuto ||
                     algorithm == MergeAlgorithm::kExhaustive);

  // A keyword absent from the collection empties the conjunction; under
  // disjunctive semantics it contributes an empty list and the union runs
  // over the terms this index has seen. The keyword keeps its scoring slot
  // either way, so an element's keyword-rank vector — and its aggregated
  // score — is bitwise what an index holding every term would compute (the
  // shard router's parity contract relies on this: a term missing from one
  // shard's lexicon is usually present in another's).
  std::vector<const index::TermInfo*> infos;  // present terms only
  std::vector<size_t> slots;                  // their original keyword slots
  infos.reserve(keywords.size());
  slots.reserve(keywords.size());
  {
    ScopedSpan span(trace, "lexicon");
    for (size_t k = 0; k < keywords.size(); ++k) {
      const index::TermInfo* info = lexicon_->Find(keywords[k]);
      if (info == nullptr) {
        if (conjunctive) {
          response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
          return response;
        }
        continue;
      }
      infos.push_back(info);
      slots.push_back(k);
    }
  }
  if (infos.empty()) {
    response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
    return response;
  }
  std::vector<PostingCursor> cursors;
  cursors.reserve(infos.size());
  {
    ScopedSpan span(trace, "cursor_open");
    for (size_t k = 0; k < infos.size(); ++k) {
      cursors.emplace_back(pool_, lexicon_, infos[k], slots[k], scoring_,
                           block_cache_);
      cursors.back().set_deadline(deadline);
    }
  }

  TopKAccumulator accumulator(m);
  if (options.shared_threshold != nullptr) {
    accumulator.AttachShared(options.shared_threshold);
  }
  DeweyStackMerger merger(keywords.size(), scoring_, /*min_result_depth=*/1,
                          [&](const CandidateView& candidate) {
                            accumulator.Add(candidate.id,
                                            candidate.overall_rank);
                          });
  PruningCounters counters;

  response.stats.algorithm = daat ? "daat" : MergeAlgorithmName(algorithm);
  if (trace != nullptr) {
    trace->AddAnnotation("merge", response.stats.algorithm);
  }

  // The merge runs inside a lambda so a DeadlineExceeded from any depth —
  // the merge loops or the skip scan inside PostingCursor — unwinds to one
  // place where the partial-results decision is made.
  ScopedSpan merge_span(trace, "merge");
  Status merge_status = [&]() -> Status {
    for (PostingCursor& cursor : cursors) XRANK_RETURN_NOT_OK(cursor.Next());
    if (daat) {
      return DaatMerge(&cursors, scoring_, &merger, &accumulator, deadline,
                       &counters);
    }
    switch (algorithm) {
      case MergeAlgorithm::kMaxScore:
        return MaxScoreMerge(&cursors, scoring_, &merger, &accumulator,
                             deadline, &counters);
      case MergeAlgorithm::kBlockMaxWand:
        return WandMerge(&cursors, scoring_, &merger, &accumulator, deadline,
                         &counters);
      default:
        return ExhaustiveMerge(&cursors, &merger, deadline);
    }
  }();
  merge_span.End();
  if (!merge_status.ok()) {
    if (merge_status.code() != StatusCode::kDeadlineExceeded ||
        !options.allow_partial_results) {
      return merge_status;
    }
    response.stats.partial = true;  // serve the top-k gathered so far
  }
  {
    ScopedSpan span(trace, "rank");
    merger.Flush();
    response.results = accumulator.TakeTop();
  }
  response.stats.postings_scanned = merger.postings_consumed();
  response.stats.blocks_pruned = counters.blocks_pruned;
  response.stats.docs_skipped = counters.docs_skipped;
  response.stats.pivot_advances = counters.pivot_advances;
  for (const PostingCursor& cursor : cursors) {
    response.stats.pages_skipped += cursor.pages_skipped();
    response.stats.block_cache_hits += cursor.block_cache_hits();
    if (trace != nullptr) {
      QueryTrace::TermStats term;
      term.term = keywords[cursor.term()];
      term.codec = std::string(lexicon_->codec_name());
      term.postings_read = cursor.postings_read();
      term.pages_skipped = cursor.pages_skipped();
      term.block_cache_hits = cursor.block_cache_hits();
      trace->AddTermStats(std::move(term));
    }
  }
  response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
  FillIoStats(pool_->cost_model(), before, &response.stats);
  return response;
}

}  // namespace xrank::query

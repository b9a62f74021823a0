#include "query/threshold_scan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "query/dewey_stack.h"

namespace xrank::query {

Status FindEveryTerm(const index::Lexicon& lexicon,
                     const std::vector<std::string>& keywords,
                     const ScoringOptions& scoring, QueryTrace* trace,
                     std::vector<const index::TermInfo*>* infos) {
  if (keywords.empty()) {
    return Status::InvalidArgument("query has no keywords");
  }
  if (scoring.semantics == QuerySemantics::kDisjunctive) {
    return Status::Unimplemented(
        "disjunctive queries are evaluated via DIL (the threshold algorithm "
        "here assumes conjunctive semantics, paper Section 4.3)");
  }
  ScopedSpan span(trace, "lexicon");
  infos->clear();
  for (const std::string& keyword : keywords) {
    const index::TermInfo* info = lexicon.Find(keyword);
    if (info == nullptr) {
      infos->clear();
      break;
    }
    infos->push_back(info);
  }
  return Status::OK();
}

void AddTermRows(QueryTrace* trace, const std::vector<std::string>& keywords,
                 std::string_view codec,
                 std::vector<QueryTrace::TermStats> rows) {
  if (trace == nullptr) return;
  for (size_t k = 0; k < rows.size(); ++k) {
    rows[k].term = keywords[k];
    rows[k].codec = std::string(codec);
    trace->AddTermStats(std::move(rows[k]));
  }
}

ThresholdScan::ThresholdScan(std::vector<index::PostingListCursor> cursors,
                             size_t m, const QueryOptions& options,
                             DryList dry_list, QueryResponse* response)
    : cursors_(std::move(cursors)),
      dry_list_(dry_list),
      allow_partial_results_(options.allow_partial_results),
      trace_(options.trace),
      response_(response),
      deadline_(options),
      accumulator_(m),
      terms_(cursors_.size()) {
  if (options.shared_threshold != nullptr) {
    accumulator_.AttachShared(options.shared_threshold);
  }
}

Result<bool> ThresholdScan::Run(const Evaluate& evaluate,
                                const RoundCheck& check) {
  const size_t n = cursors_.size();
  QueryStats& stats = response_->stats;
  ScopedSpan merge_span(trace_, "merge");
  std::vector<double> last_rank(n, std::numeric_limits<double>::infinity());
  std::vector<bool> dry(n, false);
  size_t next_list = 0;
  for (;;) {
    // One check per round bounds the overrun to a single round's work (a
    // handful of probes plus one subtree verification).
    Status tick = deadline_.Check();
    if (!tick.ok()) {
      if (!allow_partial_results_) return tick;
      stats.partial = true;
      return false;
    }
    // The next list in turn that has not run dry (Figure 7 lines 7-10).
    size_t k = n;
    for (size_t step = 0; step < n && k == n; ++step) {
      size_t candidate = (next_list + step) % n;
      if (!dry[candidate]) k = candidate;
    }
    if (k == n) return false;
    next_list = (k + 1) % n;

    index::PostingView entry;
    XRANK_ASSIGN_OR_RETURN(bool has, cursors_[k].Next(&entry));
    if (!has) {
      if (dry_list_ == DryList::kStop) return true;
      dry[k] = true;
      continue;
    }
    ++stats.postings_scanned;
    ++stats.rounds;
    ++terms_[k].postings_read;
    last_rank[k] = entry.elem_rank;
    XRANK_RETURN_NOT_OK(evaluate(k, entry));

    // The stopping test (lines 26-28), once each list has given a rank.
    double threshold = 0.0;
    bool bounded = true;
    for (size_t j = 0; j < n && bounded; ++j) {
      bounded = !std::isinf(last_rank[j]);
      threshold += last_rank[j];
    }
    if (!bounded) continue;
    if (accumulator_.CountAtLeast(threshold) >= accumulator_.m()) {
      stats.threshold_terminated = true;
      return false;
    }
    if (check && check(threshold)) return true;
  }
}

Status ThresholdScan::ProbeAndVerify(size_t k, const index::PostingView& entry,
                                     const DeweyProbes& probes,
                                     const ScoringOptions& scoring) {
  const size_t n = cursors_.size();
  QueryStats& stats = response_->stats;
  // The deepest prefix of the entry's id that every keyword shares
  // (lines 11-16).
  probe_key_.AssignComponents(entry.id);
  size_t lcp_len = entry.id.size();
  for (size_t j = 0; j < n && lcp_len > 0; ++j) {
    if (j == k) continue;
    XRANK_ASSIGN_OR_RETURN(size_t cpl,
                           probes.longest_common_prefix(j, probe_key_));
    ++stats.btree_probes;
    ++terms_[j].btree_probes;
    lcp_len = std::min(lcp_len, cpl);
  }
  if (lcp_len == 0) return Status::OK();
  dewey::DeweyId lcp = probe_key_.Prefix(lcp_len);
  if (!FirstVisit(lcp.components())) return Status::OK();

  // Verify the subtree (lines 19-20): fetch every keyword's postings under
  // lcp and run the Dewey-stack merge rooted there, which emits no result
  // shallower than lcp, whose other descendants were not scanned.
  hits_.Clear();
  hit_keywords_.clear();
  for (size_t j = 0; j < n; ++j) {
    XRANK_RETURN_NOT_OK(probes.scan_prefix(
        j, lcp, [&](const index::PostingView& posting) {
          ++stats.postings_scanned;
          ++terms_[j].postings_read;
          hits_.Append(posting);
          hit_keywords_.push_back(j);
          return true;
        }));
  }
  hit_order_.resize(hits_.size());
  for (uint32_t i = 0; i < hit_order_.size(); ++i) hit_order_[i] = i;
  std::sort(hit_order_.begin(), hit_order_.end(),
            [&](uint32_t a, uint32_t b) {
              const dewey::IdSpan a_id = hits_.at(a).id;
              const dewey::IdSpan b_id = hits_.at(b).id;
              if (!std::ranges::equal(a_id, b_id)) {
                return dewey::IdLess(a_id, b_id);
              }
              return hit_keywords_[a] < hit_keywords_[b];
            });
  DeweyStackMerger merger(n, scoring, /*min_result_depth=*/lcp.depth(),
                          [&](const CandidateView& candidate) {
                            AddResult(candidate.id, candidate.overall_rank);
                          });
  for (uint32_t i : hit_order_) merger.Add(hit_keywords_[i], hits_.at(i));
  merger.Flush();
  return Status::OK();
}

void ThresholdScan::AddResult(dewey::IdSpan id, double rank) {
  evaluated_.emplace(id);
  accumulator_.Add(id, rank);
}

void ThresholdScan::RecordTerms(const std::vector<std::string>& keywords,
                                std::string_view codec) {
  for (size_t k = 0; k < cursors_.size(); ++k) {
    terms_[k].block_cache_hits = cursors_[k].block_cache_hits();
    response_->stats.block_cache_hits += terms_[k].block_cache_hits;
  }
  AddTermRows(trace_, keywords, codec, std::move(terms_));
}

void ThresholdScan::TakeTop() {
  ScopedSpan span(trace_, "rank");
  response_->results = accumulator_.TakeTop();
}

}  // namespace xrank::query

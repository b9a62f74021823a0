#ifndef XRANK_QUERY_THRESHOLD_SCAN_H_
#define XRANK_QUERY_THRESHOLD_SCAN_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "dewey/dewey_id.h"
#include "index/lexicon.h"
#include "index/posting.h"
#include "query/deadline.h"
#include "query/query.h"
#include "query/result_heap.h"
#include "query/trace.h"

namespace xrank::query {

// The conjunctive term lookup of the processors that need every keyword's
// list (Naive-ID, Naive-Rank, RDIL, HDIL): refuses an empty or disjunctive
// query, then finds each keyword under a "lexicon" span. Leaves `infos`
// empty when a keyword is missing, which empties the conjunction.
Status FindEveryTerm(const index::Lexicon& lexicon,
                     const std::vector<std::string>& keywords,
                     const ScoringOptions& scoring, QueryTrace* trace,
                     std::vector<const index::TermInfo*>* infos);

// Appends `rows` to the trace (null: nothing), one per keyword, named
// after it and the codec of its list.
void AddTermRows(QueryTrace* trace, const std::vector<std::string>& keywords,
                 std::string_view codec,
                 std::vector<QueryTrace::TermStats> rows);

// The Threshold Algorithm over rank-ordered lists (paper Figure 7) that
// Naive-Rank, RDIL and HDIL run. It reads one entry per round from the
// lists in turn, hands it to the processor's evaluation step, and stops
// once m candidates reach the sum of the last ranks read from each list —
// no unseen result can rank higher, since decay and proximity are at most
// 1. It owns the query's deadline, counts postings, rounds and probes
// into the response's stats and per-term trace rows, and remembers every
// id already evaluated (Figure 7 line 18's containment check).
class ThresholdScan {
 public:
  // What a list that runs dry means.
  enum class DryList {
    kSkip,  // it was read whole: go on with the others (RDIL, Naive-Rank)
    kStop,  // a rank prefix ran out, so the threshold cannot fall: give up
            // (HDIL then falls back to DIL)
  };
  // Evaluates `entry`, just read from keyword k's list (a view valid
  // during the call).
  using Evaluate =
      std::function<Status(size_t k, const index::PostingView& entry)>;
  // Asked after each round whose stopping test failed against a finite
  // threshold; true gives up.
  using RoundCheck = std::function<bool(double threshold)>;
  // Receives each posting as a view valid during the call.
  using PostingVisitor = std::function<bool(const index::PostingView&)>;

  // The two probe primitives of a Dewey-ordered index per keyword that the
  // LCP-probe-and-verify step needs.
  struct DeweyProbes {
    // The deepest prefix of `key` shared with any posting of keyword j.
    std::function<Result<size_t>(size_t j, const dewey::DeweyId& key)>
        longest_common_prefix;
    // Visits every posting of keyword j under `prefix`, in Dewey order.
    std::function<Status(size_t j, const dewey::DeweyId& prefix,
                         const PostingVisitor& visit)>
        scan_prefix;
  };

  // `cursors` read the rank-ordered lists, one per keyword. `response`
  // (borrowed) receives the counts, and the results from TakeTop.
  ThresholdScan(std::vector<index::PostingListCursor> cursors, size_t m,
                const QueryOptions& options, DryList dry_list,
                QueryResponse* response);

  // Runs the rounds under a "merge" span until m candidates reach the
  // threshold, every list runs dry or the deadline expires (with partial
  // results allowed; otherwise its status is returned). Returns true when
  // the scan gave up instead: a kStop list ran dry or `check` gave up.
  Result<bool> Run(const Evaluate& evaluate, const RoundCheck& check = {});

  // The evaluation step of RDIL and HDIL (the body of Figure 7's loop up
  // to the stopping test): probes every other keyword's index for the
  // deepest common prefix (LCP) of the entry's id, and verifies that
  // subtree once with the Dewey-stack merge.
  Status ProbeAndVerify(size_t k, const index::PostingView& entry,
                        const DeweyProbes& probes,
                        const ScoringOptions& scoring);

  // Marks `id` evaluated; false when it already was.
  bool FirstVisit(dewey::IdSpan id) { return evaluated_.emplace(id).second; }
  // Records a result candidate; its id counts as evaluated.
  void AddResult(dewey::IdSpan id, double rank);

  QueryTrace::TermStats& term(size_t k) { return terms_[k]; }
  const TopKAccumulator& accumulator() const { return accumulator_; }
  // The query's budget, for a fallback that must stay within it.
  QueryDeadline* deadline() { return &deadline_; }

  // Once the scan is over: adds the cursors' block-cache hits to the
  // stats, and the per-term rows to the trace.
  void RecordTerms(const std::vector<std::string>& keywords,
                   std::string_view codec);
  // Moves the top m into the response, under a "rank" span.
  void TakeTop();

 private:
  std::vector<index::PostingListCursor> cursors_;
  DryList dry_list_;
  bool allow_partial_results_;
  QueryTrace* trace_;
  QueryResponse* response_;
  QueryDeadline deadline_;
  TopKAccumulator accumulator_;
  std::vector<QueryTrace::TermStats> terms_;
  std::unordered_set<dewey::DeweyId, dewey::DeweyIdHash> evaluated_;
  // ProbeAndVerify's scratch, reused from round to round: the probe key,
  // and the postings of the verified subtree with their keywords.
  dewey::DeweyId probe_key_;
  index::DecodedBlock hits_;
  std::vector<size_t> hit_keywords_;
  std::vector<uint32_t> hit_order_;
};

}  // namespace xrank::query

#endif  // XRANK_QUERY_THRESHOLD_SCAN_H_

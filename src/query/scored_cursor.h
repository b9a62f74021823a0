#ifndef XRANK_QUERY_SCORED_CURSOR_H_
#define XRANK_QUERY_SCORED_CURSOR_H_

#include <cstdint>
#include <limits>

#include "common/result.h"
#include "index/lexicon.h"
#include "query/posting_cursor.h"
#include "query/scoring.h"

namespace xrank::query {

// List-level upper bound on the term's contribution to any one element's
// overall rank (its keyword rank r̂, before the cross-term sum): under max
// aggregation the max over the per-page block maxima; under sum aggregation
// the serialized TermInfo::max_doc_rank (largest per-document rank sum —
// subtree occurrences are a subset of the document's and every decay
// power is <= 1). Returns +infinity when no sound bound is available —
// missing descriptors, a pre-field index, or corrupted (non-finite) values
// — so pruning simply never fires instead of dropping results.
double TermScoreBound(const index::TermInfo& info,
                      const ScoringOptions& scoring);

// A PostingCursor plus the merge-facing state the disjunctive pruning
// algorithms (query/disjunctive_merge.h) iterate on: the current posting,
// liveness, the term's slot in the query, and its list-level score bound.
// The wrapped cursor is borrowed and must outlive this object.
class ScoredCursor {
 public:
  static constexpr uint32_t kNoDocument =
      std::numeric_limits<uint32_t>::max();

  ScoredCursor(PostingCursor* cursor, size_t term, double score_bound)
      : cursor_(cursor), term_(term), score_bound_(score_bound) {}

  // Primes `current` with the list's first posting.
  Status Init() {
    XRANK_ASSIGN_OR_RETURN(live_, cursor_->Next(&current_));
    return Status::OK();
  }

  Result<bool> Next() {
    XRANK_ASSIGN_OR_RETURN(live_, cursor_->Next(&current_));
    return live_;
  }

  // Advances to the first posting with document id >= `doc` through the
  // skip descriptors (forward-only, like PostingCursor::SkipToDocument).
  Result<bool> SkipTo(uint32_t doc) {
    XRANK_ASSIGN_OR_RETURN(live_, cursor_->SkipToDocument(doc, &current_));
    return live_;
  }

  bool live() const { return live_; }
  // Document id of the current posting; kNoDocument once exhausted, so
  // cursors sort to the back naturally.
  uint32_t doc() const {
    return live_ ? current_.id.document_id() : kNoDocument;
  }
  const index::Posting& current() const { return current_; }
  size_t term() const { return term_; }
  double score_bound() const { return score_bound_; }
  PostingCursor* cursor() { return cursor_; }
  const PostingCursor* cursor() const { return cursor_; }

 private:
  PostingCursor* cursor_;
  size_t term_;
  double score_bound_;
  index::Posting current_;
  bool live_ = false;
};

}  // namespace xrank::query

#endif  // XRANK_QUERY_SCORED_CURSOR_H_

#include "query/posting_cursor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "index/block_cache.h"

namespace xrank::query {

PostingCursor::PostingCursor(storage::BufferPool* pool,
                             const index::Lexicon* lexicon,
                             const index::TermInfo* info, size_t term,
                             const ScoringOptions& scoring,
                             index::BlockCache* block_cache)
    : cursor_(pool, info->list,
              lexicon->ListFormat(/*delta_encode_ids=*/true)),
      skips_(&info->skips),
      term_(term),
      score_bound_(TermScoreBound(*info, scoring)) {
  cursor_.set_block_cache(block_cache);
}

double TermScoreBound(const index::TermInfo& info,
                      const ScoringOptions& scoring) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (scoring.decay > 1.0) return kInf;  // nothing shrinks the score
  if (info.list.entry_count == 0) return 0.0;
  if (scoring.aggregation == RankAggregation::kSum) {
    // Non-positive means "unknown" (pre-field index, or an all-zero-rank
    // list, where never pruning is merely conservative); non-finite means
    // damage. Either way: no bound, no pruning.
    float bound = info.max_doc_rank;
    if (!std::isfinite(bound) || bound <= 0.0f) return kInf;
    return static_cast<double>(bound);
  }
  if (info.skips.empty()) return kInf;
  double best = 0.0;
  for (const index::SkipEntry& skip : info.skips) {
    if (!std::isfinite(skip.max_rank)) return kInf;  // damaged descriptor
    best = std::max(best, static_cast<double>(skip.max_rank));
  }
  return best;
}

namespace {

// A damaged on-disk block maximum (NaN / inf / negative garbage decoded as
// inf) must never enable pruning; map it to +infinity so the run's bound
// dominates every threshold.
double SafeBlockMax(float max_rank) {
  if (!std::isfinite(max_rank)) return std::numeric_limits<double>::infinity();
  return static_cast<double>(max_rank);
}

}  // namespace

PostingCursor::RankBound PostingCursor::DocumentRankBound(uint32_t doc) const {
  RankBound bound;
  if (skips_->empty()) return bound;
  // First descriptor at or past `doc`: pages strictly before its
  // predecessor cannot hold postings of `doc` (their successors' first ids
  // already precede it).
  auto lo_it = std::partition_point(
      skips_->begin(), skips_->end(), [doc](const index::SkipEntry& skip) {
        return skip.first_id.document_id() < doc;
      });
  if (lo_it != skips_->begin()) lo_it = std::prev(lo_it);
  // First descriptor past `doc`: its first id already belongs to a later
  // document, so the run [lo_it, hi_it) holds every posting of every
  // document in [doc, hi_it->first_id.document_id()).
  auto hi_it = std::partition_point(
      skips_->begin(), skips_->end(), [doc](const index::SkipEntry& skip) {
        return skip.first_id.document_id() <= doc;
      });
  for (auto it = lo_it; it != hi_it; ++it) {
    bound.bound = std::max(bound.bound, SafeBlockMax(it->max_rank));
  }
  bound.end_index = static_cast<size_t>(hi_it - skips_->begin());
  bound.next_doc = hi_it == skips_->end() ? kNoDocument
                                           : hi_it->first_id.document_id();
  bound.valid = true;
  return bound;
}

void PostingCursor::ExtendBound(RankBound* bound) const {
  if (!bound->valid || bound->end_index >= skips_->size()) return;
  bound->bound =
      std::max(bound->bound, SafeBlockMax((*skips_)[bound->end_index].max_rank));
  ++bound->end_index;
  bound->next_doc = bound->end_index >= skips_->size()
                        ? kNoDocument
                        : (*skips_)[bound->end_index].first_id.document_id();
}

double PostingCursor::NextPageRank(const RankBound& bound) const {
  if (!bound.valid || bound.end_index >= skips_->size()) {
    return std::numeric_limits<double>::infinity();
  }
  return SafeBlockMax((*skips_)[bound.end_index].max_rank);
}

Status PostingCursor::Next() {
  XRANK_ASSIGN_OR_RETURN(live_, cursor_.Next(&current_));
  if (live_) ++postings_read_;
  return Status::OK();
}

Status PostingCursor::SkipTo(uint32_t doc) {
  // Last page whose first ID precedes document `doc`. Every earlier page
  // holds only postings < that page's first ID <= all ids with document
  // component < doc, so the target posting — if it exists — is on this
  // page or later.
  auto it = std::partition_point(
      skips_->begin(), skips_->end(), [doc](const index::SkipEntry& skip) {
        return skip.first_id.document_id() < doc;
      });
  if (it != skips_->begin()) {
    uint32_t target_page = std::prev(it)->page_index;
    uint32_t current_page = cursor_.current_page_index();
    if (target_page > current_page) {
      // Pages (current, target) are never decoded; the seek itself reads
      // the target page through the pool like any other page.
      pages_skipped_ += target_page - current_page - 1;
      XRANK_RETURN_NOT_OK(cursor_.SeekToPage(target_page));
    }
  }
  // Tail: within the landing page (and, when descriptors are absent or
  // stale, across pages) until the document frontier is reached.
  for (;;) {
    if (deadline_ != nullptr) XRANK_RETURN_NOT_OK(deadline_->Check());
    postings_read_ += cursor_.PassDocumentsBelow(doc);
    XRANK_ASSIGN_OR_RETURN(live_, cursor_.Next(&current_));
    if (!live_) return Status::OK();
    ++postings_read_;
    if (current_.document_id() >= doc) return Status::OK();
  }
}

}  // namespace xrank::query

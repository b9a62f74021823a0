#include "query/posting_cursor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "index/block_cache.h"

namespace xrank::query {

PostingCursor::PostingCursor(storage::BufferPool* pool,
                             const index::Lexicon* lexicon,
                             const index::TermInfo* info, bool use_skip_blocks,
                             index::BlockCache* block_cache)
    : cursor_(pool, info->list,
              lexicon->ListFormat(/*delta_encode_ids=*/true)),
      skips_(use_skip_blocks ? &info->skips : nullptr) {
  cursor_.set_block_cache(block_cache);
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
  if (skips_ == nullptr || skips_->empty()) return bound;
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
  bound.next_doc = hi_it == skips_->end()
                       ? std::numeric_limits<uint32_t>::max()
                       : hi_it->first_id.document_id();
  bound.valid = true;
  return bound;
}

void PostingCursor::ExtendBound(RankBound* bound) const {
  if (skips_ == nullptr || !bound->valid ||
      bound->end_index >= skips_->size()) {
    return;
  }
  bound->bound =
      std::max(bound->bound, SafeBlockMax((*skips_)[bound->end_index].max_rank));
  ++bound->end_index;
  bound->next_doc = bound->end_index >= skips_->size()
                        ? std::numeric_limits<uint32_t>::max()
                        : (*skips_)[bound->end_index].first_id.document_id();
}

double PostingCursor::NextPageRank(const RankBound& bound) const {
  if (skips_ == nullptr || !bound.valid || bound.end_index >= skips_->size()) {
    return std::numeric_limits<double>::infinity();
  }
  return SafeBlockMax((*skips_)[bound.end_index].max_rank);
}

Result<bool> PostingCursor::Next(index::Posting* out) {
  XRANK_ASSIGN_OR_RETURN(bool has, cursor_.Next(out));
  if (has) ++postings_read_;
  return has;
}

Result<bool> PostingCursor::SkipToDocument(uint32_t doc, index::Posting* out) {
  if (skips_ != nullptr && !skips_->empty()) {
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
  }
  // Linear tail: within the landing page (and, when descriptors are absent
  // or stale, across pages) until the document frontier is reached.
  for (;;) {
    if (deadline_ != nullptr) XRANK_RETURN_NOT_OK(deadline_->Check());
    XRANK_ASSIGN_OR_RETURN(bool has, cursor_.Next(out));
    if (!has) return false;
    ++postings_read_;
    if (out->id.document_id() >= doc) return true;
  }
}

}  // namespace xrank::query

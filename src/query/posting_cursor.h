#ifndef XRANK_QUERY_POSTING_CURSOR_H_
#define XRANK_QUERY_POSTING_CURSOR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.h"
#include "index/lexicon.h"
#include "index/posting.h"
#include "query/deadline.h"
#include "query/scoring.h"
#include "storage/buffer_pool.h"

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

// Forward cursor over one query term's Dewey-ordered inverted list: the
// one cursor every DIL merge (query/dil_merge.h) runs on. It holds a view
// of the current posting (valid until the cursor's next move; the cursor
// pins the decoded block it points into), the term's slot in the query and
// its list-level score bound, and adds document-granularity skipping over the sequential
// PostingListCursor through the list's build-time skip-block descriptors
// (one (first Dewey ID, page index, block maximum) entry per list page,
// TermInfo::skips): once a merge has proved that no result can start
// before document `d`, the cursor binary-searches the descriptors and
// re-enters the list at the first page that can contain `d`, never
// decoding the pages in between.
//
// Skipping a document is result-preserving whenever the merge has proved
// the document cannot matter. Under conjunctive semantics that proof can be
// structural — document ids are the first Dewey component, so every result
// (depth >= 1) and all of its rank contributions lie within a single
// document, and a document missing any query keyword can contribute
// nothing. Otherwise the proof is score-based: the pruned merges only skip
// documents whose rank upper bound stays below the current k-th result.
// The exhaustive merge never skips.
class PostingCursor {
 public:
  // doc() of an exhausted cursor, so exhausted cursors sort last.
  static constexpr uint32_t kNoDocument =
      std::numeric_limits<uint32_t>::max();

  // `pool`, `lexicon` and `info` are borrowed and must outlive the cursor.
  // The list is `info->list` (Dewey order with delta-encoded IDs, the
  // DIL/HDIL full-list format), decoded with the lexicon's posting codec;
  // skip descriptors are `info->skips` and may be empty, in which case
  // SkipTo degrades to a linear scan and no page bound is available.
  // `term` is the keyword's slot in the query; the list bound is
  // TermScoreBound(*info, scoring). `block_cache` (optional, borrowed)
  // serves decoded pages without re-running the codec.
  PostingCursor(storage::BufferPool* pool, const index::Lexicon* lexicon,
                const index::TermInfo* info, size_t term,
                const ScoringOptions& scoring,
                index::BlockCache* block_cache = nullptr);

  // Moves to the next posting in list order (the first one, on a fresh
  // cursor); live() turns false at the end of the list.
  Status Next();

  // Moves to the first posting whose document id (first Dewey component)
  // is >= `doc`, discarding everything before it without feeding it to the
  // merge; live() turns false if the list has no such posting.
  // Forward-only: `doc` must be >= the current document id. The landing
  // page's entries are passed by a search over their first components,
  // never copied, yet each counts in postings_read().
  Status SkipTo(uint32_t doc);

  bool live() const { return live_; }
  // Document id of the current posting; kNoDocument once exhausted.
  uint32_t doc() const {
    return live_ ? current_.document_id() : kNoDocument;
  }
  const index::PostingView& current() const { return current_; }
  size_t term() const { return term_; }
  double score_bound() const { return score_bound_; }

  // --- block-max pruning (see DESIGN.md section 11) ---
  //
  // A rank bound over the page run covering documents [doc, next_doc): for
  // any document d with doc <= d.id < next_doc, every posting of d in this
  // list lies on a page of the run, so this term's keyword rank for d —
  // max over its postings' ElemRank, times decay/proximity factors <= 1 —
  // is at most `bound`. The merge sums bounds across terms and skips the
  // whole run when the sum cannot beat the current k-th result.
  struct RankBound {
    double bound = 0.0;
    // First document id NOT covered by the run (kNoDocument when the run
    // extends to the end of the list).
    uint32_t next_doc = kNoDocument;
    // Index one past the run's last skip descriptor (ExtendBound state).
    size_t end_index = 0;
    // False when the list has no skip descriptors (no bound available).
    bool valid = false;
  };

  // Bound over the minimal run covering document `doc`. A corrupted
  // (non-finite) block maximum yields bound = +infinity — pruning simply
  // never fires on damaged descriptors.
  RankBound DocumentRankBound(uint32_t doc) const;

  // Widens the run by one page, raising `bound` to include it and advancing
  // `next_doc` past the documents the wider run now fully covers. No-op at
  // end of list (next_doc stays kNoDocument).
  void ExtendBound(RankBound* bound) const;

  // Block maximum of the page ExtendBound would add next — what `bound`
  // would become is max(bound.bound, NextPageRank(bound)). +infinity at end
  // of list or for a corrupted descriptor.
  double NextPageRank(const RankBound& bound) const;

  // List pages the cursor jumped over without reading (skip efficacy).
  uint64_t pages_skipped() const { return pages_skipped_; }

  // Pages served from the decoded-block cache (0 without a cache).
  uint64_t block_cache_hits() const { return cursor_.block_cache_hits(); }

  // List entries read through this cursor, including those SkipTo's tail
  // scan passed over (per-term trace counter).
  uint64_t postings_read() const { return postings_read_; }

  const index::ListExtent& extent() const { return cursor_.extent(); }
  uint32_t current_page_index() const { return cursor_.current_page_index(); }

  // Attaches a cooperative budget: SkipTo's tail scan — the only unbounded
  // loop inside the cursor — checks it per page and aborts with
  // DeadlineExceeded on expiry. Borrowed; may be null.
  void set_deadline(QueryDeadline* deadline) { deadline_ = deadline; }

 private:
  index::PostingListCursor cursor_;
  const std::vector<index::SkipEntry>* skips_;
  size_t term_;
  double score_bound_;
  index::PostingView current_;
  bool live_ = false;
  QueryDeadline* deadline_ = nullptr;
  uint64_t pages_skipped_ = 0;
  uint64_t postings_read_ = 0;
};

}  // namespace xrank::query

#endif  // XRANK_QUERY_POSTING_CURSOR_H_

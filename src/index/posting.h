#ifndef XRANK_INDEX_POSTING_H_
#define XRANK_INDEX_POSTING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "dewey/dewey_id.h"
#include "index/codec.h"
#include "index/posting_types.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace xrank::index {

// Appends postings to consecutive pages of a PageFile. The page layout is
// delegated to the format's PostingCodec (index/codec.h); the writer owns
// page allocation, skip-descriptor maintenance and space accounting, and
// guarantees the (page, slot) location returned by Add is final — codecs
// decide page fit per posting and never repack across pages.
class PostingListWriter {
 public:
  PostingListWriter(storage::PageFile* file, const PostingFormat& format);

  // Returns the location the posting was placed at.
  Result<PostingLocation> Add(const Posting& posting);

  Result<ListExtent> Finish();

  // One entry per flushed page (the page's first posting ID). Complete
  // after Finish(); callers move it into the lexicon's TermInfo.
  const std::vector<SkipEntry>& skips() const { return skips_; }
  std::vector<SkipEntry> TakeSkips() { return std::move(skips_); }

  // The largest per-document sum of ranks seen so far: an upper
  // bound on any element's sum-aggregated keyword rank for this term
  // (decay <= 1 and subtree occurrences are a subset of the document's).
  // Exact only when postings arrive grouped by document — true for the
  // Dewey-ordered DIL/HDIL lists that disjunctive pruning runs on.
  // Callers store it in TermInfo::max_doc_rank.
  float max_doc_rank() const;

 private:
  Status FlushPage();

  storage::PageFile* file_;
  PostingFormat format_;
  std::unique_ptr<PostingPageEncoder> encoder_;
  ListExtent extent_;
  std::vector<storage::PageId> pages_;
  std::vector<SkipEntry> skips_;
  bool finished_ = false;
  // VBMW block sizing: rank waste accumulated in the open page.
  float page_max_rank_ = 0.0f;
  double page_waste_ = 0.0;
  // Streaming per-document rank sum for max_doc_rank().
  bool have_doc_ = false;
  uint64_t current_doc_ = 0;
  double current_doc_sum_ = 0.0;
  double max_doc_sum_ = 0.0;
};

// The order of the rank-ordered lists (RDIL, HDIL's rank prefix,
// Naive-Rank): ElemRank descending, ties broken by Dewey id so builds are
// deterministic. Returns pointers into `postings` in that order.
std::vector<const Posting*> SortByRank(const std::vector<Posting>& postings);

class BlockCache;

// Sequential cursor over a list's page run (through the buffer pool, so
// reads are charged to the cost model). Pages are decoded whole via the
// format's codec into a DecodedBlock — the uniform contract every codec
// supports (bp128 pages only decode as a unit) — and postings are handed
// out as views into it. A view stays valid until the cursor's next move
// (Next, PassDocumentsBelow, SeekToPage): the cursor pins the block it
// reads, so neither eviction from the block cache nor moving the cursor
// object invalidates it.
class PostingListCursor {
 public:
  PostingListCursor(storage::BufferPool* pool, const ListExtent& extent,
                    const PostingFormat& format);

  // Attaches a decoded-block cache: a cache hit serves every posting of the
  // page without touching the buffer pool or the decoder; a miss decodes
  // the page once and publishes it. Must be called before the first
  // Next/SeekToPage. Null (the default) decodes into a cursor-local block
  // that is reused from page to page.
  void set_block_cache(BlockCache* cache) { block_cache_ = cache; }

  // Moves to the next posting and points *out at it; returns false at end
  // of list.
  Result<bool> Next(PostingView* out);

  // Steps over the entries of the loaded page, from the next one on, whose
  // document id (first Dewey component) is below `doc`, without handing
  // them out, and returns how many it passed. The page must be in Dewey
  // order; the next Next() then returns the first entry left, on this page
  // or a later one.
  uint32_t PassDocumentsBelow(uint32_t doc);

  bool AtEnd() const;

  // Repositions at the start of the list page with the given index within
  // the run (used by HDIL to jump via its sparse B+-tree).
  Status SeekToPage(uint32_t page_index);

  uint32_t current_page_index() const { return page_index_; }
  const ListExtent& extent() const { return extent_; }

  // Pages served from the decoded-block cache (0 without a cache).
  uint64_t block_cache_hits() const { return block_cache_hits_; }

 private:
  Status LoadPage();
  // The loaded page's postings: the pinned cache block, or the local one.
  const DecodedBlock& block() const {
    return cached_block_ != nullptr ? *cached_block_ : local_block_;
  }

  storage::BufferPool* pool_;
  ListExtent extent_;
  PostingFormat format_;
  uint32_t page_index_ = 0;
  uint32_t entries_in_page_ = 0;
  uint32_t entry_index_ = 0;
  storage::Page page_;
  bool page_loaded_ = false;
  BlockCache* block_cache_ = nullptr;
  DecodedBlock local_block_;
  std::shared_ptr<const DecodedBlock> cached_block_;
  uint64_t block_cache_hits_ = 0;
};

// Random access to one posting (RDIL after a B+-tree lookup, Naive-Rank
// after a hash probe): decodes the posting's page into *block and returns a
// view of the slot, valid until *block changes.
Result<PostingView> ReadPostingAt(storage::BufferPool* pool,
                                  const ListExtent& extent,
                                  PostingLocation loc,
                                  const PostingFormat& format,
                                  DecodedBlock* block);

}  // namespace xrank::index

#endif  // XRANK_INDEX_POSTING_H_

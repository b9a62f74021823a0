#include "index/posting.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "index/block_cache.h"

namespace xrank::index {

// ---------------------------------------------------------------- writer --

PostingListWriter::PostingListWriter(storage::PageFile* file,
                                     const PostingFormat& format)
    : file_(file), format_(format) {
  XRANK_CHECK(format_.codec != nullptr, "posting format has no codec");
  encoder_ = format_.codec->NewEncoder(format_);
}

namespace {
// VBMW pages are whole physical pages, so an early close costs real space;
// never close a page with fewer postings than this, no matter the waste.
constexpr uint32_t kVbmwMinPageEntries = 16;
}  // namespace

Status PostingListWriter::FlushPage() {
  XRANK_ASSIGN_OR_RETURN(storage::PageId page, file_->Allocate());
  if (!pages_.empty()) {
    // Lists must occupy consecutive pages so sequential scans are cheap and
    // SeekToPage can address pages by index.
    if (page != pages_.back() + 1) {
      return Status::Internal("posting list pages not consecutive");
    }
  }
  storage::Page page_data{};
  XRANK_ASSIGN_OR_RETURN(size_t used, encoder_->Flush(&page_data));
  XRANK_RETURN_NOT_OK(file_->Write(page, page_data));
  pages_.push_back(page);
  extent_.byte_count += used;
  page_max_rank_ = 0.0f;
  page_waste_ = 0.0;
  return Status::OK();
}

Result<PostingLocation> PostingListWriter::Add(const Posting& posting) {
  XRANK_CHECK(!finished_, "Add after Finish");
  XRANK_ASSIGN_OR_RETURN(bool placed, encoder_->Add(posting));
  if (!placed) {
    XRANK_RETURN_NOT_OK(FlushPage());
    XRANK_ASSIGN_OR_RETURN(placed, encoder_->Add(posting));
    if (!placed) {
      return Status::InvalidArgument("posting larger than a page");
    }
  }
  PostingLocation loc{static_cast<uint32_t>(pages_.size()),
                      encoder_->count() - 1};
  if (loc.slot == 0) {
    skips_.push_back(SkipEntry{loc.page_index, posting.id});
  }
  // Block-max maintenance: the descriptor tracks the page's largest rank,
  // so the top-k merge's bound is exact for what queries score with.
  const float rank = posting.elem_rank;
  skips_.back().max_rank = std::max(skips_.back().max_rank, rank);

  uint64_t doc = posting.id.document_id();
  if (have_doc_ && doc == current_doc_) {
    current_doc_sum_ += rank;
  } else {
    if (have_doc_ && current_doc_sum_ > max_doc_sum_) {
      max_doc_sum_ = current_doc_sum_;
    }
    have_doc_ = true;
    current_doc_ = doc;
    current_doc_sum_ = rank;
  }

  ++extent_.entry_count;

  // VBMW block sizing (lambda-greedy): close the page once the accumulated
  // block-max waste — how far below the page's max_rank its postings sit —
  // exceeds lambda. A posting that raises the page max retroactively adds
  // waste for every earlier posting in the page.
  if (format_.vbmw_lambda_milli > 0 && std::isfinite(rank)) {
    uint32_t in_page = encoder_->count();
    if (rank > page_max_rank_) {
      page_waste_ +=
          static_cast<double>(rank - page_max_rank_) * (in_page - 1);
      page_max_rank_ = rank;
    } else {
      page_waste_ += static_cast<double>(page_max_rank_ - rank);
    }
    double lambda = static_cast<double>(format_.vbmw_lambda_milli) / 1000.0;
    if (page_waste_ > lambda && in_page >= kVbmwMinPageEntries) {
      XRANK_RETURN_NOT_OK(FlushPage());
    }
  }
  return loc;
}

float PostingListWriter::max_doc_rank() const {
  double best = std::max(max_doc_sum_, have_doc_ ? current_doc_sum_ : 0.0);
  // Inflate past double->float rounding so the stored bound never dips
  // below the true sum (readers only ever need an upper bound).
  return static_cast<float>(best * (1.0 + 1e-6));
}

Result<ListExtent> PostingListWriter::Finish() {
  XRANK_CHECK(!finished_, "double Finish");
  finished_ = true;
  if (encoder_->count() > 0) XRANK_RETURN_NOT_OK(FlushPage());
  extent_.page_count = static_cast<uint32_t>(pages_.size());
  extent_.first_page = pages_.empty() ? storage::kInvalidPage : pages_.front();
  return extent_;
}

// ---------------------------------------------------------------- cursor --

PostingListCursor::PostingListCursor(storage::BufferPool* pool,
                                     const ListExtent& extent,
                                     const PostingFormat& format)
    : pool_(pool), extent_(extent), format_(format) {
  XRANK_CHECK(format_.codec != nullptr, "posting format has no codec");
}

bool PostingListCursor::AtEnd() const {
  if (page_index_ >= extent_.page_count) return true;
  if (page_index_ == extent_.page_count - 1 && page_loaded_ &&
      entry_index_ >= entries_in_page_) {
    return true;
  }
  return false;
}

Status PostingListCursor::LoadPage() {
  const storage::PageId page = extent_.first_page + page_index_;
  cached_block_.reset();
  if (block_cache_ != nullptr) {
    BlockCache::Key key{pool_->file()->file_id(), page};
    cached_block_ = block_cache_->Lookup(key);
    if (cached_block_ != nullptr) {
      ++block_cache_hits_;
    } else {
      // Miss: decode the whole page once and publish it. The block is
      // immutable from here on — concurrent cursors share it read-only.
      XRANK_RETURN_NOT_OK(pool_->Read(page, &page_));
      auto decoded = std::make_shared<DecodedBlock>();
      XRANK_RETURN_NOT_OK(
          format_.codec->DecodePage(page_, format_, decoded.get()));
      cached_block_ = std::move(decoded);
      block_cache_->Insert(key, cached_block_);
    }
  } else {
    XRANK_RETURN_NOT_OK(pool_->Read(page, &page_));
    XRANK_RETURN_NOT_OK(
        format_.codec->DecodePage(page_, format_, &local_block_));
  }
  entries_in_page_ = static_cast<uint32_t>(block().size());
  entry_index_ = 0;
  page_loaded_ = true;
  return Status::OK();
}

Status PostingListCursor::SeekToPage(uint32_t page_index) {
  if (page_index >= extent_.page_count) {
    return Status::OutOfRange("SeekToPage beyond list");
  }
  page_index_ = page_index;
  return LoadPage();
}

Result<bool> PostingListCursor::Next(PostingView* out) {
  for (;;) {
    if (!page_loaded_) {
      if (page_index_ >= extent_.page_count) return false;
      XRANK_RETURN_NOT_OK(LoadPage());
    }
    if (entry_index_ >= entries_in_page_) {
      ++page_index_;
      page_loaded_ = false;
      cached_block_.reset();
      if (page_index_ >= extent_.page_count) return false;
      continue;
    }
    *out = block().at(entry_index_);
    ++entry_index_;
    return true;
  }
}

uint32_t PostingListCursor::PassDocumentsBelow(uint32_t doc) {
  if (!page_loaded_) return 0;
  // Binary search: document ids never fall along a Dewey-ordered page.
  const DecodedBlock& decoded = block();
  const uint32_t first = entry_index_;
  uint32_t hi = entries_in_page_;
  while (entry_index_ < hi) {
    const uint32_t mid = entry_index_ + (hi - entry_index_) / 2;
    if (decoded.document_id(mid) < doc) {
      entry_index_ = mid + 1;
    } else {
      hi = mid;
    }
  }
  return entry_index_ - first;
}

std::vector<const Posting*> SortByRank(const std::vector<Posting>& postings) {
  std::vector<const Posting*> by_rank;
  by_rank.reserve(postings.size());
  for (const Posting& posting : postings) by_rank.push_back(&posting);
  std::sort(by_rank.begin(), by_rank.end(),
            [](const Posting* a, const Posting* b) {
              if (a->elem_rank != b->elem_rank) {
                return a->elem_rank > b->elem_rank;
              }
              return a->id < b->id;
            });
  return by_rank;
}

Result<PostingView> ReadPostingAt(storage::BufferPool* pool,
                                  const ListExtent& extent,
                                  PostingLocation loc,
                                  const PostingFormat& format,
                                  DecodedBlock* block) {
  XRANK_CHECK(format.codec != nullptr, "posting format has no codec");
  if (loc.page_index >= extent.page_count) {
    return Status::OutOfRange("posting page out of list bounds");
  }
  storage::Page page;
  XRANK_RETURN_NOT_OK(pool->Read(extent.first_page + loc.page_index, &page));
  XRANK_RETURN_NOT_OK(format.codec->DecodePage(page, format, block));
  if (loc.slot >= block->size()) {
    return Status::OutOfRange("posting slot out of page bounds");
  }
  return block->at(loc.slot);
}

}  // namespace xrank::index

#ifndef XRANK_INDEX_POSTING_TYPES_H_
#define XRANK_INDEX_POSTING_TYPES_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "dewey/dewey_id.h"
#include "storage/page.h"

namespace xrank::index {

// One inverted-list entry: the Dewey ID of an element that *directly*
// contains the keyword, the element's ElemRank, and the (document-global)
// word positions of the keyword inside that element (paper Section 4.2.1).
struct Posting {
  dewey::DeweyId id;
  float elem_rank = 0.0f;
  std::vector<uint32_t> positions;

  bool operator==(const Posting& other) const = default;
};

// Postings whose position list would overflow a page are truncated to this
// many positions (an element repeating one term 400+ times adds nothing to
// existence or window computation).
inline constexpr size_t kMaxPositionsPerPosting = 400;

// Physical location of a posting within a list: page index *within the
// list's page run* plus the slot on that page. Encoded into B+-tree values.
// `slot` is 32-bit in memory but the on-disk encoding packs it into 16 bits;
// EncodePostingLocation asserts the bound rather than truncating silently.
struct PostingLocation {
  uint32_t page_index = 0;
  uint32_t slot = 0;
};

inline constexpr uint32_t kMaxPostingSlot = 0xFFFF;

inline uint64_t EncodePostingLocation(PostingLocation loc) {
  XRANK_CHECK(loc.slot <= kMaxPostingSlot,
              "posting slot overflows the 16-bit location encoding");
  return (static_cast<uint64_t>(loc.page_index) << 16) | loc.slot;
}
inline PostingLocation DecodePostingLocation(uint64_t encoded) {
  return PostingLocation{static_cast<uint32_t>(encoded >> 16),
                         static_cast<uint32_t>(encoded & 0xFFFF)};
}

// One skip-block descriptor: the first Dewey ID stored on page `page_index`
// of a list's page run, plus the largest ElemRank of any posting on that
// page. The builder records one per page; a query cursor can then skip
// every page whose successor descriptor still precedes the merge target,
// without decoding the postings in between, and the top-k merge uses
// `max_rank` as a block-max score bound to skip page runs that cannot beat
// the current k-th result.
struct SkipEntry {
  uint32_t page_index = 0;
  dewey::DeweyId first_id;
  float max_rank = 0.0f;

  bool operator==(const SkipEntry& other) const = default;
};

// Extent of one term's list within a page file.
struct ListExtent {
  storage::PageId first_page = storage::kInvalidPage;
  uint32_t page_count = 0;
  uint64_t entry_count = 0;
  // Encoded bytes actually used (page headers + postings). Space reporting
  // uses this; page_count * kPageSize additionally includes the trailing
  // padding of the last page of each list.
  uint64_t byte_count = 0;
};

}  // namespace xrank::index

#endif  // XRANK_INDEX_POSTING_TYPES_H_

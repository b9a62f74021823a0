#ifndef XRANK_INDEX_POSTING_TYPES_H_
#define XRANK_INDEX_POSTING_TYPES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "dewey/dewey_id.h"
#include "storage/page.h"

namespace xrank::index {

struct Posting;

// A borrowed posting: its Dewey components, rank and word positions, held
// by a DecodedBlock or a Posting. Valid as long as what it points into; a
// cursor's view (index/posting.h, query/posting_cursor.h) lasts until the
// cursor's next move.
struct PostingView {
  dewey::IdSpan id;
  float elem_rank = 0.0f;
  std::span<const uint32_t> positions;

  // First Dewey component (the document id); 0 for an empty id, which only
  // a damaged page can hold.
  uint32_t document_id() const { return id.empty() ? 0 : id.front(); }

  // An owning copy.
  Posting ToPosting() const;
};

// One inverted-list entry: the Dewey ID of an element that *directly*
// contains the keyword, the element's ElemRank, and the (document-global)
// word positions of the keyword inside that element (paper Section 4.2.1).
// Extraction produces these and the page encoders consume them; the query
// path reads decoded pages as PostingViews instead.
struct Posting {
  dewey::DeweyId id;
  float elem_rank = 0.0f;
  std::vector<uint32_t> positions;

  PostingView view() const { return {id.components(), elem_rank, positions}; }

  bool operator==(const Posting& other) const = default;
};

inline Posting PostingView::ToPosting() const {
  return Posting{dewey::DeweyId(id), elem_rank,
                 std::vector<uint32_t>(positions.begin(), positions.end())};
}

// One decoded posting page in flat arrays: entry i has rank ranks[i],
// Dewey components components[id_offsets[i], id_offsets[i + 1]) and word
// positions positions[position_offsets[i], position_offsets[i + 1]); both
// offset arrays hold size() + 1 entries and start at 0. Every codec decodes
// a page into one (PostingCodec::DecodePage), the block cache holds them,
// and the query cursors hand out PostingViews into them, so a page costs
// five arrays however many postings it holds, and a recycled block none.
struct DecodedBlock {
  std::vector<float> ranks;
  std::vector<uint32_t> id_offsets{0};
  std::vector<uint32_t> components;
  std::vector<uint32_t> position_offsets{0};
  std::vector<uint32_t> positions;

  size_t size() const { return ranks.size(); }
  bool empty() const { return ranks.empty(); }

  PostingView at(size_t i) const {
    return {dewey::IdSpan(components.data() + id_offsets[i],
                          id_offsets[i + 1] - id_offsets[i]),
            ranks[i],
            std::span<const uint32_t>(
                positions.data() + position_offsets[i],
                position_offsets[i + 1] - position_offsets[i])};
  }

  // at(i).document_id(), reading one component.
  uint32_t document_id(size_t i) const {
    return id_offsets[i] == id_offsets[i + 1] ? 0
                                              : components[id_offsets[i]];
  }

  // Empties the block, keeping the arrays' capacity.
  void Clear() {
    ranks.clear();
    id_offsets.assign(1, 0);
    components.clear();
    position_offsets.assign(1, 0);
    positions.clear();
  }

  // Appends a copy of `posting`.
  void Append(const PostingView& posting) {
    ranks.push_back(posting.elem_rank);
    components.insert(components.end(), posting.id.begin(), posting.id.end());
    id_offsets.push_back(static_cast<uint32_t>(components.size()));
    positions.insert(positions.end(), posting.positions.begin(),
                     posting.positions.end());
    position_offsets.push_back(static_cast<uint32_t>(positions.size()));
  }

  // Bytes the five arrays hold (their capacities): what the block cache
  // charges for a block.
  size_t ArrayBytes() const {
    return ranks.capacity() * sizeof(float) +
           (id_offsets.capacity() + components.capacity() +
            position_offsets.capacity() + positions.capacity()) *
               sizeof(uint32_t);
  }
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

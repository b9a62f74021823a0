#include "index/naive_index.h"

#include <algorithm>
#include <cstring>

namespace xrank::index {

namespace {

// On-disk hash index: open-addressed (linear probing) table of 12-byte
// slots (u32 element ordinal + u64 posting location; the all-ones ordinal
// marks an empty slot). A probe reads the page holding the initial slot and
// walks forward, wrapping at the table end; load factor is at most 75%.
constexpr size_t kSlotSize = 12;
constexpr uint32_t kEmptyKey = 0xFFFFFFFFu;

uint64_t HashOrdinal(uint32_t key) {
  uint64_t z = key + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint32_t NextPowerOfTwo(uint32_t n) {
  uint32_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Naive-Rank's auxiliary structure: stages the term's (ordinal, location)
// pairs into the table in list order (probe sequences depend on it) and
// writes it, packed onto a shared page when it fits in one.
Status WriteHashIndex(storage::PageFile* file,
                      storage::SharedPagePacker* packer,
                      const AuxEntries& entries, TermInfo* info) {
  info->hash_slot_count = NextPowerOfTwo(std::max<uint32_t>(
      4, static_cast<uint32_t>(entries.size() * 4 / 3 + 1)));
  uint32_t mask = info->hash_slot_count - 1;

  struct Slot {
    uint32_t key = kEmptyKey;
    uint64_t value = 0;
  };
  std::vector<Slot> slots(info->hash_slot_count);
  for (const auto& [id, value] : entries) {
    uint32_t key = id[0];
    if (key == kEmptyKey) {
      return Status::InvalidArgument("element ordinal collides with sentinel");
    }
    uint32_t slot = static_cast<uint32_t>(HashOrdinal(key)) & mask;
    while (slots[slot].key != kEmptyKey) {
      if (slots[slot].key == key) {
        return Status::InvalidArgument("duplicate hash index key");
      }
      slot = (slot + 1) & mask;
    }
    slots[slot] = Slot{key, value};
  }
  std::string serialized(slots.size() * kSlotSize, '\0');
  for (size_t s = 0; s < slots.size(); ++s) {
    char* base = serialized.data() + s * kSlotSize;
    std::memcpy(base, &slots[s].key, 4);
    std::memcpy(base + 4, &slots[s].value, 8);
  }

  if (serialized.size() <= storage::kPageSize) {
    // Small table: share a page with other terms' tables (the same space
    // optimization the paper applies to short B+-trees, Section 4.3.1);
    // hash_page_count stays 0.
    XRANK_ASSIGN_OR_RETURN(storage::NodeRef ref, packer->Append(serialized));
    info->hash_first_page = storage::NodeRefPage(ref);
    info->hash_offset = storage::NodeRefOffset(ref);
    return Status::OK();
  }

  info->hash_page_count = static_cast<uint32_t>(
      (serialized.size() + storage::kPageSize - 1) / storage::kPageSize);
  for (uint32_t p = 0; p < info->hash_page_count; ++p) {
    XRANK_ASSIGN_OR_RETURN(storage::PageId page, file->Allocate());
    if (p == 0) {
      info->hash_first_page = page;
    } else if (page != info->hash_first_page + p) {
      return Status::Internal("hash index pages not consecutive");
    }
    storage::Page page_data{};
    size_t chunk = std::min(storage::kPageSize,
                            serialized.size() - p * storage::kPageSize);
    std::memcpy(page_data.data.data(),
                serialized.data() + p * storage::kPageSize, chunk);
    XRANK_RETURN_NOT_OK(file->Write(page, page_data));
  }
  return Status::OK();
}

}  // namespace

Result<std::optional<PostingLocation>> HashIndexLookup(
    storage::BufferPool* pool, const TermInfo& info,
    uint32_t element_ordinal) {
  if (info.hash_slot_count == 0) return std::optional<PostingLocation>();
  uint32_t mask = info.hash_slot_count - 1;
  uint32_t slot = static_cast<uint32_t>(HashOrdinal(element_ordinal)) & mask;
  storage::Page page;
  uint32_t loaded_page_index = UINT32_MAX;
  for (uint32_t probes = 0; probes < info.hash_slot_count; ++probes) {
    // hash_offset > 0 means a packed sub-page table (always single-page).
    size_t byte_position = info.hash_offset + slot * kSlotSize;
    uint32_t page_index =
        static_cast<uint32_t>(byte_position / storage::kPageSize);
    if (page_index != loaded_page_index) {
      XRANK_RETURN_NOT_OK(pool->Read(info.hash_first_page + page_index, &page));
      loaded_page_index = page_index;
    }
    size_t base = byte_position % storage::kPageSize;
    uint32_t key = page.ReadU32(base);
    if (key == kEmptyKey) return std::optional<PostingLocation>();
    if (key == element_ordinal) {
      return std::optional<PostingLocation>(
          DecodePostingLocation(page.ReadU64(base + 4)));
    }
    slot = (slot + 1) & mask;
  }
  return std::optional<PostingLocation>();
}

Result<BuiltIndex> BuildNaiveIdIndex(const TermPostingsMap& naive_postings,
                                     std::unique_ptr<storage::PageFile> file,
                                     const BuildOptions& build) {
  return BuildIndexFile(
      IndexKind::kNaiveId, naive_postings, std::move(file), build,
      [](const DecodedBlock& postings, const TermSink& sink,
         EncodedTerm* out) -> Status {
        PostingListWriter writer(sink.lists, sink.raw_format);
        for (size_t i = 0; i < postings.size(); ++i) {
          XRANK_RETURN_NOT_OK(writer.Add(postings.at(i)).status());
        }
        XRANK_ASSIGN_OR_RETURN(out->info.list, writer.Finish());
        return Status::OK();
      });
}

Result<BuiltIndex> BuildNaiveRankIndex(
    const TermPostingsMap& naive_postings,
    std::unique_ptr<storage::PageFile> file, const BuildOptions& build) {
  return BuildIndexFile(IndexKind::kNaiveRank, naive_postings,
                        std::move(file), build, EncodeRankList,
                        WriteHashIndex);
}

}  // namespace xrank::index

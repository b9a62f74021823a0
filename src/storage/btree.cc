#include "storage/btree.h"

#include <algorithm>

#include "common/check.h"
#include "common/varint.h"
#include "dewey/codec.h"

namespace xrank::storage {

namespace {

// Node region layout (self-describing; offsets relative to region start):
//   u8  flags        bit0 = leaf
//   u16 entry count
//   u64 prev leaf NodeRef (kInvalidRef if none / internal)
//   u64 next leaf NodeRef
//   entries: raw-encoded Dewey key ++ varint64 value
constexpr size_t kNodeHeaderSize = 1 + 2 + 8 + 8;
constexpr uint8_t kLeafFlag = 0x01;

std::string SerializeNode(bool is_leaf, uint32_t count, NodeRef prev,
                          NodeRef next, const std::string& entries) {
  std::string out;
  out.reserve(kNodeHeaderSize + entries.size());
  out.push_back(static_cast<char>(is_leaf ? kLeafFlag : 0));
  uint16_t count16 = static_cast<uint16_t>(count);
  out.append(reinterpret_cast<const char*>(&count16), sizeof(count16));
  out.append(reinterpret_cast<const char*>(&prev), sizeof(prev));
  out.append(reinterpret_cast<const char*>(&next), sizeof(next));
  out.append(entries);
  return out;
}

void AppendEntry(dewey::IdSpan key, uint64_t value, std::string* out) {
  dewey::EncodeDeweyId(key, out);
  PutVarint64(out, value);
}

size_t EntrySize(dewey::IdSpan key, uint64_t value) {
  return dewey::EncodedDeweyIdLength(key) +
         static_cast<size_t>(VarintLength64(value));
}

}  // namespace

// ---------------------------------------------------------------- packer --

Result<NodeRef> SharedPagePacker::Append(const std::string& region) {
  XRANK_CHECK(region.size() <= kPageSize, "packed region exceeds page size");
  if (current_page_ == kInvalidPage ||
      offset_ + region.size() > kPageSize) {
    XRANK_ASSIGN_OR_RETURN(current_page_, file_->Allocate());
    offset_ = 0;
    buffer_ = Page{};
    ++pages_used_;
  }
  std::memcpy(buffer_.data.data() + offset_, region.data(), region.size());
  XRANK_RETURN_NOT_OK(file_->Write(current_page_, buffer_));
  NodeRef ref = MakeNodeRef(current_page_, static_cast<uint32_t>(offset_));
  offset_ += region.size();
  return ref;
}

// --------------------------------------------------------------- builder --

BtreeBuilder::BtreeBuilder(PageFile* file, SharedPagePacker* packer)
    : file_(file), packer_(packer) {}

Status BtreeBuilder::Add(dewey::IdSpan key, uint64_t value) {
  XRANK_CHECK(!finished_, "Add after Finish");
  if (entry_count_ > 0 && !dewey::IdLess(last_key_, key)) {
    return Status::InvalidArgument("btree keys not strictly increasing: " +
                                   last_key_.ToString() + " then " +
                                   dewey::DeweyId(key).ToString());
  }
  size_t entry_size = EntrySize(key, value);
  if (kNodeHeaderSize + leaf_entries_.size() + entry_size > kPageSize) {
    XRANK_RETURN_NOT_OK(FlushLeaf());
  }
  if (leaf_count_ == 0) leaf_first_key_.AssignComponents(key);
  AppendEntry(key, value, &leaf_entries_);
  ++leaf_count_;
  last_key_.AssignComponents(key);
  ++entry_count_;
  return Status::OK();
}

Status BtreeBuilder::FlushLeaf() {
  XRANK_CHECK(leaf_count_ > 0, "flush of empty leaf");
  XRANK_ASSIGN_OR_RETURN(PageId page, file_->Allocate());
  ++full_pages_;
  if (has_pending_leaf_) {
    // The previous leaf now knows its successor; materialize it.
    NodeRef prev_ref = prev_leaf_page_ == kInvalidPage
                           ? kInvalidRef
                           : MakeNodeRef(prev_leaf_page_, 0);
    std::string node =
        SerializeNode(/*is_leaf=*/true, pending_leaf_count_, prev_ref,
                      MakeNodeRef(page, 0), pending_leaf_entries_);
    Page page_data{};
    std::memcpy(page_data.data.data(), node.data(), node.size());
    XRANK_RETURN_NOT_OK(file_->Write(pending_leaf_page_, page_data));
    prev_leaf_page_ = pending_leaf_page_;
  }
  has_pending_leaf_ = true;
  pending_leaf_page_ = page;
  pending_leaf_entries_ = std::move(leaf_entries_);
  pending_leaf_count_ = leaf_count_;
  leaf_refs_.push_back(PendingChild{leaf_first_key_, MakeNodeRef(page, 0)});
  leaf_entries_.clear();
  leaf_count_ = 0;
  return Status::OK();
}

Result<NodeRef> BtreeBuilder::WriteInternalLevels(
    std::vector<PendingChild> children, uint32_t* height,
    uint32_t* extra_pages) {
  while (children.size() > 1) {
    ++*height;
    std::vector<PendingChild> parents;
    std::string entries;
    uint32_t count = 0;
    dewey::DeweyId first_key;
    auto flush_node = [&]() -> Status {
      XRANK_ASSIGN_OR_RETURN(PageId page, file_->Allocate());
      ++*extra_pages;
      std::string node = SerializeNode(/*is_leaf=*/false, count, kInvalidRef,
                                       kInvalidRef, entries);
      Page page_data{};
      std::memcpy(page_data.data.data(), node.data(), node.size());
      XRANK_RETURN_NOT_OK(file_->Write(page, page_data));
      parents.push_back(PendingChild{first_key, MakeNodeRef(page, 0)});
      entries.clear();
      count = 0;
      return Status::OK();
    };
    for (const PendingChild& child : children) {
      size_t entry_size = EntrySize(child.first_key, child.ref);
      if (count > 0 &&
          kNodeHeaderSize + entries.size() + entry_size > kPageSize) {
        XRANK_RETURN_NOT_OK(flush_node());
      }
      if (count == 0) first_key = child.first_key;
      AppendEntry(child.first_key, child.ref, &entries);
      ++count;
    }
    if (count > 0) XRANK_RETURN_NOT_OK(flush_node());
    children = std::move(parents);
  }
  return children[0].ref;
}

Result<BtreeBuilder::BuildStats> BtreeBuilder::Finish() {
  XRANK_CHECK(!finished_, "double Finish");
  finished_ = true;
  BuildStats stats;
  stats.entry_count = entry_count_;
  if (entry_count_ == 0) {
    stats.root = kInvalidRef;
    return stats;
  }

  if (leaf_refs_.empty()) {
    // Whole tree fits in one leaf: pack it onto a shared page when a packer
    // is available (paper Section 4.3.1), else use a dedicated page.
    std::string node = SerializeNode(/*is_leaf=*/true, leaf_count_,
                                     kInvalidRef, kInvalidRef, leaf_entries_);
    stats.height = 1;
    if (packer_ != nullptr) {
      XRANK_ASSIGN_OR_RETURN(stats.root, packer_->Append(node));
      stats.packed_bytes = static_cast<uint32_t>(node.size());
    } else {
      XRANK_ASSIGN_OR_RETURN(PageId page, file_->Allocate());
      Page page_data{};
      std::memcpy(page_data.data.data(), node.data(), node.size());
      XRANK_RETURN_NOT_OK(file_->Write(page, page_data));
      stats.root = MakeNodeRef(page, 0);
      stats.full_pages = 1;
    }
    return stats;
  }

  // Flush the tail leaf, then materialize the last pending leaf with no
  // successor.
  if (leaf_count_ > 0) XRANK_RETURN_NOT_OK(FlushLeaf());
  NodeRef prev_ref = prev_leaf_page_ == kInvalidPage
                         ? kInvalidRef
                         : MakeNodeRef(prev_leaf_page_, 0);
  std::string node = SerializeNode(/*is_leaf=*/true, pending_leaf_count_,
                                   prev_ref, kInvalidRef,
                                   pending_leaf_entries_);
  Page page_data{};
  std::memcpy(page_data.data.data(), node.data(), node.size());
  XRANK_RETURN_NOT_OK(file_->Write(pending_leaf_page_, page_data));

  uint32_t height = 1;
  uint32_t extra_pages = 0;
  XRANK_ASSIGN_OR_RETURN(
      stats.root, WriteInternalLevels(std::move(leaf_refs_), &height,
                                      &extra_pages));
  stats.height = height;
  stats.full_pages = full_pages_ + extra_pages;
  return stats;
}

// ---------------------------------------------------------------- reader --

Result<BtreeReader::Node> BtreeReader::LoadNode(NodeRef ref) const {
  Page page;
  XRANK_RETURN_NOT_OK(pool_->Read(NodeRefPage(ref), &page));
  size_t offset = NodeRefOffset(ref);
  if (offset + kNodeHeaderSize > kPageSize) {
    return Status::Corruption("node ref offset out of page bounds");
  }
  Node node;
  uint8_t flags = static_cast<uint8_t>(page.data[offset]);
  node.is_leaf = (flags & kLeafFlag) != 0;
  uint16_t count = page.ReadU16(offset + 1);
  node.prev = page.ReadU64(offset + 3);
  node.next = page.ReadU64(offset + 11);
  std::string_view data = page.view();
  size_t pos = offset + kNodeHeaderSize;
  node.entries.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    BtreeEntry entry;
    XRANK_ASSIGN_OR_RETURN(entry.key, dewey::DecodeDeweyId(data, &pos));
    XRANK_ASSIGN_OR_RETURN(entry.value, GetVarint64(data, &pos));
    node.entries.push_back(std::move(entry));
  }
  return node;
}

Result<NodeRef> BtreeReader::DescendToLeaf(const dewey::DeweyId& key) const {
  NodeRef ref = root_;
  for (;;) {
    XRANK_ASSIGN_OR_RETURN(Node node, LoadNode(ref));
    if (node.is_leaf) return ref;
    if (node.entries.empty()) {
      return Status::Corruption("empty internal btree node");
    }
    // Last child whose first key <= key; key below all separators goes to
    // the first child (its leaf will report "no smaller entry").
    size_t chosen = 0;
    for (size_t i = 1; i < node.entries.size(); ++i) {
      if (node.entries[i].key <= key) {
        chosen = i;
      } else {
        break;
      }
    }
    ref = node.entries[chosen].value;
  }
}

Result<SeekResult> BtreeReader::SeekCeil(const dewey::DeweyId& key) const {
  SeekResult result;
  if (root_ == kInvalidRef) return result;
  XRANK_ASSIGN_OR_RETURN(NodeRef leaf_ref, DescendToLeaf(key));
  XRANK_ASSIGN_OR_RETURN(Node leaf, LoadNode(leaf_ref));
  size_t idx = 0;
  while (idx < leaf.entries.size() && leaf.entries[idx].key < key) ++idx;
  if (idx < leaf.entries.size()) {
    result.has_ceil = true;
    result.ceil = leaf.entries[idx];
    if (idx > 0) {
      result.has_pred = true;
      result.pred = leaf.entries[idx - 1];
    } else if (leaf.prev != kInvalidRef) {
      XRANK_ASSIGN_OR_RETURN(Node prev, LoadNode(leaf.prev));
      if (!prev.entries.empty()) {
        result.has_pred = true;
        result.pred = prev.entries.back();
      }
    }
    return result;
  }
  // Everything in this leaf is < key.
  if (!leaf.entries.empty()) {
    result.has_pred = true;
    result.pred = leaf.entries.back();
  }
  if (leaf.next != kInvalidRef) {
    XRANK_ASSIGN_OR_RETURN(Node next, LoadNode(leaf.next));
    if (!next.entries.empty()) {
      result.has_ceil = true;
      result.ceil = next.entries.front();
    }
  }
  return result;
}

Result<size_t> BtreeReader::LongestCommonPrefixWith(
    const dewey::DeweyId& key) const {
  XRANK_ASSIGN_OR_RETURN(SeekResult seek, SeekCeil(key));
  size_t best = 0;
  if (seek.has_ceil) best = std::max(best, key.CommonPrefixLength(seek.ceil.key));
  if (seek.has_pred) best = std::max(best, key.CommonPrefixLength(seek.pred.key));
  return best;
}

Status BtreeReader::ScanPrefix(
    const dewey::DeweyId& prefix,
    const std::function<bool(const BtreeEntry&)>& fn) const {
  if (root_ == kInvalidRef) return Status::OK();
  XRANK_ASSIGN_OR_RETURN(NodeRef leaf_ref, DescendToLeaf(prefix));
  XRANK_ASSIGN_OR_RETURN(Node leaf, LoadNode(leaf_ref));
  size_t idx = 0;
  while (idx < leaf.entries.size() && leaf.entries[idx].key < prefix) ++idx;
  for (;;) {
    if (idx >= leaf.entries.size()) {
      if (leaf.next == kInvalidRef) return Status::OK();
      XRANK_ASSIGN_OR_RETURN(leaf, LoadNode(leaf.next));
      idx = 0;
      continue;
    }
    const BtreeEntry& entry = leaf.entries[idx];
    if (!prefix.IsPrefixOf(entry.key)) return Status::OK();
    if (!fn(entry)) return Status::OK();
    ++idx;
  }
}

Status BtreeReader::ScanAll(
    const std::function<bool(const BtreeEntry&)>& fn) const {
  return ScanPrefix(dewey::DeweyId(), fn);
}

}  // namespace xrank::storage

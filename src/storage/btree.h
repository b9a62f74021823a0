#ifndef XRANK_STORAGE_BTREE_H_
#define XRANK_STORAGE_BTREE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dewey/dewey_id.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace xrank::storage {

// Disk-resident B+-tree keyed by Dewey ID, bulk-loaded from sorted input.
// Used by RDIL (one dense tree per inverted list, values point at postings)
// and HDIL (one sparse tree per list whose "leaves" are the list pages
// themselves, so only internal nodes are stored — paper Section 4.4.1).
//
// Node addressing uses a NodeRef = (page id << 16) | byte offset, which
// enables the paper's space optimization of Section 4.3.1: trees small
// enough to fit in a single leaf are packed together onto shared pages
// instead of each wasting a whole disk page.
using NodeRef = uint64_t;
inline constexpr NodeRef kInvalidRef = ~0ULL;

inline NodeRef MakeNodeRef(PageId page, uint32_t offset) {
  return (static_cast<uint64_t>(page) << 16) | offset;
}
inline PageId NodeRefPage(NodeRef ref) {
  return static_cast<PageId>(ref >> 16);
}
inline uint32_t NodeRefOffset(NodeRef ref) {
  return static_cast<uint32_t>(ref & 0xFFFF);
}

// Sub-allocates small node regions within shared pages (write-through).
class SharedPagePacker {
 public:
  explicit SharedPagePacker(PageFile* file) : file_(file) {}

  // Appends `region` (< kPageSize bytes) to the current shared page,
  // starting a fresh page when it does not fit. Returns the region's ref.
  Result<NodeRef> Append(const std::string& region);

  // Pages consumed by packed regions so far.
  uint32_t pages_used() const { return pages_used_; }

 private:
  PageFile* file_;
  PageId current_page_ = kInvalidPage;
  size_t offset_ = 0;
  Page buffer_;
  uint32_t pages_used_ = 0;
};

// Bulk-loads a B+-tree. Keys must be Add()ed in strictly increasing order.
class BtreeBuilder {
 public:
  // `packer` is optional; when provided, single-leaf trees are packed onto
  // shared pages. Both pointers are borrowed.
  BtreeBuilder(PageFile* file, SharedPagePacker* packer);

  Status Add(dewey::IdSpan key, uint64_t value);

  struct BuildStats {
    NodeRef root = kInvalidRef;
    uint32_t full_pages = 0;   // whole pages owned by this tree
    uint32_t packed_bytes = 0; // bytes placed on shared pages (0 if none)
    uint32_t height = 0;       // 1 = single leaf
    uint64_t entry_count = 0;
  };

  // Finishes the tree; the builder must not be reused afterwards.
  Result<BuildStats> Finish();

 private:
  struct PendingChild {
    dewey::DeweyId first_key;
    NodeRef ref;
  };

  Status FlushLeaf();
  Result<NodeRef> WriteInternalLevels(std::vector<PendingChild> children,
                                      uint32_t* height,
                                      uint32_t* extra_pages);

  PageFile* file_;
  SharedPagePacker* packer_;
  // Current leaf under construction.
  std::string leaf_entries_;
  uint32_t leaf_count_ = 0;
  dewey::DeweyId leaf_first_key_;
  dewey::DeweyId last_key_;
  // Previous full-page leaf waiting for its `next` pointer.
  bool has_pending_leaf_ = false;
  PageId pending_leaf_page_ = kInvalidPage;
  std::string pending_leaf_entries_;
  uint32_t pending_leaf_count_ = 0;
  PageId prev_leaf_page_ = kInvalidPage;
  std::vector<PendingChild> leaf_refs_;
  uint64_t entry_count_ = 0;
  uint32_t full_pages_ = 0;
  bool finished_ = false;
};

// Entry returned by point lookups.
struct BtreeEntry {
  dewey::DeweyId key;
  uint64_t value = 0;
};

// Result of SeekCeil: the first entry with key >= probe, and the entry
// immediately before it (the probe key's predecessor in the tree).
struct SeekResult {
  bool has_ceil = false;
  BtreeEntry ceil;
  bool has_pred = false;
  BtreeEntry pred;
};

class BtreeReader {
 public:
  // `pool` is borrowed. `root` comes from BtreeBuilder::Finish().
  BtreeReader(BufferPool* pool, NodeRef root) : pool_(pool), root_(root) {}

  // Finds the first entry >= key and its predecessor.
  Result<SeekResult> SeekCeil(const dewey::DeweyId& key) const;

  // The deepest prefix of `key` shared with any key in the tree, found by
  // probing key's ceiling and predecessor (paper Section 4.3.2). Returns the
  // common-prefix length (0 if the tree is empty).
  Result<size_t> LongestCommonPrefixWith(const dewey::DeweyId& key) const;

  // Invokes `fn` for every entry whose key has `prefix` as a Dewey prefix,
  // in key order. Returning false from fn stops the scan.
  Status ScanPrefix(const dewey::DeweyId& prefix,
                    const std::function<bool(const BtreeEntry&)>& fn) const;

  // Invokes `fn` for every entry in the tree, in key order (testing aid).
  Status ScanAll(const std::function<bool(const BtreeEntry&)>& fn) const;

 private:
  struct Node {
    bool is_leaf = false;
    NodeRef prev = kInvalidRef;
    NodeRef next = kInvalidRef;
    std::vector<BtreeEntry> entries;  // internal nodes: value = child ref
  };

  Result<Node> LoadNode(NodeRef ref) const;
  // Descends to the leaf that would contain `key`.
  Result<NodeRef> DescendToLeaf(const dewey::DeweyId& key) const;

  BufferPool* pool_;
  NodeRef root_;
};

}  // namespace xrank::storage

#endif  // XRANK_STORAGE_BTREE_H_

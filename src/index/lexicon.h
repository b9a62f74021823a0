#ifndef XRANK_INDEX_LEXICON_H_
#define XRANK_INDEX_LEXICON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/result.h"
#include "index/codec.h"
#include "index/posting.h"
#include "storage/btree.h"

namespace xrank::index {

// Version of the serialized lexicon blob layout, recorded in the index
// header page. Pre-versioning header pages are zero-initialized at this
// offset, so old index files read as version 0 — exactly the layout they
// were written with — and OpenIndex refuses versions from the future.
//   0: legacy layout (through PR 6): no per-term max_doc_rank field.
//   1: adds the 4-byte TermInfo::max_doc_rank bound after the hash fields.
inline constexpr uint32_t kLexiconFormatVersion = 1;

// Per-term index metadata. Which fields are populated depends on the index
// kind: DIL fills `list` (Dewey order), `skips` and `max_doc_rank`; HDIL
// adds `rank_list` (rank-ordered prefix) and a sparse `btree_root`. RDIL
// fills `list` (rank order) and a dense `btree_root` on Dewey IDs;
// Naive-ID fills only `list`; Naive-Rank adds the `hash_*` fields. These
// three leave `skips` empty and `max_doc_rank` at 0.
struct TermInfo {
  ListExtent list;
  ListExtent rank_list;
  storage::NodeRef btree_root = storage::kInvalidRef;
  storage::PageId hash_first_page = storage::kInvalidPage;
  uint32_t hash_page_count = 0;
  uint32_t hash_slot_count = 0;
  // Byte offset of the table within hash_first_page; small tables share
  // pages (same space optimization as short B+-trees, Section 4.3.1).
  // Multi-page tables always start at offset 0.
  uint32_t hash_offset = 0;
  // Upper bound on any single document's sum of posting ranks for
  // this term (PostingListWriter::max_doc_rank). Disjunctive pruning uses
  // it as the term's list-level score bound under sum aggregation, where
  // the per-page max_rank maxima alone would be unsound. Serialized only
  // since lexicon format version 1; version-0 blobs lack the field and
  // deserialize to the default 0 here. Query code treats non-positive or
  // non-finite values as "no bound" (prune nothing) rather than an error.
  float max_doc_rank = 0.0f;
  // Skip-block descriptors for `list` (one per page: the page's first Dewey
  // ID), in page order. Lets query cursors jump over pages whose ID range
  // precedes the merge frontier. Empty for index kinds whose `list` is not
  // Dewey-ordered (RDIL, Naive-Rank) and for Naive-ID.
  std::vector<SkipEntry> skips;
};

// Term dictionary. Held in memory at query time (as in most IR engines);
// serialized into the index file's trailing pages. Also carries the
// index-wide posting format: builders stamp it before serialization and
// OpenIndex restores it from the header page, so query processors derive
// every cursor's PostingFormat from here.
class Lexicon {
 public:
  void Add(std::string term, TermInfo info);

  // nullptr if the term does not occur in the collection.
  const TermInfo* Find(std::string_view term) const;

  size_t term_count() const { return terms_.size(); }
  const std::map<std::string, TermInfo, std::less<>>& terms() const {
    return terms_;
  }

  // Index-wide posting format. SetFormatSpec resolves the codec against the
  // registry (Corruption for unknown ids). Defaults to varint.
  Status SetFormatSpec(const PostingFormatSpec& spec);
  const PostingFormatSpec& format_spec() const { return spec_; }
  const PostingCodec* codec() const { return codec_; }
  std::string_view codec_name() const { return codec_->name(); }

  // The resolved format of a `list`/`rank_list`: Dewey-ordered lists are
  // prefix-delta coded, rank-ordered ones store raw IDs.
  PostingFormat ListFormat(bool delta_encode_ids) const {
    return MakePostingFormat(codec_, spec_, delta_encode_ids);
  }

  // `format_version` selects the blob layout to emit; anything but the
  // current version exists only so tests can produce genuine legacy blobs.
  void Serialize(std::string* out,
                 uint32_t format_version = kLexiconFormatVersion) const;
  // `spec` becomes the index-wide format, and `format_version` must be what
  // the blob was serialized under (it gates the presence of per-term
  // fields); callers read both from the index header page before
  // deserializing. The defaults match a blob
  // written by this build; pre-codec index files carry the default spec and
  // a zero (legacy) version in their zero-initialized header slots.
  static Result<Lexicon> Deserialize(
      std::string_view data, const PostingFormatSpec& spec = {},
      uint32_t format_version = kLexiconFormatVersion);

 private:
  std::map<std::string, TermInfo, std::less<>> terms_;
  PostingFormatSpec spec_;
  const PostingCodec* codec_ = FindPostingCodec(kPostingCodecVarint);
};

}  // namespace xrank::index

#endif  // XRANK_INDEX_LEXICON_H_

#include "index/lexicon.h"

#include <cstring>

#include "common/varint.h"
#include "dewey/codec.h"

namespace xrank::index {

void Lexicon::Add(std::string term, TermInfo info) {
  terms_[std::move(term)] = std::move(info);
}

const TermInfo* Lexicon::Find(std::string_view term) const {
  auto it = terms_.find(term);
  if (it == terms_.end()) return nullptr;
  return &it->second;
}

Status Lexicon::SetFormatSpec(const PostingFormatSpec& spec) {
  XRANK_ASSIGN_OR_RETURN(codec_, ResolvePostingCodec(spec));
  spec_ = spec;
  return Status::OK();
}

void Lexicon::Serialize(std::string* out, uint32_t format_version) const {
  PutVarint64(out, terms_.size());
  for (const auto& [term, info] : terms_) {
    PutVarint32(out, static_cast<uint32_t>(term.size()));
    out->append(term);
    PutVarint32(out, info.list.first_page);
    PutVarint32(out, info.list.page_count);
    PutVarint64(out, info.list.entry_count);
    PutVarint64(out, info.list.byte_count);
    PutVarint32(out, info.rank_list.first_page);
    PutVarint32(out, info.rank_list.page_count);
    PutVarint64(out, info.rank_list.entry_count);
    PutVarint64(out, info.rank_list.byte_count);
    PutVarint64(out, info.btree_root);
    PutVarint32(out, info.hash_first_page);
    PutVarint32(out, info.hash_page_count);
    PutVarint32(out, info.hash_slot_count);
    PutVarint32(out, info.hash_offset);
    if (format_version >= 1) {
      // Sum-aggregation list bound, 4 raw IEEE-754 bytes (format version 1;
      // 0 means "unknown" and query code degrades to no-prune).
      uint32_t doc_rank_bits;
      static_assert(sizeof(doc_rank_bits) == sizeof(info.max_doc_rank));
      std::memcpy(&doc_rank_bits, &info.max_doc_rank, sizeof(doc_rank_bits));
      out->append(reinterpret_cast<const char*>(&doc_rank_bits),
                  sizeof(doc_rank_bits));
    }
    PutVarint64(out, info.skips.size());
    for (const SkipEntry& skip : info.skips) {
      PutVarint32(out, skip.page_index);
      dewey::EncodeDeweyId(skip.first_id, out);
      // Block-max rank bound, 4 raw IEEE-754 bytes (same representation as
      // the in-page posting ranks).
      uint32_t rank_bits;
      static_assert(sizeof(rank_bits) == sizeof(skip.max_rank));
      std::memcpy(&rank_bits, &skip.max_rank, sizeof(rank_bits));
      out->append(reinterpret_cast<const char*>(&rank_bits),
                  sizeof(rank_bits));
    }
  }
}

Result<Lexicon> Lexicon::Deserialize(std::string_view data,
                                     const PostingFormatSpec& spec,
                                     uint32_t format_version) {
  Lexicon lexicon;
  XRANK_RETURN_NOT_OK(lexicon.SetFormatSpec(spec));
  size_t offset = 0;
  XRANK_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(data, &offset));
  for (uint64_t i = 0; i < count; ++i) {
    XRANK_ASSIGN_OR_RETURN(uint32_t term_len, GetVarint32(data, &offset));
    if (offset + term_len > data.size()) {
      return Status::Corruption("truncated lexicon term");
    }
    std::string term(data.substr(offset, term_len));
    offset += term_len;
    TermInfo info;
    XRANK_ASSIGN_OR_RETURN(info.list.first_page, GetVarint32(data, &offset));
    XRANK_ASSIGN_OR_RETURN(info.list.page_count, GetVarint32(data, &offset));
    XRANK_ASSIGN_OR_RETURN(info.list.entry_count, GetVarint64(data, &offset));
    XRANK_ASSIGN_OR_RETURN(info.list.byte_count, GetVarint64(data, &offset));
    XRANK_ASSIGN_OR_RETURN(info.rank_list.first_page,
                           GetVarint32(data, &offset));
    XRANK_ASSIGN_OR_RETURN(info.rank_list.page_count,
                           GetVarint32(data, &offset));
    XRANK_ASSIGN_OR_RETURN(info.rank_list.entry_count,
                           GetVarint64(data, &offset));
    XRANK_ASSIGN_OR_RETURN(info.rank_list.byte_count,
                           GetVarint64(data, &offset));
    XRANK_ASSIGN_OR_RETURN(info.btree_root, GetVarint64(data, &offset));
    XRANK_ASSIGN_OR_RETURN(info.hash_first_page, GetVarint32(data, &offset));
    XRANK_ASSIGN_OR_RETURN(info.hash_page_count, GetVarint32(data, &offset));
    XRANK_ASSIGN_OR_RETURN(info.hash_slot_count, GetVarint32(data, &offset));
    XRANK_ASSIGN_OR_RETURN(info.hash_offset, GetVarint32(data, &offset));
    if (format_version >= 1) {
      // Version-0 blobs predate the field; TermInfo's default 0 means "no
      // bound" there, so old index files keep opening byte-exact.
      if (offset + sizeof(uint32_t) > data.size()) {
        return Status::Corruption("truncated lexicon max doc rank");
      }
      uint32_t doc_rank_bits;
      std::memcpy(&doc_rank_bits, data.data() + offset, sizeof(doc_rank_bits));
      std::memcpy(&info.max_doc_rank, &doc_rank_bits, sizeof(doc_rank_bits));
      offset += sizeof(doc_rank_bits);
    }
    XRANK_ASSIGN_OR_RETURN(uint64_t skip_count, GetVarint64(data, &offset));
    if (skip_count > info.list.page_count) {
      return Status::Corruption("lexicon skip count exceeds list pages");
    }
    info.skips.reserve(skip_count);
    for (uint64_t s = 0; s < skip_count; ++s) {
      SkipEntry skip;
      XRANK_ASSIGN_OR_RETURN(skip.page_index, GetVarint32(data, &offset));
      XRANK_ASSIGN_OR_RETURN(skip.first_id,
                             dewey::DecodeDeweyId(data, &offset));
      if (offset + sizeof(uint32_t) > data.size()) {
        return Status::Corruption("truncated skip max rank");
      }
      uint32_t rank_bits;
      std::memcpy(&rank_bits, data.data() + offset, sizeof(rank_bits));
      std::memcpy(&skip.max_rank, &rank_bits, sizeof(rank_bits));
      offset += sizeof(rank_bits);
      info.skips.push_back(std::move(skip));
    }
    lexicon.Add(std::move(term), std::move(info));
  }
  return lexicon;
}

}  // namespace xrank::index

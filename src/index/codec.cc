#include "index/codec.h"

#include <algorithm>
#include <cstring>

#include "common/bitpack.h"
#include "common/check.h"
#include "common/varint.h"
#include "dewey/codec.h"

namespace xrank::index {

namespace {

constexpr size_t kListPageHeaderSize = 2;    // varint pages: u16 entry count
constexpr size_t kBlockPageHeaderSize = 12;  // block pages, see below
constexpr size_t kPackBlock = 128;           // values per bit-packed block
constexpr uint32_t kMaxDeweyDepth = 1u << 20;  // mirrors dewey/codec.cc
// Per-page cap on variable-stream lengths (suffix components, position
// deltas). Real pages stay far below this — the values themselves must fit
// in 4 KiB — but a bit-flipped header with zero-width blocks could other-
// wise demand a multi-gigabyte allocation before any bounds check fires.
constexpr uint32_t kMaxPageStreamValues = 1u << 20;

// Wrap-safe zigzag over u32 differences: bijective mod 2^32, so the
// non-monotone document heads of rank-ordered lists round-trip, while the
// small +/- deltas of Dewey-ordered lists map to small codes.
inline uint32_t ZigzagEncode(uint32_t delta) {
  return (delta << 1) ^ (0u - (delta >> 31));
}
inline uint32_t ZigzagDecode(uint32_t z) { return (z >> 1) ^ (0u - (z & 1)); }

// Ranks are raw IEEE-754 floats on every page, 4 bytes each.
constexpr size_t kRankBytes = sizeof(float);

// ---------------------------------------------------------- varint codec --
//
// The pre-codec on-disk layout, kept byte-identical as the compatibility
// baseline: u16 entry count, then back-to-back postings,
// each = Dewey ID (prefix-delta against the previous posting on the page,
// raw for the page's first posting or when delta coding is off) + rank +
// varint position count + varint position deltas.

void EncodeVarintPosting(const Posting& posting,
                         const dewey::DeweyId* previous, std::string* out) {
  if (previous != nullptr) {
    dewey::EncodeDeweyIdDelta(*previous, posting.id, out);
  } else {
    dewey::EncodeDeweyId(posting.id, out);
  }
  out->append(reinterpret_cast<const char*>(&posting.elem_rank), kRankBytes);
  size_t count = std::min(posting.positions.size(), kMaxPositionsPerPosting);
  PutVarint32(out, static_cast<uint32_t>(count));
  uint32_t prev_pos = 0;
  for (size_t i = 0; i < count; ++i) {
    PutVarint32(out, posting.positions[i] - prev_pos);
    prev_pos = posting.positions[i];
  }
}

// Appends the posting at *offset to *out. With `delta`, its id is coded
// against the block's previous posting.
Status DecodeVarintPosting(std::string_view data, size_t* offset, bool delta,
                           DecodedBlock* out) {
  std::vector<uint32_t>& comps = out->components;
  uint32_t prefix = 0;
  if (delta) {
    XRANK_ASSIGN_OR_RETURN(prefix, GetVarint32(data, offset));
    const size_t prev_start = out->id_offsets[out->size() - 1];
    if (prefix > comps.size() - prev_start) {
      return Status::Corruption("Dewey delta lcp exceeds previous depth");
    }
    // Components shared with the previous posting, copied by index: the
    // resize may move the array.
    comps.resize(comps.size() + prefix);
    std::copy_n(comps.begin() + prev_start, prefix,
                comps.end() - prefix);
  }
  XRANK_ASSIGN_OR_RETURN(uint32_t suffix, GetVarint32(data, offset));
  // Every component takes at least one byte, which bounds a damaged count.
  if (suffix > kMaxDeweyDepth || suffix > data.size() - *offset) {
    return Status::Corruption("absurd Dewey depth");
  }
  for (uint32_t i = 0; i < suffix; ++i) {
    XRANK_ASSIGN_OR_RETURN(uint32_t c, GetVarint32(data, offset));
    comps.push_back(c);
  }
  out->id_offsets.push_back(static_cast<uint32_t>(comps.size()));

  if (*offset + kRankBytes > data.size()) {
    return Status::Corruption("truncated posting rank");
  }
  float rank;
  std::memcpy(&rank, data.data() + *offset, kRankBytes);
  *offset += kRankBytes;
  XRANK_ASSIGN_OR_RETURN(uint32_t count, GetVarint32(data, offset));
  if (count > kMaxPositionsPerPosting) {
    return Status::Corruption("posting position count out of range");
  }
  uint32_t position = 0;
  for (uint32_t i = 0; i < count; ++i) {
    XRANK_ASSIGN_OR_RETURN(uint32_t delta_pos, GetVarint32(data, offset));
    position += delta_pos;
    out->positions.push_back(position);
  }
  out->position_offsets.push_back(
      static_cast<uint32_t>(out->positions.size()));
  out->ranks.push_back(rank);
  return Status::OK();
}

class VarintPageEncoder final : public PostingPageEncoder {
 public:
  explicit VarintPageEncoder(const PostingFormat& format) : format_(format) {}

  Result<bool> Add(const Posting& posting) override {
    const dewey::DeweyId* previous =
        (format_.delta_encode_ids && count_ > 0) ? &previous_id_ : nullptr;
    size_t before = buffer_.size();
    EncodeVarintPosting(posting, previous, &buffer_);
    if (kListPageHeaderSize + buffer_.size() > storage::kPageSize) {
      buffer_.resize(before);
      if (count_ == 0) {
        return Status::InvalidArgument("posting larger than a page");
      }
      return false;
    }
    previous_id_ = posting.id;
    ++count_;
    return true;
  }

  Result<size_t> Flush(storage::Page* page) override {
    page->WriteU16(0, count_);
    std::memcpy(page->data.data() + kListPageHeaderSize, buffer_.data(),
                buffer_.size());
    size_t used = kListPageHeaderSize + buffer_.size();
    buffer_.clear();
    count_ = 0;
    previous_id_ = dewey::DeweyId();
    return used;
  }

  uint32_t count() const override { return count_; }

 private:
  PostingFormat format_;
  std::string buffer_;
  uint16_t count_ = 0;
  dewey::DeweyId previous_id_;
};

class VarintPostingCodec final : public PostingCodec {
 public:
  uint32_t id() const override { return kPostingCodecVarint; }
  std::string_view name() const override { return "varint"; }

  std::unique_ptr<PostingPageEncoder> NewEncoder(
      const PostingFormat& format) const override {
    return std::make_unique<VarintPageEncoder>(format);
  }

  Status DecodePage(const storage::Page& page, const PostingFormat& format,
                    DecodedBlock* out) const override {
    uint16_t count = page.ReadU16(0);
    out->Clear();
    out->ranks.reserve(count);
    out->id_offsets.reserve(count + 1u);
    out->position_offsets.reserve(count + 1u);
    size_t offset = kListPageHeaderSize;
    for (uint16_t i = 0; i < count; ++i) {
      XRANK_RETURN_NOT_OK(DecodeVarintPosting(
          page.view(), &offset, format.delta_encode_ids && i > 0, out));
    }
    return Status::OK();
  }
};

// ------------------------------------------------------------ bp128 codec --
//
// The per-posting fields are transposed into six u32 streams, each
// compressed independently, followed by a flat float rank array. Page
// layout:
//
//   offset 0   u16  entry count
//   offset 2   u16  reserved (0)
//   offset 4   u32  total suffix components on the page
//   offset 8   u32  total position deltas on the page
//   offset 12  streams (depth, lcp, head-gap, suffix, pos-count, pos-delta)
//   then       ranks: count * 4 bytes (f32)
//
// Streams (one value per posting unless noted):
//   depth      Dewey depth
//   lcp        components shared with the previous posting on the page
//              (0 for the page's first posting and for rank-ordered lists)
//   head-gap   zigzag(comp0 - previous comp0), previous head 0 at page
//              start; for depth == 0 the chain value is 0
//   suffix     components [max(lcp,1), depth) of each posting, concatenated
//              (comp0 travels in the head-gap chain)
//   pos-count  number of positions (capped at kMaxPositionsPerPosting)
//   pos-delta  per posting: positions[0], then successive differences
//
// Each stream is compressed in blocks of 128 values: a 1-byte bit width
// (0..32, derived from the block maximum; width 0 has no payload bytes)
// followed by ceil(k * width / 8) bytes of LSB-first packed values.

enum StreamIx {
  kSDepth = 0,
  kSLcp,
  kSHead,
  kSSuffix,
  kSPosCount,
  kSPosDelta,
  kNumStreams,
};

size_t PackBp128Stream(const std::vector<uint32_t>& values, uint8_t* out) {
  size_t off = 0;
  for (size_t i = 0; i < values.size(); i += kPackBlock) {
    size_t k = std::min(kPackBlock, values.size() - i);
    uint32_t bits = 0;
    for (size_t j = 0; j < k; ++j) bits |= values[i + j];
    unsigned width = bitpack::BitWidth(bits);
    out[off++] = static_cast<uint8_t>(width);
    bitpack::PackBits(values.data() + i, k, width, out + off);
    off += bitpack::PackedBytes(k, width);
  }
  return off;
}

bool ReadBp128Stream(const uint8_t* base, size_t* off, size_t n,
                     std::vector<uint32_t>* out) {
  out->resize(n);
  size_t i = 0;
  while (i < n) {
    if (*off >= storage::kPageSize) return false;
    unsigned width = base[(*off)++];
    if (width > 32) return false;
    size_t k = std::min(kPackBlock, n - i);
    size_t packed = bitpack::PackedBytes(k, width);
    if (*off + packed > storage::kPageSize) return false;
    if (!bitpack::UnpackBits(base + *off, base + *off + packed, k, width,
                             out->data() + i)) {
      return false;
    }
    *off += packed;
    i += k;
  }
  return true;
}

// Per-stream incremental size accounting so the encoder can decide page fit
// in O(1) per posting (the writer's page-at-a-time protocol forbids
// repacking across pages): bytes of completed 128-value blocks plus the
// open block's state. The OR of a block's values has the same bit width as
// its maximum.
struct StreamSizer {
  size_t full_bytes = 0;
  uint32_t tail_count = 0;
  uint32_t tail_or = 0;
};

class BlockPageEncoder final : public PostingPageEncoder {
 public:
  explicit BlockPageEncoder(const PostingFormat& format) : format_(format) {}

  Result<bool> Add(const Posting& posting) override;
  Result<size_t> Flush(storage::Page* page) override;
  uint32_t count() const override { return count_; }

 private:
  static void SizerAppend(StreamSizer* sizer, uint32_t v) {
    if (sizer->tail_count == 0) sizer->tail_or = 0;
    sizer->tail_or |= v;
    if (++sizer->tail_count == kPackBlock) {
      unsigned width = bitpack::BitWidth(sizer->tail_or);
      sizer->full_bytes += 1 + bitpack::PackedBytes(kPackBlock, width);
      sizer->tail_count = 0;
      sizer->tail_or = 0;
    }
  }

  static size_t SizerBytes(const StreamSizer& sizer) {
    size_t bytes = sizer.full_bytes;
    if (sizer.tail_count > 0) {
      unsigned width = bitpack::BitWidth(sizer.tail_or);
      bytes += 1 + bitpack::PackedBytes(sizer.tail_count, width);
    }
    return bytes;
  }

  void Append(StreamIx stream, uint32_t v) {
    streams_[stream].push_back(v);
    SizerAppend(&sizers_[stream], v);
  }

  PostingFormat format_;
  std::vector<uint32_t> streams_[kNumStreams];
  StreamSizer sizers_[kNumStreams];
  std::vector<float> ranks_;
  uint32_t count_ = 0;
  dewey::DeweyId prev_id_;
  uint32_t prev_head_ = 0;
};

Result<bool> BlockPageEncoder::Add(const Posting& posting) {
  if (count_ > kMaxPostingSlot) return false;  // u16 count/slot ceiling

  // Snapshot so a posting that does not fit can be rolled back exactly.
  size_t saved_sizes[kNumStreams];
  StreamSizer saved_sizers[kNumStreams];
  for (int s = 0; s < kNumStreams; ++s) {
    saved_sizes[s] = streams_[s].size();
    saved_sizers[s] = sizers_[s];
  }

  const std::vector<uint32_t>& comps = posting.id.components();
  uint32_t depth = static_cast<uint32_t>(comps.size());
  uint32_t lcp = 0;
  if (format_.delta_encode_ids && count_ > 0) {
    lcp = static_cast<uint32_t>(posting.id.CommonPrefixLength(prev_id_));
  }
  uint32_t head = depth > 0 ? comps[0] : 0;

  Append(kSDepth, depth);
  Append(kSLcp, lcp);
  Append(kSHead, ZigzagEncode(head - prev_head_));
  if (depth > 0) {
    for (uint32_t j = std::max(lcp, 1u); j < depth; ++j) {
      Append(kSSuffix, comps[j]);
    }
  }
  size_t pos_count =
      std::min(posting.positions.size(), kMaxPositionsPerPosting);
  Append(kSPosCount, static_cast<uint32_t>(pos_count));
  uint32_t prev_pos = 0;
  for (size_t i = 0; i < pos_count; ++i) {
    Append(kSPosDelta, posting.positions[i] - prev_pos);
    prev_pos = posting.positions[i];
  }

  size_t total = kBlockPageHeaderSize + (count_ + 1) * kRankBytes;
  for (int s = 0; s < kNumStreams; ++s) total += SizerBytes(sizers_[s]);

  bool overflow = total > storage::kPageSize ||
                  streams_[kSSuffix].size() > kMaxPageStreamValues ||
                  streams_[kSPosDelta].size() > kMaxPageStreamValues;
  if (overflow) {
    for (int s = 0; s < kNumStreams; ++s) {
      streams_[s].resize(saved_sizes[s]);
      sizers_[s] = saved_sizers[s];
    }
    if (count_ == 0) {
      return Status::InvalidArgument("posting larger than a page");
    }
    return false;
  }

  ranks_.push_back(posting.elem_rank);
  prev_id_ = posting.id;
  prev_head_ = head;
  ++count_;
  return true;
}

Result<size_t> BlockPageEncoder::Flush(storage::Page* page) {
  page->WriteU16(0, static_cast<uint16_t>(count_));
  page->WriteU16(2, 0);
  page->WriteU32(4, static_cast<uint32_t>(streams_[kSSuffix].size()));
  page->WriteU32(8, static_cast<uint32_t>(streams_[kSPosDelta].size()));
  uint8_t* base = reinterpret_cast<uint8_t*>(page->data.data());
  size_t off = kBlockPageHeaderSize;
  for (int s = 0; s < kNumStreams; ++s) {
    size_t packed = PackBp128Stream(streams_[s], base + off);
    XRANK_CHECK(packed == SizerBytes(sizers_[s]),
                "block stream size accounting mismatch");
    off += packed;
  }
  XRANK_CHECK(off + count_ * kRankBytes <= storage::kPageSize,
              "block page overflow");
  std::memcpy(base + off, ranks_.data(), count_ * kRankBytes);
  off += count_ * kRankBytes;
  for (int s = 0; s < kNumStreams; ++s) {
    streams_[s].clear();
    sizers_[s] = StreamSizer{};
  }
  ranks_.clear();
  count_ = 0;
  prev_id_ = dewey::DeweyId();
  prev_head_ = 0;
  return off;
}

Status DecodeBlockPage(const storage::Page& page, DecodedBlock* out) {
  const uint8_t* base = reinterpret_cast<const uint8_t*>(page.data.data());
  uint32_t count = page.ReadU16(0);
  out->Clear();
  if (count == 0) return Status::OK();
  uint32_t suffix_total = page.ReadU32(4);
  uint32_t pos_total = page.ReadU32(8);
  if (suffix_total > kMaxPageStreamValues ||
      pos_total > kMaxPageStreamValues) {
    return Status::Corruption("posting block stream totals out of range");
  }

  // Reused scratch keeps the hot decode path allocation-free once warm.
  thread_local std::vector<uint32_t> scratch[kNumStreams];
  const size_t counts[kNumStreams] = {count,        count, count,
                                      suffix_total, count, pos_total};
  size_t off = kBlockPageHeaderSize;
  for (int s = 0; s < kNumStreams; ++s) {
    if (!ReadBp128Stream(base, &off, counts[s], &scratch[s])) {
      return Status::Corruption("truncated posting block stream");
    }
  }
  if (off + static_cast<size_t>(count) * kRankBytes > storage::kPageSize) {
    return Status::Corruption("truncated posting block ranks");
  }

  // Hoisted stream pointers (scratch is thread_local — keep TLS lookups out
  // of the per-posting loop) and bulk range checks over whole streams, so
  // the reconstruction loop only validates the cross-stream invariants.
  const uint32_t* depth_s = scratch[kSDepth].data();
  const uint32_t* lcp_s = scratch[kSLcp].data();
  const uint32_t* head_s = scratch[kSHead].data();
  const uint32_t* suffix_s = scratch[kSSuffix].data();
  const uint32_t* pos_count_s = scratch[kSPosCount].data();
  const uint32_t* pos_delta_s = scratch[kSPosDelta].data();
  uint32_t depth_max = 0;
  uint32_t pos_count_max = 0;
  uint64_t depth_total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    depth_max = std::max(depth_max, depth_s[i]);
    pos_count_max = std::max(pos_count_max, pos_count_s[i]);
    depth_total += depth_s[i];
  }
  if (depth_max > kMaxDeweyDepth) {
    return Status::Corruption("absurd Dewey depth in posting block");
  }
  // Shared prefixes cost no page bytes, so only this bounds the decoded
  // component array of a damaged page.
  if (depth_total > kMaxPageStreamValues) {
    return Status::Corruption("posting block depth total out of range");
  }
  if (pos_count_max > kMaxPositionsPerPosting) {
    return Status::Corruption("posting position count out of range");
  }

  out->ranks.resize(count);
  std::memcpy(out->ranks.data(), base + off, count * kRankBytes);
  out->id_offsets.resize(count + 1);
  out->components.resize(depth_total);
  out->position_offsets.resize(count + 1);
  out->positions.resize(pos_total);
  uint32_t* comps = out->components.data();
  uint32_t* positions = out->positions.data();
  uint32_t prev_head = 0;
  uint32_t prev_depth = 0;
  size_t suffix_idx = 0;
  size_t comp_idx = 0;
  size_t pos_idx = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t depth = depth_s[i];
    uint32_t lcp = lcp_s[i];
    uint32_t head = prev_head + ZigzagDecode(head_s[i]);
    prev_head = head;
    if (lcp > depth || (i == 0 && lcp != 0)) {
      return Status::Corruption("posting block prefix length out of range");
    }
    if (depth > 0) {
      uint32_t start = std::max(lcp, 1u);
      uint32_t suffix_count = depth - start;
      if (suffix_idx + suffix_count > suffix_total) {
        return Status::Corruption("posting block suffix stream underrun");
      }
      uint32_t* id = comps + comp_idx;
      if (lcp > 0) {
        if (lcp > prev_depth) {
          return Status::Corruption(
              "posting block prefix exceeds previous depth");
        }
        // The previous posting's components end where this id begins.
        std::copy_n(id - prev_depth, lcp, id);
      } else {
        id[0] = head;
      }
      std::copy_n(suffix_s + suffix_idx, suffix_count, id + start);
      suffix_idx += suffix_count;
    }
    comp_idx += depth;
    prev_depth = depth;
    out->id_offsets[i + 1] = static_cast<uint32_t>(comp_idx);

    uint32_t pos_count = pos_count_s[i];
    if (pos_idx + pos_count > pos_total) {
      return Status::Corruption("posting block position stream underrun");
    }
    uint32_t position = 0;
    for (uint32_t j = 0; j < pos_count; ++j) {
      position += pos_delta_s[pos_idx + j];
      positions[pos_idx + j] = position;
    }
    pos_idx += pos_count;
    out->position_offsets[i + 1] = static_cast<uint32_t>(pos_idx);
  }
  if (suffix_idx != suffix_total || pos_idx != pos_total) {
    return Status::Corruption("posting block stream totals inconsistent");
  }
  return Status::OK();
}

class Bp128PostingCodec final : public PostingCodec {
 public:
  uint32_t id() const override { return kPostingCodecBp128; }
  std::string_view name() const override { return "bp128"; }
  std::unique_ptr<PostingPageEncoder> NewEncoder(
      const PostingFormat& format) const override {
    return std::make_unique<BlockPageEncoder>(format);
  }
  Status DecodePage(const storage::Page& page,
                    const PostingFormat& /*format*/,
                    DecodedBlock* out) const override {
    return DecodeBlockPage(page, out);
  }
};

}  // namespace

// --------------------------------------------------------------- registry --

const std::vector<const PostingCodec*>& RegisteredPostingCodecs() {
  static const VarintPostingCodec varint;
  static const Bp128PostingCodec bp128;
  static const std::vector<const PostingCodec*> registry = {&varint, &bp128};
  return registry;
}

const PostingCodec* FindPostingCodec(uint32_t id) {
  for (const PostingCodec* codec : RegisteredPostingCodecs()) {
    if (codec->id() == id) return codec;
  }
  return nullptr;
}

const PostingCodec* FindPostingCodecByName(std::string_view name) {
  for (const PostingCodec* codec : RegisteredPostingCodecs()) {
    if (codec->name() == name) return codec;
  }
  return nullptr;
}

Result<const PostingCodec*> ResolvePostingCodec(
    const PostingFormatSpec& spec) {
  if (spec.codec_id == kRetiredPostingCodecVarintGb) {
    return Status::Corruption(
        "index built with the retired vgb (group-varint) posting codec "
        "(id 2); rebuild it with varint or bp128");
  }
  const PostingCodec* codec = FindPostingCodec(spec.codec_id);
  if (codec == nullptr) {
    return Status::Corruption(
        "index built with unregistered posting codec id " +
        std::to_string(spec.codec_id));
  }
  return codec;
}

Status CheckIdentityOrder(uint64_t reorder_id) {
  if (reorder_id == 0) return Status::OK();
  return Status::Corruption(
      "index built with document reordering (reorder id " +
      std::to_string(reorder_id) +
      "), which is retired; rebuild it in ingest order");
}

Status CheckFloatRanks(uint64_t rank_encoding) {
  if (rank_encoding == 0) return Status::OK();
  return Status::Corruption(
      "index built with retired rank quantization (rank encoding " +
      std::to_string(rank_encoding) + "); rebuild it with float ranks");
}

PostingFormat MakePostingFormat(const PostingCodec* codec,
                                const PostingFormatSpec& spec,
                                bool delta_encode_ids) {
  PostingFormat format;
  format.codec = codec;
  format.delta_encode_ids = delta_encode_ids;
  format.vbmw_lambda_milli = spec.vbmw_lambda_milli;
  return format;
}

PostingFormat DefaultPostingFormat(bool delta_encode_ids) {
  return MakePostingFormat(FindPostingCodec(kPostingCodecVarint), {},
                           delta_encode_ids);
}

}  // namespace xrank::index

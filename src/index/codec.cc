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

Result<Posting> DecodeVarintPosting(std::string_view data, size_t* offset,
                                    const dewey::DeweyId* previous) {
  Posting posting;
  if (previous != nullptr) {
    XRANK_ASSIGN_OR_RETURN(posting.id,
                           dewey::DecodeDeweyIdDelta(*previous, data, offset));
  } else {
    XRANK_ASSIGN_OR_RETURN(posting.id, dewey::DecodeDeweyId(data, offset));
  }
  if (*offset + kRankBytes > data.size()) {
    return Status::Corruption("truncated posting rank");
  }
  std::memcpy(&posting.elem_rank, data.data() + *offset, kRankBytes);
  *offset += kRankBytes;
  XRANK_ASSIGN_OR_RETURN(uint32_t count, GetVarint32(data, offset));
  if (count > kMaxPositionsPerPosting) {
    return Status::Corruption("posting position count out of range");
  }
  posting.positions.reserve(count);
  uint32_t position = 0;
  for (uint32_t i = 0; i < count; ++i) {
    XRANK_ASSIGN_OR_RETURN(uint32_t delta, GetVarint32(data, offset));
    position += delta;
    posting.positions.push_back(position);
  }
  return posting;
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
                    std::vector<Posting>* out) const override {
    uint16_t count = page.ReadU16(0);
    out->clear();
    out->reserve(count);
    size_t offset = kListPageHeaderSize;
    dewey::DeweyId previous;
    for (uint16_t i = 0; i < count; ++i) {
      const dewey::DeweyId* prev =
          (format.delta_encode_ids && i > 0) ? &previous : nullptr;
      XRANK_ASSIGN_OR_RETURN(Posting posting,
                             DecodeVarintPosting(page.view(), &offset, prev));
      previous = posting.id;
      out->push_back(std::move(posting));
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

Status DecodeBlockPage(const storage::Page& page, std::vector<Posting>* out) {
  const uint8_t* base = reinterpret_cast<const uint8_t*>(page.data.data());
  uint32_t count = page.ReadU16(0);
  if (count == 0) {
    out->clear();
    return Status::OK();
  }
  // No clear() before the resize below: surviving slots keep their heap
  // buffers (Dewey components, positions), so a recycled *out makes the
  // whole decode allocation-free once warm.
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

  out->resize(count);
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
  for (uint32_t i = 0; i < count; ++i) {
    depth_max = std::max(depth_max, depth_s[i]);
    pos_count_max = std::max(pos_count_max, pos_count_s[i]);
  }
  if (depth_max > kMaxDeweyDepth) {
    return Status::Corruption("absurd Dewey depth in posting block");
  }
  if (pos_count_max > kMaxPositionsPerPosting) {
    return Status::Corruption("posting position count out of range");
  }
  const uint8_t* rank_base = base + off;
  uint32_t prev_head = 0;
  size_t suffix_idx = 0;
  size_t pos_idx = 0;
  for (uint32_t i = 0; i < count; ++i) {
    Posting& posting = (*out)[i];
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
      const uint32_t* suffix = suffix_s + suffix_idx;
      if (lcp > 0) {
        // The previous posting lives in a different slot of *out, so its
        // component storage never aliases this posting's.
        const std::vector<uint32_t>& prev_comps =
            (*out)[i - 1].id.components();
        if (lcp > prev_comps.size()) {
          return Status::Corruption(
              "posting block prefix exceeds previous depth");
        }
        posting.id.AssignParts(prev_comps.data(), lcp, suffix, suffix_count);
      } else {
        posting.id.AssignParts(&head, 1, suffix, suffix_count);
      }
      suffix_idx += suffix_count;
    } else {
      posting.id.AssignComponents(nullptr, 0);
    }

    uint32_t pos_count = pos_count_s[i];
    if (pos_idx + pos_count > pos_total) {
      return Status::Corruption("posting block position stream underrun");
    }
    posting.positions.resize(pos_count);
    uint32_t position = 0;
    for (uint32_t j = 0; j < pos_count; ++j) {
      position += pos_delta_s[pos_idx + j];
      posting.positions[j] = position;
    }
    pos_idx += pos_count;

    std::memcpy(&posting.elem_rank, rank_base + i * kRankBytes, kRankBytes);
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
                    std::vector<Posting>* out) const override {
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

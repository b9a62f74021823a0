#ifndef XRANK_INDEX_CODEC_H_
#define XRANK_INDEX_CODEC_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "index/posting_types.h"
#include "storage/page.h"

namespace xrank::index {

// ------------------------------------------------------------ format spec --
//
// The build-time knob and on-disk identity of a posting format: which codec
// lays out list pages and how pages are sized. Ranks are always stored as
// raw IEEE-754 floats. Recorded in the index header page and in every
// MANIFEST entry; validated against the registry when an index is opened,
// so an index built with a codec this binary does not know is refused with
// a clean error instead of misdecoded.
struct PostingFormatSpec {
  uint32_t codec_id = 0;  // kPostingCodecVarint

  // VBMW-style variable-sized skip blocks, in milli-rank units of waste.
  // 0 keeps the legacy dense page-filling layout. A positive value lets
  // the writer close a page early once the accumulated block-max waste
  // (sum over buffered postings of page_max - rank) exceeds
  // lambda = vbmw_lambda_milli / 1000, which tightens per-page `max_rank`
  // bounds for block-max pruning at the cost of shorter pages.
  uint32_t vbmw_lambda_milli = 0;

  bool operator==(const PostingFormatSpec& other) const = default;
};

class PostingCodec;

// A spec resolved against the codec registry plus the per-list parameter a
// writer or cursor needs: whether its Dewey IDs are prefix-delta coded
// (Dewey-ordered lists) or independent (rank-ordered lists).
struct PostingFormat {
  const PostingCodec* codec = nullptr;
  bool delta_encode_ids = false;
  uint32_t vbmw_lambda_milli = 0;  // writer-side block sizing; see the spec
};

// ------------------------------------------------------------- interfaces --

// Stateful encoder for one page at a time of a posting list. The writer
// drives it: Add returns true if the posting was appended to the open page
// and false if the page is full (the writer then flushes and retries; a
// retry on an empty page must either succeed or fail the list). Flush
// serializes the open page and resets the encoder, returning the bytes
// used (page header included) for space accounting.
//
// Page-fit must be decided at each Add: RDIL and Naive-Rank record the
// (page, slot) location of every posting at Add time, so codecs may not
// buffer postings and repack them across page boundaries later.
class PostingPageEncoder {
 public:
  virtual ~PostingPageEncoder() = default;

  virtual Result<bool> Add(const PostingView& posting) = 0;
  virtual Result<size_t> Flush(storage::Page* page) = 0;
  virtual uint32_t count() const = 0;
};

// A posting-page layout. Stateless and immortal; instances live in the
// registry and are shared by every writer/cursor using the codec.
class PostingCodec {
 public:
  virtual ~PostingCodec() = default;

  virtual uint32_t id() const = 0;
  virtual std::string_view name() const = 0;

  virtual std::unique_ptr<PostingPageEncoder> NewEncoder(
      const PostingFormat& format) const = 0;

  // Decodes every posting of `page` into *out (replacing its contents;
  // capacity is reused). All failures — truncated streams, absurd counts,
  // bit-flipped headers — surface as Status::Corruption, never a crash or
  // an unbounded allocation (*out is then unspecified).
  virtual Status DecodePage(const storage::Page& page,
                            const PostingFormat& format,
                            DecodedBlock* out) const = 0;
};

// -------------------------------------------------------------- registry --

inline constexpr uint32_t kPostingCodecVarint = 0;  // compatibility baseline
inline constexpr uint32_t kPostingCodecBp128 = 1;   // bit-packed 128-blocks

// Retired format ids stay reserved so files that use them are refused with
// Status::Corruption instead of misread.
//
// Codec id 2 was the group-varint "vgb" codec; ResolvePostingCodec refuses
// it.
inline constexpr uint32_t kRetiredPostingCodecVarintGb = 2;

// Document reordering (recursive graph bisection) recorded a non-zero pass
// id in the index header, in each MANIFEST entry's "reorder" token and in a
// SHARDING "reorder" line. Writers now record ingest order (0, or no
// SHARDING line); any other id is refused.
Status CheckIdentityOrder(uint64_t reorder_id);

// Rank quantization stored 1-byte (encoding 1, q8) or 2-byte (encoding 2,
// q16) ranks scaled per list, recorded at index header offset 68 and in the
// "ranks" token of every MANIFEST entry and segment line. Writers now
// record 0 (float ranks); any other encoding is refused.
Status CheckFloatRanks(uint64_t rank_encoding);

const PostingCodec* FindPostingCodec(uint32_t id);
const PostingCodec* FindPostingCodecByName(std::string_view name);
const std::vector<const PostingCodec*>& RegisteredPostingCodecs();

// Registry lookup with a clean error for unknown or retired codec ids (the
// validation path for manifests and index headers).
Result<const PostingCodec*> ResolvePostingCodec(const PostingFormatSpec& spec);

// The resolved format of one list written or read under `spec`.
PostingFormat MakePostingFormat(const PostingCodec* codec,
                                const PostingFormatSpec& spec,
                                bool delta_encode_ids);

// The legacy layout: varint codec, dense pages.
PostingFormat DefaultPostingFormat(bool delta_encode_ids);

}  // namespace xrank::index

#endif  // XRANK_INDEX_CODEC_H_

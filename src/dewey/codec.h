#ifndef XRANK_DEWEY_CODEC_H_
#define XRANK_DEWEY_CODEC_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "dewey/dewey_id.h"

namespace xrank::dewey {

// On-disk Dewey ID codecs.
//
// Raw form: varint(depth) ++ varint(component)... — each component is the
// *relative* sibling position, so most components fit in one byte (the paper
// relies on this in Section 4.2.1).
//
// Prefix-delta form (used inside Dewey-ordered inverted lists, where adjacent
// IDs share long prefixes): varint(lcp-with-previous) ++ varint(#suffix) ++
// varint(suffix component)....

// Appends the raw encoding of `id` to *out.
void EncodeDeweyId(IdSpan id, std::string* out);

// Number of bytes EncodeDeweyId would append.
size_t EncodedDeweyIdLength(IdSpan id);

// Decodes a raw-encoded ID starting at *offset, advancing *offset.
Result<DeweyId> DecodeDeweyId(std::string_view data, size_t* offset);

// Appends the prefix-delta encoding of `id` relative to `previous` to *out.
void EncodeDeweyIdDelta(IdSpan previous, IdSpan id, std::string* out);

// Number of bytes EncodeDeweyIdDelta would append.
size_t EncodedDeweyIdDeltaLength(IdSpan previous, IdSpan id);

// Decodes a prefix-delta-encoded ID given the previously decoded ID.
Result<DeweyId> DecodeDeweyIdDelta(const DeweyId& previous,
                                   std::string_view data, size_t* offset);

}  // namespace xrank::dewey

#endif  // XRANK_DEWEY_CODEC_H_

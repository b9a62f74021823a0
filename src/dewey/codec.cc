#include "dewey/codec.h"

#include "common/varint.h"

namespace xrank::dewey {

void EncodeDeweyId(IdSpan id, std::string* out) {
  PutVarint32(out, static_cast<uint32_t>(id.size()));
  for (uint32_t c : id) PutVarint32(out, c);
}

size_t EncodedDeweyIdLength(IdSpan id) {
  size_t len = static_cast<size_t>(
      VarintLength32(static_cast<uint32_t>(id.size())));
  for (uint32_t c : id) {
    len += static_cast<size_t>(VarintLength32(c));
  }
  return len;
}

Result<DeweyId> DecodeDeweyId(std::string_view data, size_t* offset) {
  size_t pos = *offset;
  XRANK_ASSIGN_OR_RETURN(uint32_t depth, GetVarint32(data, &pos));
  if (depth > 1u << 20) return Status::Corruption("absurd Dewey depth");
  std::vector<uint32_t> components;
  components.reserve(depth);
  for (uint32_t i = 0; i < depth; ++i) {
    XRANK_ASSIGN_OR_RETURN(uint32_t c, GetVarint32(data, &pos));
    components.push_back(c);
  }
  *offset = pos;
  return DeweyId(std::move(components));
}

void EncodeDeweyIdDelta(IdSpan previous, IdSpan id, std::string* out) {
  size_t lcp = CommonPrefixLength(previous, id);
  PutVarint32(out, static_cast<uint32_t>(lcp));
  PutVarint32(out, static_cast<uint32_t>(id.size() - lcp));
  for (size_t i = lcp; i < id.size(); ++i) {
    PutVarint32(out, id[i]);
  }
}

size_t EncodedDeweyIdDeltaLength(IdSpan previous, IdSpan id) {
  size_t lcp = CommonPrefixLength(previous, id);
  size_t len = static_cast<size_t>(VarintLength32(static_cast<uint32_t>(lcp)));
  len += static_cast<size_t>(
      VarintLength32(static_cast<uint32_t>(id.size() - lcp)));
  for (size_t i = lcp; i < id.size(); ++i) {
    len += static_cast<size_t>(VarintLength32(id[i]));
  }
  return len;
}

Result<DeweyId> DecodeDeweyIdDelta(const DeweyId& previous,
                                   std::string_view data, size_t* offset) {
  size_t pos = *offset;
  XRANK_ASSIGN_OR_RETURN(uint32_t lcp, GetVarint32(data, &pos));
  XRANK_ASSIGN_OR_RETURN(uint32_t suffix_len, GetVarint32(data, &pos));
  if (lcp > previous.depth()) {
    return Status::Corruption("Dewey delta lcp exceeds previous depth");
  }
  std::vector<uint32_t> components(previous.components().begin(),
                                   previous.components().begin() + lcp);
  components.reserve(lcp + suffix_len);
  for (uint32_t i = 0; i < suffix_len; ++i) {
    XRANK_ASSIGN_OR_RETURN(uint32_t c, GetVarint32(data, &pos));
    components.push_back(c);
  }
  *offset = pos;
  return DeweyId(std::move(components));
}

}  // namespace xrank::dewey

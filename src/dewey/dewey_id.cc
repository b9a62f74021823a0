#include "dewey/dewey_id.h"

#include <algorithm>
#include <ostream>

#include "common/check.h"
#include "common/string_util.h"

namespace xrank::dewey {

bool IdLess(IdSpan a, IdSpan b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

size_t CommonPrefixLength(IdSpan a, IdSpan b) {
  size_t limit = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < limit && a[i] == b[i]) ++i;
  return i;
}

bool IsPrefix(IdSpan prefix, IdSpan id) {
  return prefix.size() <= id.size() &&
         std::equal(prefix.begin(), prefix.end(), id.begin());
}

Result<DeweyId> DeweyId::FromString(std::string_view text) {
  if (text.empty()) return DeweyId();
  std::vector<uint32_t> components;
  for (std::string_view piece : SplitString(text, ".")) {
    uint64_t value = 0;
    if (piece.empty() || piece.size() > 10) {
      return Status::InvalidArgument("bad Dewey component: '" +
                                     std::string(text) + "'");
    }
    for (char c : piece) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("bad Dewey component: '" +
                                       std::string(text) + "'");
      }
      value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    if (value > UINT32_MAX) {
      return Status::InvalidArgument("Dewey component overflow in '" +
                                     std::string(text) + "'");
    }
    components.push_back(static_cast<uint32_t>(value));
  }
  return DeweyId(std::move(components));
}

uint32_t DeweyId::document_id() const {
  XRANK_DCHECK(!empty(), "document_id() of empty DeweyId");
  return components_[0];
}

DeweyId DeweyId::Prefix(size_t len) const {
  XRANK_DCHECK(len <= depth(), "Prefix length out of range");
  return DeweyId(
      std::vector<uint32_t>(components_.begin(), components_.begin() + len));
}

DeweyId DeweyId::Parent() const {
  XRANK_DCHECK(!empty(), "Parent() of empty DeweyId");
  return Prefix(depth() - 1);
}

DeweyId DeweyId::Child(uint32_t position) const {
  std::vector<uint32_t> components = components_;
  components.push_back(position);
  return DeweyId(std::move(components));
}

bool DeweyId::IsPrefixOf(const DeweyId& other) const {
  return IsPrefix(components_, other.components_);
}

size_t DeweyId::CommonPrefixLength(const DeweyId& other) const {
  return dewey::CommonPrefixLength(components_, other.components_);
}

std::strong_ordering DeweyId::operator<=>(const DeweyId& other) const {
  size_t limit = std::min(depth(), other.depth());
  for (size_t i = 0; i < limit; ++i) {
    if (components_[i] != other.components_[i]) {
      return components_[i] <=> other.components_[i];
    }
  }
  return depth() <=> other.depth();
}

std::string DeweyId::ToString() const {
  std::string out;
  for (size_t i = 0; i < components_.size(); ++i) {
    if (i > 0) out.push_back('.');
    out += std::to_string(components_[i]);
  }
  return out;
}

size_t DeweyId::Hash() const {
  // FNV-1a over the component words.
  uint64_t h = 0xCBF29CE484222325ULL;
  for (uint32_t c : components_) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return static_cast<size_t>(h);
}

std::ostream& operator<<(std::ostream& os, const DeweyId& id) {
  return os << id.ToString();
}

}  // namespace xrank::dewey

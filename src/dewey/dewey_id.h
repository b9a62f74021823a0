#ifndef XRANK_DEWEY_DEWEY_ID_H_
#define XRANK_DEWEY_DEWEY_ID_H_

#include <compare>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace xrank::dewey {

// The components of a Dewey ID, borrowed: a DeweyId's own vector or the
// component array of a decoded posting page (index::PostingView).
using IdSpan = std::span<const uint32_t>;

// DeweyId's order and prefix relations over borrowed components, so the
// query path compares decoded postings without building DeweyIds.
bool IdLess(IdSpan a, IdSpan b);
size_t CommonPrefixLength(IdSpan a, IdSpan b);
bool IsPrefix(IdSpan prefix, IdSpan id);

// A Dewey ID identifies an XML element by the path of sibling positions from
// the document root (paper Section 4.2, Figure 3). By convention the first
// component is the document id, so IDs are unique across a collection and
// document-granularity deletion can filter on the first component (paper
// Section 4.5).
//
// Key property: the ID of an ancestor is a prefix of the ID of a descendant,
// so ancestor/descendant relationships are implicit and the deepest common
// ancestor of two elements is their longest common prefix.
class DeweyId {
 public:
  DeweyId() = default;
  explicit DeweyId(std::vector<uint32_t> components)
      : components_(std::move(components)) {}
  DeweyId(std::initializer_list<uint32_t> components)
      : components_(components) {}

  // Parses "5.0.3.0" style strings (as printed by ToString).
  static Result<DeweyId> FromString(std::string_view text);

  explicit DeweyId(IdSpan components)
      : components_(components.begin(), components.end()) {}

  const std::vector<uint32_t>& components() const { return components_; }
  // Borrows the components, as std::string converts to std::string_view.
  operator IdSpan() const { return components_; }  // NOLINT

  // Replaces the components in place, reusing the vector's capacity (the
  // top-k accumulator recycles the ids of the entries it drops).
  // `components` must not alias this ID's own storage.
  void AssignComponents(IdSpan components) {
    components_.assign(components.begin(), components.end());
  }

  size_t depth() const { return components_.size(); }
  bool empty() const { return components_.empty(); }
  uint32_t component(size_t i) const { return components_[i]; }

  // Document id = first component. Requires !empty().
  uint32_t document_id() const;

  // The ID truncated to its first `len` components. len <= depth().
  DeweyId Prefix(size_t len) const;

  // Parent element's ID. Requires depth() >= 1; the parent of a root ("d")
  // is the empty ID.
  DeweyId Parent() const;

  // This ID extended with one more component.
  DeweyId Child(uint32_t position) const;

  // True if *this is a (not necessarily proper) prefix of `other`, i.e.
  // *this identifies `other` or one of its ancestors.
  bool IsPrefixOf(const DeweyId& other) const;

  // Number of leading components shared with `other` — the depth of the
  // deepest common ancestor.
  size_t CommonPrefixLength(const DeweyId& other) const;

  // Lexicographic comparison; this is document order within a document and
  // document-id order across documents.
  std::strong_ordering operator<=>(const DeweyId& other) const;
  bool operator==(const DeweyId& other) const = default;

  // "5.0.3.0"; the empty ID prints as "".
  std::string ToString() const;

  // For hash containers.
  size_t Hash() const;

 private:
  std::vector<uint32_t> components_;
};

struct DeweyIdHash {
  size_t operator()(const DeweyId& id) const { return id.Hash(); }
};

std::ostream& operator<<(std::ostream& os, const DeweyId& id);

}  // namespace xrank::dewey

#endif  // XRANK_DEWEY_DEWEY_ID_H_

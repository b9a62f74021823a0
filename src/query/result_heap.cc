#include "query/result_heap.h"

#include <algorithm>
#include <limits>

namespace xrank::query {

void TopKAccumulator::Add(dewey::IdSpan id, double rank) {
  if (m_ == 0) return;
  // Not better than the m-th best: nothing changes. Were the id kept, its
  // rank there would already be at least the m-th best's.
  if (entries_.size() == m_ &&
      !RankOrder(rank, id, entries_.back().rank,
                 entries_.back().id.components())) {
    return;
  }
  auto held = std::find_if(entries_.begin(), entries_.end(),
                           [&](const Entry& entry) {
                             return std::ranges::equal(entry.id.components(),
                                                       id);
                           });
  if (held != entries_.end()) {
    if (rank <= held->rank) return;
    held->rank = rank;
  } else {
    // The new entry takes the back slot: a fresh one, or the m-th best's,
    // whose id storage it reuses.
    if (entries_.size() < m_) entries_.emplace_back();
    held = entries_.end() - 1;
    held->id.AssignComponents(id);
    held->rank = rank;
  }
  // Move the entry forward to its place; the ones before it stay sorted.
  auto place = std::partition_point(
      entries_.begin(), held, [&](const Entry& entry) {
        return RankOrder(entry.rank, entry.id.components(), held->rank,
                         held->id.components());
      });
  std::rotate(place, held, held + 1);
  if (shared_ != nullptr) shared_->Raise(LocalKthRank());
}

size_t TopKAccumulator::CountAtLeast(double threshold) const {
  size_t count = 0;
  while (count < entries_.size() && entries_[count].rank >= threshold) {
    ++count;
  }
  return count;
}

double TopKAccumulator::LocalKthRank() const {
  if (m_ == 0 || entries_.size() < m_) {
    return -std::numeric_limits<double>::infinity();
  }
  return entries_.back().rank;
}

double TopKAccumulator::KthRank() const {
  double theta = LocalKthRank();
  if (shared_ != nullptr) {
    double floor = shared_->Get();
    if (floor > theta) theta = floor;
  }
  return theta;
}

std::vector<RankedResult> TopKAccumulator::TakeTop() const {
  std::vector<RankedResult> results;
  results.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    results.push_back(RankedResult{entry.id, entry.rank});
  }
  return results;
}

}  // namespace xrank::query

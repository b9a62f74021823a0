#include "query/result_heap.h"

#include <algorithm>
#include <iterator>
#include <limits>

namespace xrank::query {

void TopKAccumulator::Add(const dewey::DeweyId& id, double rank) {
  auto [it, inserted] = ranks_by_id_.emplace(id, rank);
  if (!inserted) {
    if (rank <= it->second) return;
    // A candidate among the m best leaves its old rank's place to the new
    // one; the others compete like a new candidate.
    auto held = top_ranks_.find(it->second);
    if (held != top_ranks_.end()) top_ranks_.erase(held);
    it->second = rank;
  }
  OfferRank(rank);
  if (shared_ != nullptr) shared_->Raise(LocalKthRank());
}

void TopKAccumulator::OfferRank(double rank) {
  if (top_ranks_.size() < m_) {
    top_ranks_.insert(rank);
  } else if (m_ > 0 && rank > *top_ranks_.rbegin()) {
    top_ranks_.erase(std::prev(top_ranks_.end()));
    top_ranks_.insert(rank);
  }
}

size_t TopKAccumulator::CountAtLeast(double threshold) const {
  size_t count = 0;
  for (double rank : top_ranks_) {
    if (rank < threshold) break;
    ++count;
  }
  return count;
}

double TopKAccumulator::LocalKthRank() const {
  if (m_ == 0 || top_ranks_.size() < m_) {
    return -std::numeric_limits<double>::infinity();
  }
  return *top_ranks_.rbegin();
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
  results.reserve(ranks_by_id_.size());
  for (const auto& [id, rank] : ranks_by_id_) {
    results.push_back(RankedResult{id, rank});
  }
  std::sort(results.begin(), results.end(),
            [](const RankedResult& a, const RankedResult& b) {
              return RankOrder(a.rank, a.id, b.rank, b.id);
            });
  if (results.size() > m_) results.resize(m_);
  return results;
}

}  // namespace xrank::query

#include "query/result_heap.h"

#include <algorithm>
#include <limits>

namespace xrank::query {

bool TopKAccumulator::Add(const dewey::DeweyId& id, double rank) {
  seen_[id] = true;
  auto [it, inserted] = ranks_by_id_.emplace(id, rank);
  if (inserted) {
    ranks_desc_.insert(rank);
    if (shared_ != nullptr) shared_->Raise(LocalKthRank());
    return true;
  }
  if (rank > it->second) {
    ranks_desc_.erase(ranks_desc_.find(it->second));
    ranks_desc_.insert(rank);
    it->second = rank;
    if (shared_ != nullptr) shared_->Raise(LocalKthRank());
  }
  return false;
}

void TopKAccumulator::MarkSeen(const dewey::DeweyId& id) { seen_[id] = true; }

bool TopKAccumulator::Contains(const dewey::DeweyId& id) const {
  return seen_.find(id) != seen_.end();
}

size_t TopKAccumulator::CountAtLeast(double threshold) const {
  size_t count = 0;
  for (double rank : ranks_desc_) {
    if (rank < threshold || count >= m_) break;
    ++count;
  }
  return count;
}

double TopKAccumulator::LocalKthRank() const {
  if (m_ == 0 || ranks_desc_.size() < m_) {
    return -std::numeric_limits<double>::infinity();
  }
  auto it = ranks_desc_.begin();
  std::advance(it, m_ - 1);
  return *it;
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

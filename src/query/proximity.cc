#include "query/proximity.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace xrank::query {

uint32_t MinimalWindowSize(
    std::span<const std::span<const uint32_t>> position_lists) {
  if (position_lists.empty()) return 0;
  for (const auto& list : position_lists) {
    if (list.empty()) return 0;
  }
  // One list: any single position is a window of one word.
  if (position_lists.size() == 1) return 1;
  // Merge all positions into (position, list) events and slide a window
  // that keeps at least one event per list. The buffers are reused: every
  // multi-keyword candidate of a merge comes through here.
  thread_local std::vector<std::pair<uint32_t, uint32_t>> events;
  thread_local std::vector<uint32_t> counts;
  events.clear();
  for (uint32_t k = 0; k < position_lists.size(); ++k) {
    for (uint32_t pos : position_lists[k]) events.emplace_back(pos, k);
  }
  std::sort(events.begin(), events.end());

  counts.assign(position_lists.size(), 0);
  size_t covered = 0;
  size_t left = 0;
  uint32_t best = UINT32_MAX;
  for (size_t right = 0; right < events.size(); ++right) {
    if (counts[events[right].second]++ == 0) ++covered;
    while (covered == position_lists.size()) {
      best = std::min(best, events[right].first - events[left].first + 1);
      if (--counts[events[left].second] == 0) --covered;
      ++left;
    }
  }
  return best == UINT32_MAX ? 0 : best;
}

double ProximityFromWindow(ProximityMode mode, uint32_t window,
                           size_t num_keywords) {
  if (mode == ProximityMode::kAlwaysOne) return 1.0;
  if (window == 0) return 0.0;
  // n adjacent keywords occupy a window of exactly n words; normalize so
  // that the tightest possible packing scores 1.
  double tightest = static_cast<double>(std::max<size_t>(num_keywords, 1));
  return std::min(1.0, tightest / static_cast<double>(window));
}

}  // namespace xrank::query

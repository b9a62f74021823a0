#include "query/scoring.h"

#include <algorithm>

namespace xrank::query {

double AggregateRank(RankAggregation aggregation, double existing,
                     double incoming) {
  switch (aggregation) {
    case RankAggregation::kMax:
      return std::max(existing, incoming);
    case RankAggregation::kSum:
      return existing + incoming;
  }
  return existing;
}

double CombineRanks(std::span<const double> keyword_ranks, double proximity) {
  double sum = 0.0;
  for (double r : keyword_ranks) sum += r;
  return sum * proximity;
}

bool SupportsScorePruning(const ScoringOptions& options) {
  return options.decay <= 1.0;
}

bool SupportsBlockMaxBounds(const ScoringOptions& options) {
  return options.aggregation == RankAggregation::kMax && options.decay <= 1.0;
}

}  // namespace xrank::query

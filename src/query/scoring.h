#ifndef XRANK_QUERY_SCORING_H_
#define XRANK_QUERY_SCORING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "dewey/dewey_id.h"

namespace xrank::query {

// Conjunctive (all keywords; the paper's focus) vs disjunctive (at least
// one keyword) result semantics, Section 2.2. Disjunctive evaluation is
// supported by the DIL processor; the rank-ordered processors implement
// only the conjunctive threshold algorithm, as in the paper.
enum class QuerySemantics { kConjunctive, kDisjunctive };

// f in r̂(v,k) = f(r_1, ..., r_m) — how ranks of multiple relevant
// occurrences of one keyword combine (paper Section 2.3.2.1; max is the
// paper's default, sum is the documented alternative).
enum class RankAggregation { kMax, kSum };

// p(v, k_1..k_n) in the overall rank (paper Section 2.3.2.2): reciprocal of
// the smallest text window containing all keywords, or the constant 1 for
// highly structured data where keyword distance is uninformative.
enum class ProximityMode { kReciprocalWindow, kAlwaysOne };

struct ScoringOptions {
  QuerySemantics semantics = QuerySemantics::kConjunctive;
  // Per-level decay of specificity (paper Section 2.3.2.1; in (0, 1]).
  double decay = 0.80;
  RankAggregation aggregation = RankAggregation::kMax;
  ProximityMode proximity = ProximityMode::kReciprocalWindow;
};

// One query result candidate, as the Dewey-stack merge hands it to its
// callback: views into the merger's stack, valid during the call only.
struct CandidateView {
  dewey::IdSpan id;
  double overall_rank = 0.0;
  std::span<const double> keyword_ranks;  // r̂(v, k_i), decayed, aggregated
  uint32_t window = 0;                    // smallest covering window (words)
};

struct RankedResult {
  dewey::DeweyId id;
  double rank = 0.0;
};

// f(existing, incoming) per the aggregation mode. `existing` of 0 means "no
// occurrence yet".
double AggregateRank(RankAggregation aggregation, double existing,
                     double incoming);

// Soundness of the pruning bounds of the DIL merges (query/dil_merge.h).
// Every bound covers one document's elements under either semantics: it
// never assumes that a missing keyword zeroes the score. See DESIGN.md
// sections 11 and 13.
//
// SupportsScorePruning: list-level upper bounds exist for *both*
// aggregations — max over the per-page block maxima under max aggregation,
// the serialized per-term TermInfo::max_doc_rank (largest per-document
// rank sum) under sum aggregation. Only decay <= 1 is required, so
// every decay power and the proximity factor shrink the score.
bool SupportsScorePruning(const ScoringOptions& options);

// SupportsBlockMaxBounds: per-page maxima bound an element's keyword rank
// only under max aggregation (under sum, N in-page occurrences can exceed
// any single block maximum) and decay <= 1, so every decay^(t-1) factor
// and the proximity factor (always <= 1) only shrink the score. Gates the
// conjunctive merge's block-max pruning, BMW and the block-level
// tightening inside MaxScore; when false, the conjunctive merge only skips
// documents missing a keyword, and BMW degrades to MaxScore, which then
// uses list-level bounds only.
bool SupportsBlockMaxBounds(const ScoringOptions& options);

// Overall rank = Σ keyword ranks × proximity (paper Section 2.3.2.2).
double CombineRanks(std::span<const double> keyword_ranks, double proximity);

}  // namespace xrank::query

#endif  // XRANK_QUERY_SCORING_H_

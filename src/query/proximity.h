#ifndef XRANK_QUERY_PROXIMITY_H_
#define XRANK_QUERY_PROXIMITY_H_

#include <cstdint>
#include <span>

#include "query/scoring.h"

namespace xrank::query {

// Smallest text window (in words, inclusive) containing at least one
// position from every list. Lists need not be sorted; empty input or any
// empty list yields 0 (meaning "no window exists").
//
// This is the keyword-distance dimension of the paper's two-dimensional
// proximity metric (Section 2.3.2.2); positions are document-global word
// offsets, so a window can span sibling elements of the result element.
uint32_t MinimalWindowSize(
    std::span<const std::span<const uint32_t>> position_lists);

// Maps a window size to the proximity factor in [0, 1]. A window of w words
// covering n keywords at minimal physical distance (adjacent keywords,
// w == n) gets proximity 1; wider windows decay as (n)/w. Window 0 (no
// window) yields proximity 0.
double ProximityFromWindow(ProximityMode mode, uint32_t window,
                           size_t num_keywords);

}  // namespace xrank::query

#endif  // XRANK_QUERY_PROXIMITY_H_

#ifndef XRANK_INDEX_NAIVE_INDEX_H_
#define XRANK_INDEX_NAIVE_INDEX_H_

#include <memory>
#include <optional>

#include "index/index_builder.h"
#include "storage/buffer_pool.h"

namespace xrank::index {

// The two baselines of paper Section 4.1 / 5.1. Both store postings at
// element granularity with every ancestor replicated; posting IDs are
// single-component Dewey IDs carrying the element's global preorder ordinal.
// Like the other kinds they are built on term shards (see BuildIndexFile);
// the output file is byte-identical for every thread count.

// Naive-ID: lists sorted by element ID; queries use an equality merge join.
Result<BuiltIndex> BuildNaiveIdIndex(const TermPostingsMap& naive_postings,
                                     std::unique_ptr<storage::PageFile> file,
                                     const BuildOptions& build = {});

// Naive-Rank: lists sorted by descending ElemRank, plus an on-disk hash
// index on the element ID for the Threshold Algorithm's random probes.
Result<BuiltIndex> BuildNaiveRankIndex(const TermPostingsMap& naive_postings,
                                       std::unique_ptr<storage::PageFile> file,
                                       const BuildOptions& build = {});

// Probes a term's hash index: returns the location of the element's posting
// in the rank-ordered list, or nullopt. Page reads go through `pool`.
Result<std::optional<PostingLocation>> HashIndexLookup(
    storage::BufferPool* pool, const TermInfo& info, uint32_t element_ordinal);

}  // namespace xrank::index

#endif  // XRANK_INDEX_NAIVE_INDEX_H_

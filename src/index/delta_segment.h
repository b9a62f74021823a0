#ifndef XRANK_INDEX_DELTA_SEGMENT_H_
#define XRANK_INDEX_DELTA_SEGMENT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "index/index_builder.h"
#include "index/manifest.h"
#include "rank/elem_rank.h"
#include "storage/buffer_pool.h"
#include "storage/cost_model.h"
#include "storage/wal.h"

namespace xrank::index {

// Configuration shared by every live segment an engine builds or reopens.
// Mirrors the engine options that shape the base index, so a segment's
// postings are extracted and encoded exactly like the base corpus's.
struct LiveSegmentOptions {
  graph::BuilderOptions graph;
  rank::ElemRankOptions elem_rank;
  ExtractionOptions extraction;
  BuildOptions build;
  storage::CostModelOptions cost;
};

// One segment of the live-update path (LSM-style index maintenance): a
// self-contained DIL index over the documents added after the base build.
// The in-memory mutable delta and the immutable flushed segments share this
// representation — the only difference is whether `built.file` is an
// in-memory page file (delta) or a committed on-disk one (flushed).
//
// Document ids are local (the first Dewey component of every id in `graph`
// and in query results is the segment-local index 0..doc_count-1); the
// engine rebases them by `doc_base` into the global document-id space that
// continues past the base corpus.
//
// Ranking: every document's ElemRank is computed over that document's graph
// ALONE (per-document ElemRank), not over the growing collection. This is
// the approximation that makes live updates cheap and — more importantly —
// makes query results invariant under regrouping: flushing the delta into a
// segment or merging segments in a compaction cannot change any element's
// rank, because no rank ever depended on which segment its document lives
// in. The price is that inter-document link endorsements and the global
// 1/N normalization are ignored for live-added documents; an offline full
// rebuild (XRankEngine::Build over the complete corpus) restores exact
// global ElemRanks.
//
// A LiveSegment is immutable after construction; the engine publishes it
// behind shared_ptr snapshots, so queries pin whole segment sets by
// refcount and never observe a partially swapped state.
struct LiveSegment {
  // The kAddDocument WAL records this segment covers, in seq order; local
  // document i is sources[i].
  std::vector<storage::LogRecord> sources;
  graph::XmlGraph graph;            // local document ids 0..doc_count-1
  std::vector<double> elem_ranks;   // per-document ElemRank, concatenated
  BuiltIndex built;                 // always IndexKind::kDil
  std::unique_ptr<storage::CostModel> cost_model;
  std::unique_ptr<storage::BufferPool> pool;
  uint32_t doc_base = 0;   // global id of local document 0
  uint64_t first_seq = 0;  // WAL seq range covered, inclusive
  uint64_t last_seq = 0;

  uint32_t doc_count() const {
    return static_cast<uint32_t>(sources.size());
  }
  // Local index of the document with this URI, if present.
  std::optional<uint32_t> FindUri(std::string_view uri) const;
};

// Builds a segment over `sources` (kAddDocument records in ascending seq
// order, each body a complete XML document). `file` receives the DIL index:
// an in-memory page file for the mutable delta, an on-disk `.tmp` file for
// a flush. Parses every body, computes per-document ElemRanks, verifies
// that the combined graph's node numbering aligns with the concatenated
// per-document rank vectors, and encodes the postings.
Result<std::shared_ptr<LiveSegment>> BuildLiveSegment(
    std::vector<storage::LogRecord> sources, uint32_t doc_base,
    const LiveSegmentOptions& options,
    std::unique_ptr<storage::PageFile> file);

// Reopens a flushed segment committed in the MANIFEST: reads the `.docs`
// source log (refusing any damage — a committed docs file never has a legal
// torn tail), re-derives the graph and per-document ranks in memory, and
// opens the committed index page file as-is. Both files are checksummed
// against the manifest entry first.
Result<std::shared_ptr<LiveSegment>> OpenLiveSegment(
    const std::string& dir, const SegmentManifestEntry& entry,
    const LiveSegmentOptions& options);

}  // namespace xrank::index

#endif  // XRANK_INDEX_DELTA_SEGMENT_H_

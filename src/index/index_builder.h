#ifndef XRANK_INDEX_INDEX_BUILDER_H_
#define XRANK_INDEX_INDEX_BUILDER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "index/analyzer.h"
#include "index/codec.h"
#include "index/lexicon.h"
#include "index/posting.h"
#include "storage/btree.h"
#include "storage/page_file.h"

namespace xrank::index {

// term -> postings, in the order the physical list will store them.
using TermPostingsMap = std::map<std::string, std::vector<Posting>>;

// The five physical index organizations evaluated in the paper (Section 5).
enum class IndexKind : uint8_t {
  kNaiveId = 1,   // element-granularity postings (ancestors replicated),
                  // ID order, equality merge join
  kNaiveRank = 2, // same postings, rank order + hash index on element ID
  kDil = 3,       // Dewey inverted list, Dewey order (Section 4.2)
  kRdil = 4,      // rank order + dense B+-tree on Dewey ID (Section 4.3)
  kHdil = 5,      // Dewey-ordered list reused as B+-tree leaf level +
                  // rank-ordered prefix (Section 4.4)
};

std::string_view IndexKindName(IndexKind kind);

// Whether `kind` is built from ExtractionResult::naive_postings (the two
// naive baselines) rather than from the Dewey postings.
bool UsesNaivePostings(IndexKind kind);

struct ExtractionOptions {
  AnalyzerOptions analyzer;
  // Also produce element-granularity postings with replicated ancestors
  // (required by the two naive baselines; skip to save memory).
  bool build_naive = true;
  // Document indexes to skip entirely. Used by document-granularity
  // deletion (paper Section 4.5): a compaction re-extracts postings with
  // the deleted documents masked out and rebuilds the physical indexes.
  std::vector<uint32_t> exclude_documents;
  // Worker threads for tokenization (documents are partitioned across
  // workers and the per-shard results merged in document order, so the
  // output is identical for every thread count). 0 = hardware concurrency,
  // 1 = sequential.
  int num_threads = 0;
};

// Options shared by the builders of all five index kinds. Terms are
// partitioned into contiguous shards; each worker encodes its shard's
// complete posting-list page runs into scratch page files, and the
// coordinator splices the scratch pages back in term order — so the on-disk
// bytes are identical for every thread count (see BuildIndexFile).
struct BuildOptions {
  // 0 = hardware concurrency, 1 = one shard encoded inline; negative is
  // refused with InvalidArgument.
  int num_threads = 0;
  // Posting-page codec and page sizing for every list the build writes.
  // Recorded in the index header page and the MANIFEST; validated against
  // the codec registry at open. Default: the varint compatibility baseline
  // with dense pages (byte-identical to pre-codec indexes).
  PostingFormatSpec format;
};

// Output of the shared posting-extraction pass over the graph.
struct ExtractionResult {
  // Per term, postings of elements that DIRECTLY contain the term, in Dewey
  // order. Input to DIL / RDIL / HDIL builders.
  TermPostingsMap dewey_postings;
  // Per term, postings at element granularity with every ancestor
  // replicated (the naive adaptation of Section 4.1). Posting IDs are
  // single-component Dewey IDs holding the element's global preorder
  // ordinal. Input to the naive builders.
  TermPostingsMap naive_postings;
  // Maps element ordinals back to real Dewey IDs (naive result decoding).
  std::vector<dewey::DeweyId> ordinal_to_dewey;
  uint64_t element_count = 0;
  uint64_t direct_occurrence_count = 0;  // (term, element) pairs
};

// Walks the graph in document order, tokenizes all value text with
// document-global positions, and attaches each element's ElemRank
// (elem_ranks is indexed by NodeId, as produced by rank::ComputeElemRank).
Result<ExtractionResult> ExtractPostings(const graph::XmlGraph& graph,
                                         const std::vector<double>& elem_ranks,
                                         const ExtractionOptions& options);

// Size accounting for Table 1. Bytes = pages * kPageSize, i.e. the physical
// footprint of each structure.
struct IndexStats {
  uint64_t list_pages = 0;      // inverted-list pages (incl. HDIL rank prefix)
  uint64_t index_pages = 0;     // auxiliary pages: B+-trees, hash indexes
  uint64_t lexicon_pages = 0;
  uint64_t entry_count = 0;     // total postings across all lists
  // Encoded list bytes actually used; the page figures additionally count
  // the per-list trailing-page padding (each term's list starts on a fresh
  // page so sequential scans stay contiguous).
  uint64_t list_used_bytes = 0;

  uint64_t list_bytes() const { return list_used_bytes; }
  uint64_t list_file_bytes() const { return list_pages * storage::kPageSize; }
  uint64_t index_bytes() const { return index_pages * storage::kPageSize; }
};

// A finished physical index: one page file plus its in-memory lexicon.
struct BuiltIndex {
  IndexKind kind = IndexKind::kDil;
  std::unique_ptr<storage::PageFile> file;
  Lexicon lexicon;
  IndexStats stats;
};

// Re-opens a previously built index file of any kind.
Result<BuiltIndex> OpenIndex(std::unique_ptr<storage::PageFile> file);

// --- the build scaffold behind the five Build*Index functions ---

// (posting, value) pairs a term encoder stages for its term's auxiliary
// structure, keyed by the posting's ID: B+-tree entries (Dewey ID -> list
// location or page index) or hash entries (ordinal ID -> list location).
// The postings are the build's input, which outlives every stage. Values
// never hold absolute page ids, so they need no rebasing after the splice.
using AuxEntries = std::vector<std::pair<const Posting*, uint64_t>>;

// One term's output of a TermEncoder.
struct EncodedTerm {
  // `list` and `rank_list` are relative to the shard's scratch files (the
  // scaffold rebases them); skips and max_doc_rank are set by the kinds
  // that record them.
  TermInfo info;
  AuxEntries aux;
};

// Where a term encoder writes: its shard's scratch files, one for the
// `list` runs and one for the `rank_list` runs, and the index's two list
// formats.
struct TermSink {
  storage::PageFile* lists;
  storage::PageFile* rank_lists;
  PostingFormat dewey_format;  // prefix-delta coded IDs (Dewey order)
  PostingFormat raw_format;    // independent IDs
};

// Encodes one term's lists. Runs on a worker thread.
using TermEncoder = std::function<Status(
    const std::vector<Posting>& postings, const TermSink& sink,
    EncodedTerm* out)>;

// Writes one term's auxiliary structure from its staged entries and records
// where in `info`. Runs on the coordinator, in term order.
using AuxWriter = std::function<Status(
    storage::PageFile* file, storage::SharedPagePacker* packer,
    const AuxEntries& entries, TermInfo* info)>;

// Builds an index file of `kind`: stamps the format, allocates the header
// page, encodes the terms on contiguous shards balanced by posting count
// (one ThreadPool of build.num_threads), splices every shard's `list` runs
// and then every shard's `rank_list` runs in term order, writes each term's
// auxiliary structure through one SharedPagePacker (when `write_aux` is
// set) and writes the trailer. The file bytes do not depend on the thread
// count.
Result<BuiltIndex> BuildIndexFile(IndexKind kind,
                                  const TermPostingsMap& postings,
                                  std::unique_ptr<storage::PageFile> file,
                                  const BuildOptions& build,
                                  const TermEncoder& encode,
                                  const AuxWriter& write_aux = nullptr);

// The Dewey-ordered list of DIL and HDIL, with skips and max_doc_rank. With
// `stage_separators`, also stages each page's (first ID, page index): the
// entries of HDIL's sparse B+-tree.
Status EncodeDeweyList(const std::vector<Posting>& postings,
                       const TermSink& sink, bool stage_separators,
                       EncodedTerm* out);

// The rank-ordered list of RDIL and Naive-Rank, staging each posting's
// (ID, location) in list order.
Status EncodeRankList(const std::vector<Posting>& postings,
                      const TermSink& sink, EncodedTerm* out);

// The B+-tree of RDIL and HDIL over `entries` (strictly increasing keys);
// short trees share pages through `packer` (Section 4.3.1).
Status WriteBtree(storage::PageFile* file, storage::SharedPagePacker* packer,
                  const AuxEntries& entries, TermInfo* info);

// Splits `count` items into at most `num_shards` contiguous [begin, end)
// ranges, balanced by the per-item weights (each shard is one worker's
// unit of work, so balance matters more than an exact shard count).
std::vector<std::pair<size_t, size_t>> PartitionByWeight(
    const std::vector<uint64_t>& weights, size_t num_shards);

}  // namespace xrank::index

#endif  // XRANK_INDEX_INDEX_BUILDER_H_

#ifndef XRANK_CORE_ENGINE_H_
#define XRANK_CORE_ENGINE_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "graph/builder.h"
#include "query/trace.h"
#include "graph/graph.h"
#include "index/block_cache.h"
#include "index/delta_segment.h"
#include "index/hdil_index.h"
#include "index/index_builder.h"
#include "index/manifest.h"
#include "query/query.h"
#include "rank/elem_rank.h"
#include "storage/buffer_pool.h"
#include "storage/cost_model.h"
#include "storage/wal.h"
#include "xml/node.h"

namespace xrank::core {

class ResultCache;

// End-to-end configuration of an XRANK instance, mirroring Figure 2 of the
// paper: ElemRank computation -> index construction -> query evaluation.
struct EngineOptions {
  graph::BuilderOptions graph;
  rank::ElemRankOptions elem_rank;
  // Non-empty: skip the ElemRank power iteration and use these ranks, one
  // entry per graph node in node-id order (refused if the size disagrees
  // with the built graph). The shard router computes ElemRank once over
  // the *global* graph — the kFinal formula's random-jump mass depends on
  // the corpus-wide document count, so per-shard recomputation would not
  // match a monolithic build — and hands each shard its slice: graph nodes
  // are created document-by-document, so a contiguous document range owns
  // a contiguous node range and shard-local node ids are global ids minus
  // the shard's first node.
  std::vector<double> precomputed_elem_ranks;
  index::ExtractionOptions extraction;
  index::HdilOptions hdil;
  query::ScoringOptions scoring;

  // Which physical indexes to build. HDIL is the paper's recommended
  // structure and the engine default.
  std::vector<index::IndexKind> indexes = {index::IndexKind::kHdil};

  // Worker threads for index construction (list encoding is sharded by
  // term; the on-disk bytes are identical for every thread count).
  index::BuildOptions build;

  // Non-empty: back index files with real files under this directory;
  // empty: in-memory page files.
  std::string disk_dir;

  // Shared buffer pool capacity per index, in pages.
  size_t buffer_pool_pages = 4096;
  // Start each query with a cold cache (the paper's experimental setup):
  // the shared pool is dropped at each query start instead of allocating a
  // private pool per query.
  bool cold_cache_per_query = true;
  storage::CostModelOptions cost;

  // Capacity of the engine-level top-k result cache, in entries across all
  // index kinds (0 disables it). Keys embed the engine's content version,
  // so AddDocument/DeleteDocument invalidate prior entries by construction
  // while flushes and compactions keep every hit warm.
  size_t result_cache_entries = 256;

  // Byte budget of the decoded posting-block cache shared by all index
  // kinds (0 disables it). Entries are keyed by (page file id, page id), so
  // one cache safely serves every index file — including the live-update
  // segments; a flush or compaction evicts only the retired segment's
  // entries. Dropped at query start in cold_cache_per_query mode (the
  // paper's cold-cache setup must not serve pre-decoded pages).
  size_t block_cache_bytes = 8u << 20;

  // Engine-wide default per-query limits (deadline, cancellation, partial
  // results — see query::QueryOptions); overridable per call through the
  // Query/QueryKeywords overloads.
  query::QueryOptions query;

  // Queries at least this slow (end-to-end wall-clock, milliseconds) are
  // recorded with their full trace — per-stage spans and per-term counters
  // — into a ring buffer of the last `slow_query_log_entries` offenders
  // (XRankEngine::slow_queries). When the caller did not attach its own
  // trace, the engine traces such queries internally, so the log always has
  // a breakdown. 0 disables the log; a negative threshold logs every query
  // (deterministic test hook).
  int64_t slow_query_ms = 0;
  size_t slow_query_log_entries = 64;

  // Non-empty: only elements with these tags may be returned (the
  // "answer node" mechanism of Section 2.2); a result is mapped to its
  // nearest ancestor-or-self answer node. Empty: all elements qualify.
  std::vector<std::string> answer_node_tags;

  // --- live updates (AddDocument / background flush + compaction) ---

  // Hard bound on the in-memory mutable delta: once it holds this many
  // documents, AddDocument blocks (backpressure — slow, never fail) until a
  // flush drains it. The wait is surfaced in update.backpressure_us.
  size_t max_delta_documents = 8;
  // Delta size that schedules a background flush (<= max_delta_documents).
  size_t flush_delta_documents = 4;
  // Number of flushed segments that schedules a background merge
  // compaction (0 disables automatic compaction).
  size_t compact_segment_count = 4;
  // Run flush/compaction on a background maintenance thread (started
  // lazily by the first AddDocument). Off: maintenance runs inline — an
  // AddDocument that fills the delta flushes it synchronously, and
  // Flush()/CompactSegments() remain available to callers.
  bool background_maintenance = true;
};

// A query result decoded back to the document structure.
struct EngineResult {
  dewey::DeweyId id;
  double rank = 0.0;
  std::string element_tag;   // tag of the result element
  std::string document_uri;
  std::string snippet;       // leading text of the element's subtree
};

struct EngineResponse {
  std::vector<EngineResult> results;
  query::QueryStats stats;
};

// Tokenizes free query text into keywords, as XRankEngine::Query and
// ShardRouter::Query do, under a "parse" span of `trace` (may be null).
// InvalidArgument when the text holds no keyword.
Result<std::vector<std::string>> ParseQueryText(
    const index::Analyzer& analyzer, std::string_view query_text,
    query::QueryTrace* trace);

// The XRANK system facade.
//
// Thread safety: queries (Query/QueryKeywords) may run from any number of
// threads concurrently, and concurrently with every update operation. Each
// query pins an immutable snapshot of the serving state — the base
// indexes, the flushed live segments, the mutable delta, and the
// tombstone set — behind reference-counted pointers, so a flush or
// compaction swapping segments underneath it can never expose a partially
// updated view, and queries never wait on update work (the snapshot hand-
// off is a pointer copy under a lock held for nanoseconds).
//
// Updates (AddDocument / DeleteDocument / Flush / CompactSegments /
// CompactDeletions) are serialized among themselves. AddDocument is
// crash-safe when disk-backed: the document is appended to a checksummed
// write-ahead log and fsynced before it becomes visible, and Open replays
// the log — truncating a torn tail — so every acknowledged add survives a
// kill at any instant. Background maintenance migrates the delta into
// immutable on-disk segments through the same rename + MANIFEST commit
// protocol as the base build.
class XRankEngine {
 public:
  ~XRankEngine();

  // Ingests XML documents (consumed), computes ElemRanks and builds the
  // configured indexes. `html_documents` are ingested in the paper's HTML
  // mode (whole document = one element).
  static Result<std::unique_ptr<XRankEngine>> Build(
      std::vector<xml::Document> documents, const EngineOptions& options);
  static Result<std::unique_ptr<XRankEngine>> Build(
      std::vector<xml::Document> documents,
      std::vector<xml::Document> html_documents, const EngineOptions& options);

  // Re-opens the committed on-disk indexes under `options.disk_dir`
  // (written by a previous disk-backed Build over the same documents).
  // The base graph and ElemRanks are re-derived in memory — they are not
  // persisted — but physical index construction is skipped: the committed
  // files are validated against the MANIFEST and served as-is. Flushed
  // live segments are reopened from their committed index + docs files,
  // and the write-ahead log is replayed (a torn tail is truncated; records
  // a committed segment already covers are skipped), so documents added
  // before a crash are served again. A directory with no MANIFEST (crash
  // before the commit point), a torn MANIFEST, or files whose length/
  // checksum disagree with it is refused with a precise error.
  static Result<std::unique_ptr<XRankEngine>> Open(
      std::vector<xml::Document> documents, const EngineOptions& options);

  // Evaluates a free-text conjunctive keyword query, returning the top m
  // results via the given index. The index kind must have been built. The
  // three-argument forms run under the engine default QueryOptions
  // (EngineOptions::query); the four-argument forms override them per call
  // — a deadline expiry returns Status::DeadlineExceeded, or the partial
  // top-k with stats.partial set when allow_partial_results is on.
  Result<EngineResponse> Query(std::string_view query_text, size_t m,
                               index::IndexKind kind);
  Result<EngineResponse> Query(std::string_view query_text, size_t m,
                               index::IndexKind kind,
                               const query::QueryOptions& query_options);

  // Pre-tokenized variants.
  Result<EngineResponse> QueryKeywords(
      const std::vector<std::string>& keywords, size_t m,
      index::IndexKind kind);
  Result<EngineResponse> QueryKeywords(
      const std::vector<std::string>& keywords, size_t m,
      index::IndexKind kind, const query::QueryOptions& query_options);

  const graph::XmlGraph& graph() const { return graph_; }
  const std::vector<double>& elem_ranks() const { return elem_ranks_; }
  const rank::ElemRankResult& elem_rank_result() const {
    return elem_rank_result_;
  }

  // Table 1 inputs.
  const index::IndexStats& index_stats(index::IndexKind kind) const;
  bool has_index(index::IndexKind kind) const;

  // --- live updates (LSM-style delta + WAL, paper Section 4.5 extended) ---

  // Parses and ingests one XML document. Disk-backed engines append the
  // document to the write-ahead log and fsync it before anything becomes
  // visible — once AddDocument returns OK, the document survives a crash
  // at any later instant and is immediately queryable through every built
  // index kind. New documents are ranked by per-document ElemRank (see
  // index/delta_segment.h for the invariance argument); a full offline
  // rebuild restores exact global ranks. Blocks (bounded by flush latency)
  // when the delta is full. InvalidArgument when a live document — added or
  // from the base corpus — holds the same URI.
  Status AddDocument(std::string_view uri, std::string_view xml_text);

  // Marks a document deleted. Its elements disappear from query results
  // immediately (results are post-filtered on the document id, which is the
  // first Dewey component — the property Section 4.5 relies on); the
  // physical postings remain until a compaction. Disk-backed engines log
  // the delete, so tombstones survive reopen. NotFound for an unknown (or
  // already deleted) URI.
  Status DeleteDocument(std::string_view uri);

  // Migrates the mutable delta into an immutable flushed segment: an
  // on-disk DIL index plus a checksummed source-document log, committed
  // through the MANIFEST, after which the WAL is rewritten without the
  // covered records. Queries in flight keep serving their pinned snapshot;
  // the result cache stays warm (content is unchanged). No-op with an
  // empty delta. Runs in the background when the delta fills; this is the
  // synchronous form for tests and tools.
  Status Flush();

  // Merges every flushed segment into one, dropping tombstoned documents.
  // No-op with fewer than two segments and nothing to drop.
  Status CompactSegments();

  // Rebuilds every base physical index without the deleted base documents'
  // postings — the offline merge step of traditional inverted-list
  // maintenance that the paper defers to (Brown et al. / Tomasic et al.).
  // Flushed segments and the delta are untouched.
  Status CompactDeletions();

  // Blocks until scheduled background maintenance has drained; returns the
  // most recent background failure (sticky until a later success), OK
  // otherwise.
  Status WaitForMaintenance();

  size_t deleted_document_count() const;

  // Whether a live document — from the base corpus or added, and not
  // deleted — holds `uri` (the check AddDocument refuses a duplicate by).
  bool HasLiveDocument(std::string_view uri) const;

  // Live-update observability. The monotonic counts are the engine's own;
  // each is linked to the update.* registry series of the same name.
  struct UpdateCounters {
    uint64_t wal_appends = 0;           // records appended this process
    uint64_t wal_replayed_records = 0;  // records read back by Open
    uint64_t wal_dropped_bytes = 0;     // torn tail truncated by Open
    uint64_t flushes = 0;
    uint64_t compactions = 0;
    uint64_t backpressure_waits = 0;    // AddDocument calls that blocked
    uint64_t segment_count = 0;         // flushed segments, current
    uint64_t delta_documents = 0;       // mutable delta size, current
    uint64_t added_documents = 0;       // live (non-base) docs, current
    uint64_t content_seq = 0;
    uint64_t epoch = 0;                 // snapshot swaps since open
  };
  UpdateCounters update_counters() const;

  // Monotonic fast-path counters: the base index's buffer-pool hit/miss
  // totals plus the engine-wide result-cache totals. Benches diff
  // snapshots to report per-phase hit rates.
  struct ServingCounters {
    uint64_t pool_hits = 0;
    uint64_t pool_misses = 0;
    uint64_t result_cache_hits = 0;
    uint64_t result_cache_lookups = 0;
    // Engine-wide decoded-block cache totals (zero when disabled).
    uint64_t block_cache_hits = 0;
    uint64_t block_cache_lookups = 0;
    // Engine-wide (not per-kind): queries that hit their deadline/cancel.
    uint64_t deadline_exceeded_queries = 0;  // returned DeadlineExceeded
    uint64_t partial_result_queries = 0;     // served a partial top-k
  };
  ServingCounters serving_counters(index::IndexKind kind) const;

  // Evicts every warm structure — each index's buffer pool (segments
  // included), the result cache, and the decoded-block cache — without
  // touching index state. Benches call this between measurement phases to
  // re-establish a cold baseline while serving with
  // cold_cache_per_query = false.
  void DropCaches();

  // --- slow-query log (EngineOptions::slow_query_ms) ---
  struct SlowQueryEntry {
    std::string query;       // space-joined normalized keywords
    index::IndexKind kind;
    double wall_ms = 0.0;    // end-to-end, including decoration
    query::QueryTrace trace;
  };
  // Snapshot of the ring buffer, oldest first.
  std::vector<SlowQueryEntry> slow_queries() const;
  uint64_t slow_query_count() const;  // total recorded, including evicted

 private:
  XRankEngine() = default;

  struct IndexInstance {
    index::BuiltIndex built;
    // Shared by all concurrent queries on this index, in both cache modes
    // (both are internally thread-safe; cold mode drops the pool between
    // queries instead of allocating a private one).
    std::unique_ptr<storage::CostModel> cost_model;
    std::unique_ptr<storage::BufferPool> pool;
  };

  // The base corpus's physical indexes plus the naive-ordinal mapping that
  // decodes their results. Immutable once published; CompactDeletions
  // publishes a replacement.
  struct BaseState {
    std::map<index::IndexKind, IndexInstance> indexes;
    // Maps naive element ordinals back to Dewey IDs.
    std::vector<dewey::DeweyId> ordinal_to_dewey;
  };

  // One immutable snapshot of everything a query reads. Queries copy the
  // shared_ptr (pinning the whole set by refcount) and never re-read
  // engine state, so updates swapping `live_` cannot expose half a swap.
  struct LiveState {
    std::shared_ptr<const BaseState> base;
    // Flushed segments in doc_base order, then the mutable delta (null
    // when empty). Segment documents are contiguous global-id ranges
    // continuing past the base corpus.
    std::vector<std::shared_ptr<const index::LiveSegment>> segments;
    std::shared_ptr<const index::LiveSegment> delta;
    // Global doc ids filtered out of every response.
    std::shared_ptr<const std::set<uint32_t>> tombstones;
    // Advances when query answers may change (add/delete), NOT on flush or
    // compaction — result-cache keys embed it.
    uint64_t content_seq = 1;
    uint64_t epoch = 1;  // advances on every publish

    bool HasLiveDocs() const { return !segments.empty() || delta != nullptr; }
  };

  // One raw hit of the merged base + segment result streams, pre-
  // decoration. For base hits `segment` is null and local == global.
  struct RawHit {
    double rank = 0.0;
    dewey::DeweyId global_id;
    dewey::DeweyId local_id;
    const index::LiveSegment* segment = nullptr;
  };

  std::shared_ptr<const LiveState> Snapshot() const;
  void Publish(std::shared_ptr<LiveState> next);

  Result<EngineResponse> QueryKeywordsSnapshot(
      const std::shared_ptr<const LiveState>& state,
      const std::vector<std::string>& keywords, size_t m,
      index::IndexKind kind, const query::QueryOptions& query_options);
  Result<EngineResponse> Decorate(const LiveState& state,
                                  std::vector<RawHit> hits,
                                  query::QueryStats stats, size_t m);
  // Maps a raw result's element onto the answer-node set (nearest
  // qualifying ancestor-or-self), if configured; kInvalidNode when no
  // ancestor qualifies.
  graph::NodeId MapToAnswerNode(const graph::XmlGraph& graph,
                                graph::NodeId node) const;

  // Builds one physical index of the given kind over extracted postings.
  Result<IndexInstance> BuildInstance(index::IndexKind kind,
                                      const index::ExtractionResult& extracted);
  // Shared by Build and Open: graph construction + ElemRank (steps 1-2).
  Status PrepareBase(const std::vector<xml::Document>& documents,
                     const std::vector<xml::Document>& html_documents);
  // Disk-backed engines only: renames freshly built `<kind>.xrank.tmp`
  // files to their final names and commits them through a durable MANIFEST
  // (see index/manifest.h for the protocol), preserving the committed
  // segment entries. No-op for in-memory engines. Caller holds
  // update_mutex_ (or is still single-threaded in Build/Open).
  Status CommitBaseLocked(std::map<index::IndexKind, IndexInstance>& indexes);

  // Live-update internals; all *Locked members require update_mutex_.
  index::LiveSegmentOptions SegmentOptions() const;
  Status OpenWalLocked();
  Status ReplayWalLocked(LiveState* state);
  Status AppendWalLocked(const storage::LogRecord& record);
  // Rewrites the WAL keeping delete records and adds not covered by
  // `covered` seq ranges; reopens the writer on the rewritten file.
  Status RewriteWalLocked(
      const std::vector<std::pair<uint64_t, uint64_t>>& covered);
  // Writes the segment over `sources` (kAddDocument records in seq order)
  // under disk_dir as `<name>.xrank` and `<name>.docs`, `<name>` naming the
  // records' seq range: both are built as `.tmp` files and synced, the
  // `<failpoint>.before_rename` failpoint is evaluated, and both are renamed
  // into place. Fills `*entry` for the caller's MANIFEST commit.
  Result<std::shared_ptr<index::LiveSegment>> WriteSegmentLocked(
      std::vector<storage::LogRecord> sources, uint32_t doc_base,
      const std::string& failpoint, index::SegmentManifestEntry* entry);
  Status FlushLocked();
  Status CompactSegmentsLocked();
  Status CompactDeletionsLocked();
  // Resolves a URI against `state` (delta first, then segments newest-
  // first, then the base corpus), skipping tombstoned docs. Returns the
  // global doc id and the durable WAL handle ("base:<id>" / "seq:<seq>").
  std::optional<std::pair<uint32_t, std::string>> ResolveLiveUri(
      const LiveState& state, std::string_view uri) const;
  // Background maintenance.
  void RequestMaintenance();
  void MaintenanceLoop();
  Status MaintainOnce();
  void StopMaintenanceThread();

  EngineOptions options_;
  graph::XmlGraph graph_;
  std::vector<double> elem_ranks_;
  rank::ElemRankResult elem_rank_result_;
  index::Analyzer analyzer_{index::AnalyzerOptions{}};
  uint32_t base_doc_count_ = 0;

  // Current serving snapshot. live_mutex_ guards only the pointer — the
  // pointee is immutable. Queries copy it; mutators (which additionally
  // hold update_mutex_) replace it.
  std::shared_ptr<const LiveState> live_;
  mutable std::mutex live_mutex_;

  // Serializes every mutator end-to-end. An AddDocument blocked on
  // backpressure waits on backpressure_cv_ with this mutex released, so
  // the flush that drains the delta can proceed.
  std::mutex update_mutex_;
  std::condition_variable backpressure_cv_;
  // WAL writer and the in-memory mirror of its records (used to rewrite
  // the file after a flush retires covered adds). Null / empty for
  // in-memory engines. Guarded by update_mutex_.
  std::unique_ptr<storage::LogWriter> wal_;
  std::vector<storage::LogRecord> wal_records_;
  uint64_t next_seq_ = 1;
  // Committed on-disk state (base entries + segment entries); rewritten at
  // every commit point. Guarded by update_mutex_.
  index::Manifest manifest_;

  // Background maintenance thread (lazy; see background_maintenance).
  std::thread maintenance_thread_;
  std::mutex maintenance_mutex_;
  std::condition_variable maintenance_cv_;       // wakes the worker
  std::condition_variable maintenance_idle_cv_;  // wakes WaitForMaintenance
  bool maintenance_stop_ = false;
  bool maintenance_requested_ = false;
  bool maintenance_active_ = false;
  Status maintenance_status_;  // sticky last failure, cleared on success

  // Monotonic update counters (relaxed; readers take no locks), linked to
  // their update.* registry series. Constructing them registers the series,
  // so registry dumps show them at zero before the first live update.
  metrics::Counter wal_appends_{"update.wal_appends"};
  metrics::Counter wal_replayed_records_{"update.wal_replayed_records"};
  metrics::Counter wal_dropped_bytes_{"update.wal_dropped_bytes"};
  metrics::Counter flushes_{"update.flushes"};
  metrics::Counter compactions_{"update.compactions"};
  metrics::Counter backpressure_waits_{"update.backpressure_waits"};
  // Registry-only update series.
  metrics::Counter* const add_documents_ =
      metrics::Registry::Instance().GetCounter("update.add_documents");
  metrics::Counter* const delete_documents_ =
      metrics::Registry::Instance().GetCounter("update.delete_documents");
  metrics::Histogram* const backpressure_us_ =
      metrics::Registry::Instance().GetHistogram("update.backpressure_us");

  // Null when EngineOptions::result_cache_entries == 0.
  std::unique_ptr<ResultCache> result_cache_;
  // Decoded posting-block cache shared by every index kind (page-file ids
  // keep entries distinct). Null when EngineOptions::block_cache_bytes == 0.
  std::unique_ptr<index::BlockCache> block_cache_;
  // Deadline outcomes, linked to query.deadline_exceeded / query.partial.
  metrics::Counter deadline_exceeded_queries_{"query.deadline_exceeded"};
  metrics::Counter partial_result_queries_{"query.partial"};
  // Slow-query ring buffer: fills to capacity, then overwrites the oldest
  // entry (slow_query_next_). Guarded by its own mutex — recording a slow
  // query must not serialize concurrent fast queries.
  void RecordSlowQuery(SlowQueryEntry entry);
  mutable std::mutex slow_query_mutex_;
  std::vector<SlowQueryEntry> slow_query_ring_;
  size_t slow_query_next_ = 0;
  uint64_t slow_query_total_ = 0;
};

}  // namespace xrank::core

#endif  // XRANK_CORE_ENGINE_H_

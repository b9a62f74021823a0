#include "core/engine.h"

// XRankEngine: the query path, from keywords to decorated results, and the
// slow-query log.

#include <algorithm>
#include <array>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "common/metrics.h"
#include "common/timer.h"
#include "core/fan_out.h"
#include "core/result_cache.h"
#include "query/dil_query.h"
#include "query/hdil_query.h"
#include "query/naive_query.h"
#include "query/rdil_query.h"

namespace xrank::core {

namespace {

// Registry handles for the serving path, resolved once per process (the
// registry outlives every engine). The query.* folds of QueryStats live
// only here; the engine's deadline counters link to their own series.
struct EngineMetrics {
  metrics::Counter* queries = nullptr;
  metrics::Counter* errors = nullptr;
  metrics::Counter* cache_hit = nullptr;
  metrics::Counter* postings_scanned = nullptr;
  metrics::Counter* pages_skipped = nullptr;
  metrics::Counter* blocks_pruned = nullptr;
  metrics::Counter* docs_skipped = nullptr;
  metrics::Counter* pivot_advances = nullptr;
  metrics::Counter* block_cache_hits = nullptr;
  metrics::Counter* btree_probes = nullptr;
  metrics::Counter* hash_probes = nullptr;
  metrics::Counter* rounds = nullptr;
  metrics::Counter* switched_to_dil = nullptr;
  metrics::Counter* sequential_reads = nullptr;
  metrics::Counter* random_reads = nullptr;
  metrics::Counter* slow_queries = nullptr;
  metrics::Gauge* slow_query_log_size = nullptr;
  metrics::Histogram* latency_us = nullptr;
  // Per-strategy query counts (query.algorithm.<name>), pre-resolved for
  // every label QueryStats::algorithm can carry so the per-query path does
  // no string concatenation or registry lookup.
  std::array<std::pair<std::string_view, metrics::Counter*>, 4> algorithm{};

  static const EngineMetrics& Get() {
    static const EngineMetrics* m = [] {
      auto& registry = metrics::Registry::Instance();
      auto* em = new EngineMetrics();
      em->queries = registry.GetCounter("query.count");
      em->errors = registry.GetCounter("query.errors");
      em->cache_hit = registry.GetCounter("query.result_cache_hit");
      em->postings_scanned = registry.GetCounter("query.postings_scanned");
      em->pages_skipped = registry.GetCounter("query.pages_skipped");
      em->blocks_pruned = registry.GetCounter("query.blocks_pruned");
      em->docs_skipped = registry.GetCounter("query.docs_skipped");
      em->pivot_advances = registry.GetCounter("query.pivot_advances");
      em->block_cache_hits = registry.GetCounter("query.block_cache_hits");
      em->btree_probes = registry.GetCounter("query.btree_probes");
      em->hash_probes = registry.GetCounter("query.hash_probes");
      em->rounds = registry.GetCounter("query.rounds");
      em->switched_to_dil = registry.GetCounter("query.switched_to_dil");
      em->sequential_reads = registry.GetCounter("query.sequential_reads");
      em->random_reads = registry.GetCounter("query.random_reads");
      size_t slot = 0;
      for (std::string_view name :
           {"daat", "exhaustive", "maxscore", "bmw"}) {
        em->algorithm[slot++] = {
            name, registry.GetCounter("query.algorithm." + std::string(name))};
      }
      em->slow_queries = registry.GetCounter("engine.slow_queries");
      em->slow_query_log_size =
          registry.GetGauge("engine.slow_query_log_entries");
      em->latency_us = registry.GetHistogram("query.latency_us");
      return em;
    }();
    return *m;
  }
};

// Folds one finished query's stats into the registry. This is the "one
// source of truth" bridge: QueryStats keeps its per-query API, and every
// field also lands in the registry (`partial` through the engine's
// query.partial counter) so a registry snapshot diff reproduces it.
void RecordQueryMetrics(const query::QueryStats& stats) {
  const EngineMetrics& m = EngineMetrics::Get();
  m.queries->Increment();
  m.postings_scanned->Increment(stats.postings_scanned);
  m.pages_skipped->Increment(stats.pages_skipped);
  m.blocks_pruned->Increment(stats.blocks_pruned);
  m.docs_skipped->Increment(stats.docs_skipped);
  m.pivot_advances->Increment(stats.pivot_advances);
  if (!stats.algorithm.empty()) {
    bool matched = false;
    for (const auto& [name, counter] : m.algorithm) {
      if (name == stats.algorithm) {
        counter->Increment();
        matched = true;
        break;
      }
    }
    if (!matched) {
      // A label outside the fixed set (shouldn't happen) still counts;
      // registry lookup off the pre-resolved path.
      metrics::Registry::Instance()
          .GetCounter("query.algorithm." + stats.algorithm)
          ->Increment();
    }
  }
  m.block_cache_hits->Increment(stats.block_cache_hits);
  m.btree_probes->Increment(stats.btree_probes);
  m.hash_probes->Increment(stats.hash_probes);
  m.rounds->Increment(stats.rounds);
  m.sequential_reads->Increment(stats.sequential_reads);
  m.random_reads->Increment(stats.random_reads);
  if (stats.switched_to_dil) m.switched_to_dil->Increment();
  if (stats.result_cache_hit) m.cache_hit->Increment();
  m.latency_us->Observe(static_cast<uint64_t>(stats.wall_ms * 1e3));
}

// Feeds each trace span into its per-stage latency histogram
// (query.stage.<name>_us). Only runs for traced queries; the name lookup
// takes the registry mutex, which is fine off the hot path.
void RecordStageMetrics(const query::QueryTrace& trace) {
  auto& registry = metrics::Registry::Instance();
  for (const query::QueryTrace::Span& span : trace.spans()) {
    // A fan-out's "<label>[i]" row only groups one range's stages.
    if (span.name.ends_with(']')) continue;
    registry.GetHistogram("query.stage." + span.name + "_us")
        ->Observe(static_cast<uint64_t>(span.duration_us));
  }
}

// A result's snippet is the first kSnippetBytes bytes of its subtree text
// followed by "...", or the whole text when it fits in kSnippetMaxBytes.
constexpr size_t kSnippetBytes = 117;
constexpr size_t kSnippetMaxBytes = 120;

std::string Snippet(const graph::XmlGraph& graph, graph::NodeId node) {
  // One byte past the longest uncut snippet tells whether to cut.
  std::string text = graph.DeepTextPrefix(node, kSnippetMaxBytes + 1);
  if (text.size() <= kSnippetMaxBytes) return text;
  // Cut before a multi-byte UTF-8 sequence, not inside it: step back over
  // at most three continuation bytes (10xxxxxx) to the sequence's lead byte.
  size_t cut = kSnippetBytes;
  while (cut > kSnippetBytes - 3 &&
         (static_cast<uint8_t>(text[cut]) & 0xC0) == 0x80) {
    --cut;
  }
  text.resize(cut);
  text += "...";
  return text;
}

}  // namespace

Result<std::vector<std::string>> ParseQueryText(
    const index::Analyzer& analyzer, std::string_view query_text,
    query::QueryTrace* trace) {
  std::vector<std::string> keywords;
  {
    query::ScopedSpan span(trace, "parse");
    uint32_t position = 0;
    for (index::Analyzer::Token& token :
         analyzer.Tokenize(query_text, &position)) {
      keywords.push_back(std::move(token.term));
    }
  }
  if (keywords.empty()) {
    return Status::InvalidArgument("query contains no keywords");
  }
  return keywords;
}

graph::NodeId XRankEngine::MapToAnswerNode(const graph::XmlGraph& graph,
                                           graph::NodeId node) const {
  if (options_.answer_node_tags.empty()) return node;
  for (; node != graph::kInvalidNode; node = graph.node(node).parent) {
    std::string_view tag = graph.name(node);
    for (const std::string& answer_tag : options_.answer_node_tags) {
      if (tag == answer_tag) return node;
    }
  }
  return graph::kInvalidNode;
}

Result<EngineResponse> XRankEngine::Decorate(const LiveState& state,
                                             std::vector<RawHit> hits,
                                             query::QueryStats stats,
                                             size_t m) {
  EngineResponse out;
  out.stats = std::move(stats);
  const std::set<uint32_t>& tombstones = *state.tombstones;
  // Answer-node mapping can send several raw results to one ancestor; keep
  // the best-ranked representative.
  std::set<dewey::DeweyId> emitted;
  for (RawHit& raw : hits) {
    if (out.results.size() >= m) break;
    // Tombstoned documents: the first Dewey component is the document id
    // (Section 4.5), so deleted documents filter in O(1).
    if (!tombstones.empty() &&
        tombstones.count(raw.global_id.document_id()) > 0) {
      continue;
    }
    const graph::XmlGraph& graph =
        raw.segment != nullptr ? raw.segment->graph : graph_;
    const uint32_t doc_base =
        raw.segment != nullptr ? raw.segment->doc_base : 0;
    // Resolved once; everything below reads the node and its ancestors.
    XRANK_ASSIGN_OR_RETURN(graph::NodeId hit_node,
                           graph.FindByDewey(raw.local_id));
    const graph::NodeId node = MapToAnswerNode(graph, hit_node);
    if (node == graph::kInvalidNode) continue;  // no answer node covers it
    const graph::XmlGraph::NodeData& data = graph.node(node);
    const dewey::DeweyId& local = data.dewey_id;
    dewey::DeweyId global = RebaseUp(local, doc_base);
    if (!emitted.insert(global).second) continue;  // ancestor already emitted

    EngineResult result;
    result.id = std::move(global);
    result.rank = raw.rank;
    result.element_tag = std::string(graph.name(node));
    result.document_uri = graph.documents()[data.document].uri;
    result.snippet = Snippet(graph, node);
    out.results.push_back(std::move(result));
  }
  return out;
}

Result<EngineResponse> XRankEngine::QueryKeywords(
    const std::vector<std::string>& keywords, size_t m,
    index::IndexKind kind) {
  return QueryKeywordsSnapshot(Snapshot(), keywords, m, kind, options_.query);
}

Result<EngineResponse> XRankEngine::QueryKeywords(
    const std::vector<std::string>& keywords, size_t m, index::IndexKind kind,
    const query::QueryOptions& query_options) {
  return QueryKeywordsSnapshot(Snapshot(), keywords, m, kind, query_options);
}

Result<EngineResponse> XRankEngine::QueryKeywordsSnapshot(
    const std::shared_ptr<const LiveState>& state,
    const std::vector<std::string>& keywords, size_t m, index::IndexKind kind,
    const query::QueryOptions& query_options) {
  WallTimer wall;
  auto it = state->base->indexes.find(kind);
  if (it == state->base->indexes.end()) {
    return Status::InvalidArgument(
        std::string(index::IndexKindName(kind)) + " index was not built");
  }
  const IndexInstance& instance = it->second;

  std::vector<std::string> normalized;
  normalized.reserve(keywords.size());
  for (const std::string& keyword : keywords) {
    std::string term = analyzer_.NormalizeKeyword(keyword);
    if (term.empty()) {
      return Status::InvalidArgument("keyword '" + keyword +
                                     "' normalizes to nothing");
    }
    normalized.push_back(std::move(term));
  }

  // With the slow-query log armed and no caller-supplied trace, trace the
  // query internally so the log always has a per-stage breakdown.
  query::QueryTrace* trace = query_options.trace;
  std::unique_ptr<query::QueryTrace> local_trace;
  if (trace == nullptr && options_.slow_query_ms != 0) {
    local_trace = std::make_unique<query::QueryTrace>();
    trace = local_trace.get();
  }
  if (trace != nullptr) {
    std::string text;
    for (const std::string& term : normalized) {
      if (!text.empty()) text += ' ';
      text += term;
    }
    trace->set_query_text(std::move(text));
    trace->set_index_kind(std::string(index::IndexKindName(kind)));
  }
  query::QueryOptions exec_options = query_options;
  exec_options.trace = trace;
  const EngineMetrics& metrics = EngineMetrics::Get();

  // Fast path: a repeated (terms, m, kind) query is answered from the
  // result cache without touching the index. Keys embed the snapshot's
  // content version, so anything found here is current by construction.
  // A fleet query (shared θ attached) bypasses the cache both ways: its
  // response may be truncated below the fleet threshold, and a cached
  // standalone response would defeat the θ forwarding it exists for.
  const bool use_result_cache =
      result_cache_ != nullptr && query_options.shared_threshold == nullptr;
  std::string cache_key;
  if (use_result_cache) {
    query::ScopedSpan cache_span(trace, "cache");
    cache_key = ResultCache::MakeKey(normalized, m, kind, state->content_seq);
    EngineResponse cached;
    if (result_cache_->Lookup(cache_key, &cached)) {
      // A hit does no index work; the miss's execution stats would be
      // misleading here.
      cached.stats = query::QueryStats{};
      cached.stats.result_cache_hit = true;
      cache_span.End();
      RecordQueryMetrics(cached.stats);
      if (trace != nullptr) RecordStageMetrics(*trace);
      return cached;
    }
  }

  // All queries share the instance's sharded pool. Cold-cache mode (the
  // paper's experimental setup) evicts it at each query start — under
  // serial queries this reproduces the private-pool-per-query statistics
  // exactly, without the per-query allocation.
  storage::BufferPool* pool = instance.pool.get();
  if (options_.cold_cache_per_query) {
    pool->DropCache();
    instance.cost_model->ResetStreams();
    for (const auto& segment : state->segments) {
      segment->pool->DropCache();
      segment->cost_model->ResetStreams();
    }
    if (state->delta != nullptr) {
      state->delta->pool->DropCache();
      state->delta->cost_model->ResetStreams();
    }
    // Pre-decoded pages would defeat the cold-cache measurement the same
    // way warm pool pages would.
    if (block_cache_ != nullptr) block_cache_->Clear();
  }

  // With tombstones or live documents in play, over-fetch so the post-
  // filter and the cross-segment merge can still fill m results.
  const bool plain = state->tombstones->empty() && !state->HasLiveDocs();
  size_t fetch_m = plain ? m : m * 2 + 64;

  // The live segments and the delta are doc-id ranges after the base. They
  // run after it through one fan-out, whose budget starts with the base.
  std::optional<RangeFanOut> fan_out;
  if (state->HasLiveDocs()) fan_out.emplace(exec_options, "segment");

  const index::Lexicon* lexicon = &instance.built.lexicon;
  auto run = [&]() -> Result<query::QueryResponse> {
    switch (kind) {
      case index::IndexKind::kDil: {
        query::DilQueryProcessor processor(pool, lexicon, options_.scoring,
                                           block_cache_.get());
        return processor.Execute(normalized, fetch_m, exec_options);
      }
      case index::IndexKind::kRdil: {
        query::RdilQueryProcessor processor(pool, lexicon, options_.scoring);
        return processor.Execute(normalized, fetch_m, exec_options);
      }
      case index::IndexKind::kHdil: {
        query::HdilQueryProcessor processor(pool, lexicon, options_.scoring,
                                            block_cache_.get());
        return processor.Execute(normalized, fetch_m, exec_options);
      }
      case index::IndexKind::kNaiveId: {
        query::NaiveIdQueryProcessor processor(pool, lexicon,
                                               options_.scoring);
        return processor.Execute(normalized, fetch_m, exec_options);
      }
      case index::IndexKind::kNaiveRank: {
        query::NaiveRankQueryProcessor processor(pool, lexicon,
                                                 options_.scoring);
        return processor.Execute(normalized, fetch_m, exec_options);
      }
    }
    return Status::Internal("unreachable index kind");
  };
  // A failed scan, of the base or of a live range, fails the query.
  auto failed = [&](const Status& status) {
    metrics.queries->Increment();
    metrics.errors->Increment();
    if (status.code() == StatusCode::kDeadlineExceeded) {
      deadline_exceeded_queries_.Increment();
    }
    return status;
  };
  Result<query::QueryResponse> executed = run();
  if (!executed.ok()) return failed(executed.status());
  query::QueryResponse response = std::move(executed).value();
  query::QueryStats stats = std::move(response.stats);
  // The segments prune against the base's fetch_m-th best rank, the θ an
  // attached base scan would end on: they run after the base, so attaching
  // would give them the same bound.
  if (fan_out.has_value() && response.results.size() >= fetch_m) {
    fan_out->threshold()->Raise(response.results[fetch_m - 1].rank);
  }

  // Merge the base results with every live segment's (each segment is a
  // self-contained DIL index; its ranks are regrouping-invariant, so one
  // global rank-descending sort is a correct merged ordering).
  const bool naive = kind == index::IndexKind::kNaiveId ||
                     kind == index::IndexKind::kNaiveRank;
  const std::vector<dewey::DeweyId>& ordinal_to_dewey =
      state->base->ordinal_to_dewey;
  std::vector<RawHit> hits;
  hits.reserve(response.results.size());
  for (query::RankedResult& raw : response.results) {
    RawHit hit;
    hit.rank = raw.rank;
    if (naive) {
      uint32_t ordinal = raw.id.component(0);
      if (ordinal >= ordinal_to_dewey.size()) {
        return Status::Internal("naive ordinal out of range");
      }
      hit.local_id = ordinal_to_dewey[ordinal];
    } else {
      hit.local_id = std::move(raw.id);
    }
    hit.global_id = hit.local_id;
    hits.push_back(std::move(hit));
  }
  if (fan_out.has_value()) {
    query::ScopedSpan span(trace, "segments");
    std::vector<const index::LiveSegment*> scans;
    for (const auto& segment : state->segments) scans.push_back(segment.get());
    if (state->delta != nullptr) scans.push_back(state->delta.get());
    std::vector<std::vector<query::RankedResult>> scanned(scans.size());
    Status fanned = fan_out->Run(
        scans.size(),
        [&](size_t i, const query::QueryOptions& segment_options)
            -> Result<query::QueryStats> {
          query::DilQueryProcessor processor(
              scans[i]->pool.get(), &scans[i]->built.lexicon,
              options_.scoring, block_cache_.get());
          XRANK_ASSIGN_OR_RETURN(
              query::QueryResponse segment_response,
              processor.Execute(normalized, fetch_m, segment_options));
          scanned[i] = std::move(segment_response.results);
          return std::move(segment_response.stats);
        },
        &stats);
    if (!fanned.ok()) return failed(fanned);
    for (size_t i = 0; i < scans.size(); ++i) {
      for (query::RankedResult& raw : scanned[i]) {
        RawHit hit;
        hit.rank = raw.rank;
        hit.local_id = std::move(raw.id);
        hit.global_id = RebaseUp(hit.local_id, scans[i]->doc_base);
        hit.segment = scans[i];
        hits.push_back(std::move(hit));
      }
    }
    std::sort(hits.begin(), hits.end(),
              [](const RawHit& a, const RawHit& b) {
                return query::RankOrder(a.rank, a.global_id, b.rank,
                                        b.global_id);
              });
  }
  Result<EngineResponse> decorate_result = [&] {
    query::ScopedSpan span(trace, "decorate");
    return Decorate(*state, std::move(hits), std::move(stats), m);
  }();
  XRANK_RETURN_NOT_OK(decorate_result.status());
  EngineResponse decorated = std::move(decorate_result).value();
  // A partial response reflects this query's budget, not the index: caching
  // it would serve truncated results to later unconstrained queries. The
  // same goes for θ-truncated fleet responses (use_result_cache above).
  if (use_result_cache && !decorated.stats.partial) {
    result_cache_->Insert(cache_key, decorated);
  }
  if (decorated.stats.partial) partial_result_queries_.Increment();
  RecordQueryMetrics(decorated.stats);
  if (trace != nullptr) RecordStageMetrics(*trace);

  double wall_ms = wall.ElapsedSeconds() * 1e3;
  if (options_.slow_query_ms != 0 && trace != nullptr &&
      wall_ms >= static_cast<double>(options_.slow_query_ms)) {
    SlowQueryEntry entry;
    entry.query = trace->query_text();
    entry.kind = kind;
    entry.wall_ms = wall_ms;
    // Copy, not move: a caller-supplied trace stays theirs to render.
    entry.trace = *trace;
    RecordSlowQuery(std::move(entry));
  }
  return decorated;
}

void XRankEngine::RecordSlowQuery(SlowQueryEntry entry) {
  const EngineMetrics& metrics = EngineMetrics::Get();
  std::lock_guard<std::mutex> lock(slow_query_mutex_);
  if (options_.slow_query_log_entries == 0) return;
  if (slow_query_ring_.size() < options_.slow_query_log_entries) {
    slow_query_ring_.push_back(std::move(entry));
  } else {
    slow_query_ring_[slow_query_next_] = std::move(entry);
    slow_query_next_ = (slow_query_next_ + 1) % slow_query_ring_.size();
  }
  ++slow_query_total_;
  metrics.slow_queries->Increment();
  metrics.slow_query_log_size->Set(
      static_cast<int64_t>(slow_query_ring_.size()));
}

std::vector<XRankEngine::SlowQueryEntry> XRankEngine::slow_queries() const {
  std::lock_guard<std::mutex> lock(slow_query_mutex_);
  std::vector<SlowQueryEntry> out;
  out.reserve(slow_query_ring_.size());
  // slow_query_next_ is the oldest entry once the ring has wrapped.
  for (size_t i = 0; i < slow_query_ring_.size(); ++i) {
    out.push_back(
        slow_query_ring_[(slow_query_next_ + i) % slow_query_ring_.size()]);
  }
  return out;
}

uint64_t XRankEngine::slow_query_count() const {
  std::lock_guard<std::mutex> lock(slow_query_mutex_);
  return slow_query_total_;
}

XRankEngine::ServingCounters XRankEngine::serving_counters(
    index::IndexKind kind) const {
  auto state = Snapshot();
  ServingCounters counters;
  auto it = state->base->indexes.find(kind);
  if (it != state->base->indexes.end()) {
    counters.pool_hits = it->second.pool->hits();
    counters.pool_misses = it->second.pool->misses();
  }
  if (result_cache_ != nullptr) {
    counters.result_cache_hits = result_cache_->hits();
    counters.result_cache_lookups = result_cache_->lookups();
  }
  if (block_cache_ != nullptr) {
    counters.block_cache_hits = block_cache_->hits();
    counters.block_cache_lookups = block_cache_->lookups();
  }
  counters.deadline_exceeded_queries = deadline_exceeded_queries_.value();
  counters.partial_result_queries = partial_result_queries_.value();
  return counters;
}

Result<EngineResponse> XRankEngine::Query(std::string_view query_text,
                                          size_t m, index::IndexKind kind) {
  return Query(query_text, m, kind, options_.query);
}

Result<EngineResponse> XRankEngine::Query(
    std::string_view query_text, size_t m, index::IndexKind kind,
    const query::QueryOptions& query_options) {
  XRANK_ASSIGN_OR_RETURN(
      std::vector<std::string> keywords,
      ParseQueryText(analyzer_, query_text, query_options.trace));
  return QueryKeywords(keywords, m, kind, query_options);
}

}  // namespace xrank::core

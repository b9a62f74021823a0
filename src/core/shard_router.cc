#include "core/shard_router.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/crc32.h"
#include "common/safe_strerror.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/fan_out.h"
#include "graph/builder.h"
#include "index/manifest.h"
#include "query/trace.h"
#include "rank/elem_rank.h"

namespace xrank::core {

namespace {

constexpr char kShardingHeader[] = "xrank-sharding v1";

// One SHARDING field, no wider than uint32_t.
Result<uint32_t> ParseField(std::string_view token, std::string_view what) {
  XRANK_ASSIGN_OR_RETURN(
      uint64_t value,
      index::ParseDecimal(token, std::numeric_limits<uint32_t>::max(), what,
                          kShardingFileName));
  return static_cast<uint32_t>(value);
}

Status MakeDirectory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create directory '" + path +
                           "': " + SafeStrError(errno));
  }
  return Status::OK();
}

}  // namespace

std::string ShardDirName(size_t shard_index) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "shard-%04zu", shard_index);
  return buffer;
}

std::string SerializeShardingManifest(const ShardingManifest& manifest) {
  std::string out(kShardingHeader);
  out += "\n";
  for (size_t i = 0; i < manifest.shards.size(); ++i) {
    const ShardDescriptor& shard = manifest.shards[i];
    char line[256];
    std::snprintf(line, sizeof(line), "shard %zu dir %s base %u count %u\n", i,
                  shard.dir.c_str(), shard.doc_base, shard.doc_count);
    out += line;
  }
  char commit[64];
  std::snprintf(commit, sizeof(commit), "commit %u\n", Crc32c(out));
  out += commit;
  return out;
}

Result<ShardingManifest> ParseShardingManifest(std::string_view text) {
  size_t commit_pos = text.rfind("\ncommit ");
  if (commit_pos == std::string_view::npos) {
    return Status::Corruption("SHARDING has no commit trailer");
  }
  std::string_view body = text.substr(0, commit_pos + 1);
  std::string_view trailer = text.substr(commit_pos + 1);
  if (!StartsWith(trailer, "commit ") || trailer.back() != '\n') {
    return Status::Corruption("malformed SHARDING commit trailer");
  }
  XRANK_ASSIGN_OR_RETURN(
      uint32_t stored_crc,
      ParseField(trailer.substr(7, trailer.size() - 8), "commit crc"));
  uint32_t computed = Crc32c(body);
  if (stored_crc != computed) {
    return Status::Corruption("SHARDING checksum mismatch (stored " +
                              std::to_string(stored_crc) + ", computed " +
                              std::to_string(computed) + ")");
  }

  ShardingManifest manifest;
  bool saw_header = false;
  for (std::string_view line : SplitString(body, "\n")) {
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != kShardingHeader) {
        return Status::Corruption("bad SHARDING header '" + std::string(line) +
                                  "'");
      }
      saw_header = true;
      continue;
    }
    std::vector<std::string_view> tokens = SplitString(line, " ");
    if (tokens.size() == 2 && tokens[0] == "reorder") {
      // A root built with the retired document reordering (index/codec.h).
      XRANK_ASSIGN_OR_RETURN(uint32_t reorder_id,
                             ParseField(tokens[1], "reorder id"));
      XRANK_RETURN_NOT_OK(index::CheckIdentityOrder(reorder_id));
      continue;
    }
    if (tokens.size() != 8 || tokens[0] != "shard" || tokens[2] != "dir" ||
        tokens[4] != "base" || tokens[6] != "count") {
      return Status::Corruption("malformed SHARDING line '" +
                                std::string(line) + "'");
    }
    XRANK_ASSIGN_OR_RETURN(uint32_t index,
                           ParseField(tokens[1], "shard index"));
    if (index != manifest.shards.size()) {
      return Status::Corruption("SHARDING shard indexes out of order (got " +
                                std::to_string(index) + ", expected " +
                                std::to_string(manifest.shards.size()) + ")");
    }
    ShardDescriptor shard;
    shard.dir = std::string(tokens[3]);
    XRANK_ASSIGN_OR_RETURN(shard.doc_base, ParseField(tokens[5], "doc base"));
    XRANK_ASSIGN_OR_RETURN(shard.doc_count, ParseField(tokens[7], "doc count"));
    manifest.shards.push_back(std::move(shard));
  }
  if (manifest.shards.empty()) {
    return Status::Corruption("SHARDING describes no shards");
  }
  // The partition must be a contiguous cover starting at document 0 —
  // the invariant the global<->local Dewey rebase relies on.
  uint32_t expected_base = 0;
  for (const ShardDescriptor& shard : manifest.shards) {
    if (shard.doc_base != expected_base) {
      return Status::Corruption(
          "SHARDING partition not contiguous: shard '" + shard.dir +
          "' starts at " + std::to_string(shard.doc_base) + ", expected " +
          std::to_string(expected_base));
    }
    if (shard.doc_count == 0) {
      return Status::Corruption("SHARDING shard '" + shard.dir + "' is empty");
    }
    expected_base += shard.doc_count;
  }
  return manifest;
}

Status WriteShardingFile(const std::string& root_dir,
                         const ShardingManifest& manifest) {
  return index::WriteFileDurably(root_dir, kShardingFileName,
                                 SerializeShardingManifest(manifest));
}

Result<ShardingManifest> ReadShardingFile(const std::string& root_dir) {
  XRANK_ASSIGN_OR_RETURN(
      std::string blob,
      index::ReadWholeFile(root_dir, kShardingFileName,
                           "not a committed sharded root"));
  return ParseShardingManifest(blob);
}

bool IsShardedRoot(const std::string& root_dir) {
  struct stat st;
  return ::stat((root_dir + "/" + kShardingFileName).c_str(), &st) == 0;
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Build(
    std::vector<xml::Document> documents, const ShardRouterOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  if (documents.empty()) {
    return Status::InvalidArgument("cannot shard an empty corpus");
  }
  if (options.num_shards > documents.size()) {
    return Status::InvalidArgument(
        "cannot split " + std::to_string(documents.size()) +
        " documents into " + std::to_string(options.num_shards) +
        " shards (every shard needs at least one document)");
  }
  ShardingManifest manifest;
  const size_t total = documents.size();
  for (size_t i = 0; i < options.num_shards; ++i) {
    // pisa-style even split: shard i owns [i*N/S, (i+1)*N/S).
    const size_t begin = i * total / options.num_shards;
    const size_t end = (i + 1) * total / options.num_shards;
    ShardDescriptor shard;
    shard.dir = ShardDirName(i);
    shard.doc_base = static_cast<uint32_t>(begin);
    shard.doc_count = static_cast<uint32_t>(end - begin);
    manifest.shards.push_back(std::move(shard));
  }
  return Assemble(std::move(documents), options, std::move(manifest),
                  /*open_existing=*/false);
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Open(
    std::vector<xml::Document> documents, const ShardRouterOptions& options) {
  if (options.root_dir.empty()) {
    return Status::InvalidArgument("Open requires root_dir");
  }
  XRANK_ASSIGN_OR_RETURN(ShardingManifest manifest,
                         ReadShardingFile(options.root_dir));
  uint32_t total = 0;
  for (const ShardDescriptor& shard : manifest.shards) {
    total += shard.doc_count;
  }
  if (total != documents.size()) {
    return Status::InvalidArgument(
        "SHARDING covers " + std::to_string(total) + " documents but " +
        std::to_string(documents.size()) + " were provided");
  }
  return Assemble(std::move(documents), options, std::move(manifest),
                  /*open_existing=*/true);
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Assemble(
    std::vector<xml::Document> documents, const ShardRouterOptions& options,
    ShardingManifest manifest, bool open_existing) {
  auto router = std::unique_ptr<ShardRouter>(new ShardRouter());
  router->options_ = options;

  // Global graph + ElemRank, exactly as a monolithic build would compute
  // them (cross-shard hyperlinks resolve here, and the kFinal random-jump
  // mass sees the full corpus-wide document count).
  graph::GraphBuilder builder(options.engine.graph);
  for (const xml::Document& doc : documents) {
    XRANK_RETURN_NOT_OK(builder.AddDocument(doc));
  }
  XRANK_ASSIGN_OR_RETURN(graph::XmlGraph global_graph,
                         std::move(builder).Finalize());
  XRANK_ASSIGN_OR_RETURN(
      rank::ElemRankResult global_ranks,
      rank::ComputeElemRank(global_graph, options.engine.elem_rank));

  // Graph nodes are created document-by-document, so each document owns a
  // contiguous node range and a shard's rank slice is one subarray.
  const size_t total_docs = documents.size();
  std::vector<size_t> doc_node_start(total_docs + 1, 0);
  size_t next_doc = 0;
  for (size_t id = 0; id < global_graph.node_count(); ++id) {
    const uint32_t doc = global_graph.node(id).document;
    if (doc + 1 < next_doc) {
      return Status::Internal(
          "graph nodes are not grouped by document (node " +
          std::to_string(id) + " belongs to document " + std::to_string(doc) +
          " after document " + std::to_string(next_doc) + " started)");
    }
    while (next_doc <= doc) doc_node_start[next_doc++] = id;
  }
  while (next_doc <= total_docs) {
    doc_node_start[next_doc++] = global_graph.node_count();
  }

  const bool disk_backed = !options.root_dir.empty();
  if (disk_backed && !open_existing) {
    XRANK_RETURN_NOT_OK(MakeDirectory(options.root_dir));
  }

  for (const ShardDescriptor& shard : manifest.shards) {
    EngineOptions shard_options = options.engine;
    // A hyperlink across a shard boundary dangles inside the shard's local
    // graph; its rank contribution is already in the global slice.
    shard_options.graph.ignore_dangling_links = true;
    const size_t node_begin = doc_node_start[shard.doc_base];
    const size_t node_end = doc_node_start[shard.doc_base + shard.doc_count];
    shard_options.precomputed_elem_ranks.assign(
        global_ranks.ranks.begin() + static_cast<ptrdiff_t>(node_begin),
        global_ranks.ranks.begin() + static_cast<ptrdiff_t>(node_end));
    shard_options.disk_dir =
        disk_backed ? options.root_dir + "/" + shard.dir : "";

    std::vector<xml::Document> shard_documents;
    shard_documents.reserve(shard.doc_count);
    for (uint32_t d = 0; d < shard.doc_count; ++d) {
      shard_documents.push_back(std::move(documents[shard.doc_base + d]));
    }

    Result<std::unique_ptr<XRankEngine>> engine = [&] {
      if (open_existing) {
        return XRankEngine::Open(std::move(shard_documents), shard_options);
      }
      if (disk_backed) {
        Status made = MakeDirectory(shard_options.disk_dir);
        if (!made.ok()) {
          return Result<std::unique_ptr<XRankEngine>>(made);
        }
      }
      return XRankEngine::Build(std::move(shard_documents), shard_options);
    }();
    if (!engine.ok()) {
      return Status(engine.status().code(),
                    "shard '" + shard.dir + "': " + engine.status().message());
    }
    if (engine.value()->graph().document_count() != shard.doc_count) {
      return Status::Internal(
          "shard '" + shard.dir + "' serves " +
          std::to_string(engine.value()->graph().document_count()) +
          " documents, expected " + std::to_string(shard.doc_count));
    }
    router->shards_.push_back(Shard{std::move(engine).value()});
  }
  router->manifest_ = std::move(manifest);
  router->analyzer_ = index::Analyzer(options.engine.extraction.analyzer);

  // Commit point for a disk-backed build: every shard directory already
  // committed its own MANIFEST; the root SHARDING file lands last, so a
  // crash anywhere earlier leaves no committed sharded root.
  if (disk_backed && !open_existing) {
    XRANK_RETURN_NOT_OK(
        WriteShardingFile(options.root_dir, router->manifest_));
  }

  size_t threads = options.scatter_threads > 0 ? options.scatter_threads
                                               : router->shards_.size();
  threads = std::min(threads, router->shards_.size());
  router->pool_ = std::make_unique<ThreadPool>(static_cast<int>(threads));
  return router;
}

Result<EngineResponse> ShardRouter::Query(std::string_view query_text,
                                          size_t m, index::IndexKind kind) {
  return Query(query_text, m, kind, options_.engine.query);
}

Result<EngineResponse> ShardRouter::Query(
    std::string_view query_text, size_t m, index::IndexKind kind,
    const query::QueryOptions& query_options,
    std::vector<query::QueryStats>* per_shard_stats) {
  XRANK_ASSIGN_OR_RETURN(
      std::vector<std::string> keywords,
      ParseQueryText(analyzer_, query_text, query_options.trace));
  return QueryKeywords(keywords, m, kind, query_options, per_shard_stats);
}

Result<EngineResponse> ShardRouter::QueryKeywords(
    const std::vector<std::string>& keywords, size_t m,
    index::IndexKind kind) {
  return QueryKeywords(keywords, m, kind, options_.engine.query);
}

Result<EngineResponse> ShardRouter::QueryKeywords(
    const std::vector<std::string>& keywords, size_t m, index::IndexKind kind,
    const query::QueryOptions& query_options,
    std::vector<query::QueryStats>* per_shard_stats) {
  WallTimer wall;
  const size_t n = shards_.size();
  queries_.Increment();

  EngineResponse response;
  query::QueryStats& stats = response.stats;
  std::vector<std::vector<EngineResult>> shard_results(n);
  RangeFanOut fan_out(query_options, "shard");
  Status scattered = fan_out.Run(
      n,
      [&](size_t i, const query::QueryOptions& shard_options)
          -> Result<query::QueryStats> {
        XRANK_ASSIGN_OR_RETURN(
            EngineResponse shard_response,
            shards_[i].engine->QueryKeywords(keywords, m, kind,
                                             shard_options));
        shard_results[i] = std::move(shard_response.results);
        return std::move(shard_response.stats);
      },
      &stats, pool_.get(), &scatter_mutex_);

  const uint64_t raises = fan_out.threshold()->raises();
  theta_raises_.Increment(raises);
  uint64_t skipped = 0;
  for (const RangeFanOut::Range& range : fan_out.ranges()) {
    if (range.skipped) ++skipped;
  }
  shard_queries_.Increment(n - skipped);
  shards_skipped_.Increment(skipped);
  if (!scattered.ok()) {
    if (scattered.code() == StatusCode::kDeadlineExceeded) {
      deadline_exceeded_.Increment();
    } else {
      errors_.Increment();
    }
    return scattered;
  }

  // Gather: rebase every shard's decorated results into the global doc-id
  // space and keep the best m in the monolithic engine's order, so the
  // merged top-m is bitwise-identical to it.
  std::vector<std::string> labels;
  if (per_shard_stats != nullptr) {
    per_shard_stats->assign(n, query::QueryStats{});
  }
  for (size_t i = 0; i < n; ++i) {
    const RangeFanOut::Range& range = fan_out.ranges()[i];
    if (!range.ran) continue;
    stats.switched_to_dil =
        stats.switched_to_dil || range.stats.switched_to_dil;
    stats.threshold_terminated =
        stats.threshold_terminated || range.stats.threshold_terminated;
    const std::string& label = range.stats.algorithm;
    if (!label.empty() &&
        std::find(labels.begin(), labels.end(), label) == labels.end()) {
      labels.push_back(label);
    }
    const uint32_t doc_base = manifest_.shards[i].doc_base;
    for (EngineResult& result : shard_results[i]) {
      result.id = RebaseUp(result.id, doc_base);
      response.results.push_back(std::move(result));
    }
    if (per_shard_stats != nullptr) (*per_shard_stats)[i] = range.stats;
  }
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) stats.algorithm += "+";
    stats.algorithm += labels[i];
  }
  std::sort(response.results.begin(), response.results.end(),
            [](const EngineResult& a, const EngineResult& b) {
              return query::RankOrder(a.rank, a.id, b.rank, b.id);
            });
  if (response.results.size() > m) response.results.resize(m);

  if (stats.partial) partial_results_.Increment();
  if (query_options.trace != nullptr) {
    query_options.trace->AddAnnotation("shards", std::to_string(n));
    query_options.trace->AddAnnotation("theta_raises",
                                       std::to_string(raises));
    if (!stats.algorithm.empty()) {
      query_options.trace->AddAnnotation("merge", stats.algorithm);
    }
  }
  stats.wall_ms = wall.ElapsedSeconds() * 1e3;
  query_us_->Observe(static_cast<uint64_t>(stats.wall_ms * 1e3));
  return response;
}

Status ShardRouter::AddDocument(std::string_view uri,
                                std::string_view xml_text) {
  // The tail shard is the only one whose id space can grow without
  // colliding with a later shard's base range. Refuse a URI a live
  // document of another shard holds (the tail engine checks its own).
  for (size_t i = 0; i + 1 < shards_.size(); ++i) {
    if (shards_[i].engine->HasLiveDocument(uri)) {
      return Status::InvalidArgument("document '" + std::string(uri) +
                                     "' already exists in shard " +
                                     std::to_string(i));
    }
  }
  return shards_.back().engine->AddDocument(uri, xml_text);
}

Status ShardRouter::DeleteDocument(std::string_view uri) {
  for (Shard& shard : shards_) {
    Status status = shard.engine->DeleteDocument(uri);
    if (status.ok() || status.code() != StatusCode::kNotFound) return status;
  }
  return Status::NotFound("document '" + std::string(uri) +
                          "' not found in any shard");
}

Status ShardRouter::WaitForMaintenance() {
  for (Shard& shard : shards_) {
    XRANK_RETURN_NOT_OK(shard.engine->WaitForMaintenance());
  }
  return Status::OK();
}

XRankEngine::ServingCounters ShardRouter::serving_counters(
    index::IndexKind kind) const {
  XRankEngine::ServingCounters total;
  for (const Shard& shard : shards_) {
    XRankEngine::ServingCounters c = shard.engine->serving_counters(kind);
    total.pool_hits += c.pool_hits;
    total.pool_misses += c.pool_misses;
    total.result_cache_hits += c.result_cache_hits;
    total.result_cache_lookups += c.result_cache_lookups;
    total.block_cache_hits += c.block_cache_hits;
    total.block_cache_lookups += c.block_cache_lookups;
    total.deadline_exceeded_queries += c.deadline_exceeded_queries;
    total.partial_result_queries += c.partial_result_queries;
  }
  return total;
}

ShardRouter::RouterCounters ShardRouter::router_counters() const {
  RouterCounters counters;
  counters.queries = queries_.value();
  counters.shard_queries = shard_queries_.value();
  counters.errors = errors_.value();
  counters.partial_results = partial_results_.value();
  counters.deadline_exceeded = deadline_exceeded_.value();
  counters.shards_skipped = shards_skipped_.value();
  counters.theta_raises = theta_raises_.value();
  return counters;
}

}  // namespace xrank::core

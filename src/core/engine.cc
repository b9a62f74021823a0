#include "core/engine.h"

// XRankEngine: Build, Open, the base commit and the serving snapshot. Queries
// are in engine_query.cc, live updates and maintenance in engine_update.cc.

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "core/fan_out.h"
#include "core/result_cache.h"
#include "index/dil_index.h"
#include "index/naive_index.h"
#include "index/rdil_index.h"

namespace xrank::core {

namespace {

std::string IndexFileName(index::IndexKind kind) {
  return std::string(index::IndexKindName(kind)) + ".xrank";
}

// Disk-backed builders write to `<name>.xrank.tmp`; CommitBaseLocked renames
// the temp files to their final names and seals them in the MANIFEST, so a
// crash mid-build never leaves a half-written file under a committed name.
Result<std::unique_ptr<storage::PageFile>> MakePageFile(
    const EngineOptions& options, index::IndexKind kind) {
  if (options.disk_dir.empty()) {
    return storage::PageFile::CreateInMemory();
  }
  std::string path =
      options.disk_dir + "/" + IndexFileName(kind) + ".tmp";
  return storage::PageFile::CreateOnDisk(path);
}

}  // namespace

XRankEngine::~XRankEngine() { StopMaintenanceThread(); }

std::shared_ptr<const XRankEngine::LiveState> XRankEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(live_mutex_);
  return live_;
}

void XRankEngine::Publish(std::shared_ptr<LiveState> next) {
  std::lock_guard<std::mutex> lock(live_mutex_);
  next->epoch = (live_ != nullptr) ? live_->epoch + 1 : 1;
  live_ = std::move(next);
}

Result<std::unique_ptr<XRankEngine>> XRankEngine::Build(
    std::vector<xml::Document> documents, const EngineOptions& options) {
  return Build(std::move(documents), {}, options);
}

Status XRankEngine::PrepareBase(
    const std::vector<xml::Document>& documents,
    const std::vector<xml::Document>& html_documents) {
  analyzer_ = index::Analyzer(options_.extraction.analyzer);
  if (options_.result_cache_entries > 0) {
    result_cache_ = std::make_unique<ResultCache>(
        options_.result_cache_entries);
  }
  if (options_.block_cache_bytes > 0) {
    block_cache_ =
        std::make_unique<index::BlockCache>(options_.block_cache_bytes);
  }

  // 1. Graph construction (Section 2.1 data model).
  graph::GraphBuilder builder(options_.graph);
  for (const xml::Document& doc : documents) {
    XRANK_RETURN_NOT_OK(builder.AddDocument(doc));
  }
  for (const xml::Document& doc : html_documents) {
    XRANK_RETURN_NOT_OK(builder.AddHtmlDocument(doc));
  }
  XRANK_ASSIGN_OR_RETURN(graph_, std::move(builder).Finalize());
  base_doc_count_ = static_cast<uint32_t>(graph_.document_count());

  // 2. ElemRank computation (Section 3) — or injection, when the caller
  // (the shard router) already computed ranks over a larger graph this
  // corpus is a contiguous slice of.
  if (!options_.precomputed_elem_ranks.empty()) {
    if (options_.precomputed_elem_ranks.size() != graph_.node_count()) {
      return Status::InvalidArgument(
          "precomputed_elem_ranks holds " +
          std::to_string(options_.precomputed_elem_ranks.size()) +
          " entries but the graph has " + std::to_string(graph_.node_count()) +
          " nodes");
    }
    elem_rank_result_ = rank::ElemRankResult{};
    elem_rank_result_.ranks = options_.precomputed_elem_ranks;
    elem_rank_result_.converged = true;
    elem_ranks_ = elem_rank_result_.ranks;
    return Status::OK();
  }
  XRANK_ASSIGN_OR_RETURN(elem_rank_result_,
                         rank::ComputeElemRank(graph_, options_.elem_rank));
  elem_ranks_ = elem_rank_result_.ranks;
  return Status::OK();
}

Result<std::unique_ptr<XRankEngine>> XRankEngine::Build(
    std::vector<xml::Document> documents,
    std::vector<xml::Document> html_documents, const EngineOptions& options) {
  auto engine = std::unique_ptr<XRankEngine>(new XRankEngine());
  engine->options_ = options;
  XRANK_RETURN_NOT_OK(engine->PrepareBase(documents, html_documents));

  // 3. Posting extraction (shared by every physical index).
  index::ExtractionOptions extraction = options.extraction;
  extraction.build_naive = std::any_of(options.indexes.begin(),
                                       options.indexes.end(),
                                       index::UsesNaivePostings);
  XRANK_ASSIGN_OR_RETURN(
      index::ExtractionResult extracted,
      index::ExtractPostings(engine->graph_, engine->elem_ranks_, extraction));

  // 4. Physical index construction (Section 4), into temp files when
  // disk-backed.
  auto base = std::make_shared<BaseState>();
  base->ordinal_to_dewey = std::move(extracted.ordinal_to_dewey);
  for (index::IndexKind kind : options.indexes) {
    XRANK_ASSIGN_OR_RETURN(IndexInstance instance,
                           engine->BuildInstance(kind, extracted));
    base->indexes.emplace(kind, std::move(instance));
  }

  // 5. Crash-safe commit: rename temp files and seal them in the MANIFEST.
  XRANK_RETURN_NOT_OK(engine->CommitBaseLocked(base->indexes));

  auto state = std::make_shared<LiveState>();
  state->base = std::move(base);
  state->tombstones = std::make_shared<const std::set<uint32_t>>();
  engine->Publish(std::move(state));
  return engine;
}

Status XRankEngine::CommitBaseLocked(
    std::map<index::IndexKind, IndexInstance>& indexes) {
  if (options_.disk_dir.empty()) return Status::OK();
  auto& failpoints = fail::FailPoints::Instance();

  // Make every temp file durable before exposing it under its final name.
  for (auto& [kind, instance] : indexes) {
    XRANK_RETURN_NOT_OK(instance.built.file->Sync());
  }
  if (auto hit = failpoints.Evaluate("index_commit.before_rename")) {
    fail::DieIfCrashRequested(hit);
    return Status::IOError(
        "injected crash before index rename: temp files written, nothing "
        "committed");
  }
  std::vector<index::ManifestEntry> entries;
  for (auto& [kind, instance] : indexes) {
    std::string name = IndexFileName(kind);
    XRANK_RETURN_NOT_OK(
        index::RenameFile(options_.disk_dir + "/" + name + ".tmp",
                          options_.disk_dir + "/" + name));
    index::ManifestEntry entry;
    entry.file = std::move(name);
    entry.kind = kind;
    entry.page_count = instance.built.file->page_count();
    entry.format = instance.built.lexicon.format_spec();
    // Reading back through the disk page file re-verifies every page's own
    // header checksum while computing the whole-file CRC.
    XRANK_ASSIGN_OR_RETURN(entry.crc,
                           index::ChecksumPageFile(*instance.built.file));
    entries.push_back(std::move(entry));
  }
  if (auto hit = failpoints.Evaluate("index_commit.before_manifest")) {
    fail::DieIfCrashRequested(hit);
    return Status::IOError(
        "injected crash before MANIFEST write: index files renamed but not "
        "committed");
  }
  // The MANIFEST rename inside is the atomic commit point; it also fsyncs
  // the directory, making the data-file renames above durable. Committed
  // live-update segments ride along unchanged.
  index::Manifest next_manifest = manifest_;
  next_manifest.entries = std::move(entries);
  XRANK_RETURN_NOT_OK(index::WriteManifestFile(options_.disk_dir,
                                               next_manifest));
  manifest_ = std::move(next_manifest);
  return Status::OK();
}

Result<std::unique_ptr<XRankEngine>> XRankEngine::Open(
    std::vector<xml::Document> documents, const EngineOptions& options) {
  if (options.disk_dir.empty()) {
    return Status::InvalidArgument("Open requires a disk_dir");
  }
  auto engine = std::unique_ptr<XRankEngine>(new XRankEngine());
  engine->options_ = options;
  XRANK_RETURN_NOT_OK(engine->PrepareBase(documents, {}));

  XRANK_ASSIGN_OR_RETURN(index::Manifest manifest,
                         index::ReadManifestFile(options.disk_dir));
  if (manifest.entries.empty()) {
    return Status::Corruption("MANIFEST in '" + options.disk_dir +
                              "' lists no index files");
  }
  engine->manifest_ = manifest;

  auto base = std::make_shared<BaseState>();
  engine->options_.indexes.clear();
  for (const index::ManifestEntry& entry : manifest.entries) {
    XRANK_RETURN_NOT_OK(index::VerifyManifestEntry(options.disk_dir, entry));
    std::string path = options.disk_dir + "/" + entry.file;
    XRANK_ASSIGN_OR_RETURN(std::unique_ptr<storage::PageFile> file,
                           storage::PageFile::OpenOnDisk(path));
    if (file->page_count() != entry.page_count) {
      return Status::Corruption(
          "'" + path + "' has " + std::to_string(file->page_count()) +
          " pages, MANIFEST expects " + std::to_string(entry.page_count));
    }
    XRANK_ASSIGN_OR_RETURN(index::BuiltIndex built,
                           index::OpenIndex(std::move(file)));
    if (built.kind != entry.kind) {
      return Status::Corruption(
          "'" + path + "' holds a " +
          std::string(index::IndexKindName(built.kind)) +
          " index, MANIFEST expects " +
          std::string(index::IndexKindName(entry.kind)));
    }
    if (!(built.lexicon.format_spec() == entry.format)) {
      return Status::Corruption(
          "'" + path + "' was written with posting codec " +
          std::to_string(built.lexicon.format_spec().codec_id) +
          " / vbmw lambda " +
          std::to_string(built.lexicon.format_spec().vbmw_lambda_milli) +
          ", MANIFEST expects codec " + std::to_string(entry.format.codec_id) +
          " / vbmw lambda " +
          std::to_string(entry.format.vbmw_lambda_milli));
    }
    IndexInstance instance;
    instance.built = std::move(built);
    instance.cost_model =
        std::make_unique<storage::CostModel>(options.cost);
    instance.pool = std::make_unique<storage::BufferPool>(
        instance.built.file.get(), options.buffer_pool_pages,
        instance.cost_model.get());
    engine->options_.indexes.push_back(entry.kind);
    base->indexes.emplace(entry.kind, std::move(instance));
  }

  // Naive result IDs are element ordinals; re-derive the ordinal map from
  // the graph (it is not persisted).
  const std::vector<index::IndexKind>& kinds = engine->options_.indexes;
  if (std::any_of(kinds.begin(), kinds.end(), index::UsesNaivePostings)) {
    index::ExtractionOptions extraction = engine->options_.extraction;
    extraction.build_naive = true;
    XRANK_ASSIGN_OR_RETURN(
        index::ExtractionResult extracted,
        index::ExtractPostings(engine->graph_, engine->elem_ranks_,
                               extraction));
    base->ordinal_to_dewey = std::move(extracted.ordinal_to_dewey);
  }

  auto state = std::make_shared<LiveState>();
  state->base = std::move(base);
  state->tombstones = std::make_shared<const std::set<uint32_t>>();

  // Committed live segments: contiguous global-id ranges continuing past
  // the base corpus.
  index::LiveSegmentOptions segment_options = engine->SegmentOptions();
  uint32_t expected_base = engine->base_doc_count_;
  for (const index::SegmentManifestEntry& entry : manifest.segments) {
    if (entry.doc_base != expected_base) {
      return Status::Corruption(
          "segment '" + entry.index.file + "' starts at document " +
          std::to_string(entry.doc_base) + ", expected " +
          std::to_string(expected_base));
    }
    XRANK_ASSIGN_OR_RETURN(
        std::shared_ptr<index::LiveSegment> segment,
        index::OpenLiveSegment(options.disk_dir, entry, segment_options));
    expected_base += segment->doc_count();
    state->segments.push_back(std::move(segment));
  }

  // WAL replay: re-apply every acknowledged add/delete a crash interrupted.
  XRANK_RETURN_NOT_OK(engine->ReplayWalLocked(state.get()));
  XRANK_RETURN_NOT_OK(engine->OpenWalLocked());
  engine->Publish(std::move(state));
  return engine;
}

Result<XRankEngine::IndexInstance> XRankEngine::BuildInstance(
    index::IndexKind kind, const index::ExtractionResult& extracted) {
  XRANK_ASSIGN_OR_RETURN(std::unique_ptr<storage::PageFile> file,
                         MakePageFile(options_, kind));
  index::BuiltIndex built;
  switch (kind) {
    case index::IndexKind::kDil: {
      XRANK_ASSIGN_OR_RETURN(
          built, index::BuildDilIndex(extracted.dewey_postings,
                                      std::move(file), options_.build));
      break;
    }
    case index::IndexKind::kRdil: {
      XRANK_ASSIGN_OR_RETURN(
          built, index::BuildRdilIndex(extracted.dewey_postings,
                                       std::move(file), options_.build));
      break;
    }
    case index::IndexKind::kHdil: {
      XRANK_ASSIGN_OR_RETURN(
          built, index::BuildHdilIndex(extracted.dewey_postings,
                                       std::move(file), options_.hdil,
                                       options_.build));
      break;
    }
    case index::IndexKind::kNaiveId: {
      XRANK_ASSIGN_OR_RETURN(
          built, index::BuildNaiveIdIndex(extracted.naive_postings,
                                          std::move(file), options_.build));
      break;
    }
    case index::IndexKind::kNaiveRank: {
      XRANK_ASSIGN_OR_RETURN(
          built, index::BuildNaiveRankIndex(extracted.naive_postings,
                                            std::move(file), options_.build));
      break;
    }
  }
  IndexInstance instance;
  instance.built = std::move(built);
  instance.cost_model = std::make_unique<storage::CostModel>(options_.cost);
  instance.pool = std::make_unique<storage::BufferPool>(
      instance.built.file.get(), options_.buffer_pool_pages,
      instance.cost_model.get());
  return instance;
}

void XRankEngine::DropCaches() {
  auto state = Snapshot();
  for (const auto& [kind, instance] : state->base->indexes) {
    instance.pool->DropCache();
    instance.cost_model->ResetStreams();
  }
  for (const auto& segment : state->segments) {
    segment->pool->DropCache();
    segment->cost_model->ResetStreams();
  }
  if (state->delta != nullptr) {
    state->delta->pool->DropCache();
    state->delta->cost_model->ResetStreams();
  }
  if (result_cache_ != nullptr) result_cache_->Clear();
  if (block_cache_ != nullptr) block_cache_->Clear();
}

bool XRankEngine::has_index(index::IndexKind kind) const {
  auto state = Snapshot();
  return state->base->indexes.find(kind) != state->base->indexes.end();
}

const index::IndexStats& XRankEngine::index_stats(
    index::IndexKind kind) const {
  static const index::IndexStats kEmpty;
  auto state = Snapshot();
  auto it = state->base->indexes.find(kind);
  if (it == state->base->indexes.end()) return kEmpty;
  return it->second.built.stats;
}

}  // namespace xrank::core

#include "core/engine.h"

// XRankEngine: the write-ahead log, AddDocument/DeleteDocument, flush, both
// compactions and background maintenance.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>
#include <string_view>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "xml/parser.h"

namespace xrank::core {

namespace {

// Flushed-segment basenames encode the WAL seq range the segment covers, so
// a re-flush after a crash (same pending records, same range) regenerates
// the same name and atomically replaces any half-committed predecessor.
std::string SegmentBaseName(uint64_t first_seq, uint64_t last_seq) {
  return "seg-" + std::to_string(first_seq) + "-" + std::to_string(last_seq);
}

bool SeqCovered(uint64_t seq,
                const std::vector<std::pair<uint64_t, uint64_t>>& covered) {
  for (const auto& [first, last] : covered) {
    if (seq >= first && seq <= last) return true;
  }
  return false;
}

// Durable resolution handle a DeleteDocument WAL record carries in its
// body, so replay re-applies the delete to exactly the document it hit at
// runtime even after compactions renumber global ids:
//   "base:<doc>" — a base-corpus document (base ids are stable forever)
//   "seq:<seq>"  — a live-added document, by its AddDocument seq (stable
//                  under every flush/compaction; resolves to nothing — a
//                  clean no-op — once a compaction drops the document)
std::string BaseDeleteHandle(uint32_t doc) {
  return "base:" + std::to_string(doc);
}
std::string SeqDeleteHandle(uint64_t seq) {
  return "seq:" + std::to_string(seq);
}
Status ParseDeleteHandle(std::string_view body, bool* is_base,
                         uint64_t* value) {
  std::string_view digits;
  uint64_t max = std::numeric_limits<uint64_t>::max();
  if (StartsWith(body, "base:")) {
    *is_base = true;
    digits = body.substr(5);
    max = std::numeric_limits<uint32_t>::max();
  } else if (StartsWith(body, "seq:")) {
    *is_base = false;
    digits = body.substr(4);
  } else {
    return Status::Corruption("delete handle '" + std::string(body) +
                              "' is neither base:<doc> nor seq:<seq>");
  }
  XRANK_ASSIGN_OR_RETURN(
      *value, index::ParseDecimal(digits, max,
                                  *is_base ? "base document id" : "add seq",
                                  "WAL delete handle"));
  return Status::OK();
}

}  // namespace

index::LiveSegmentOptions XRankEngine::SegmentOptions() const {
  index::LiveSegmentOptions options;
  options.graph = options_.graph;
  options.elem_rank = options_.elem_rank;
  options.extraction = options_.extraction;
  options.build = options_.build;
  options.cost = options_.cost;
  return options;
}

Status XRankEngine::OpenWalLocked() {
  if (options_.disk_dir.empty() || wal_ != nullptr) return Status::OK();
  XRANK_ASSIGN_OR_RETURN(
      wal_, storage::LogWriter::Open(
                options_.disk_dir + "/" + storage::kWalFileName,
                /*truncate=*/false));
  return Status::OK();
}

Status XRankEngine::ReplayWalLocked(LiveState* state) {
  const std::string path = options_.disk_dir + "/" + storage::kWalFileName;
  XRANK_ASSIGN_OR_RETURN(storage::LogReadResult read,
                         storage::ReadLogFile(path, /*allow_torn_tail=*/true));
  if (read.torn_tail) {
    // The only legal tear: a crash mid-append. Everything before it is
    // intact; cut the file back to the last record boundary.
    XRANK_RETURN_NOT_OK(storage::TruncateLogFile(path, read.valid_bytes));
    wal_dropped_bytes_.Increment(read.dropped_bytes);
  }
  if (read.records.empty()) return Status::OK();
  wal_replayed_records_.Increment(read.records.size());

  std::vector<std::pair<uint64_t, uint64_t>> covered;
  for (const auto& segment : state->segments) {
    covered.emplace_back(segment->first_seq, segment->last_seq);
  }

  auto tombstones = std::make_shared<std::set<uint32_t>>(*state->tombstones);
  std::vector<storage::LogRecord> pending;  // adds not yet in any segment
  std::vector<size_t> pending_deletes;      // indexes into `pending`
  uint64_t max_seq = 0;
  for (const storage::LogRecord& record : read.records) {
    max_seq = std::max(max_seq, record.seq);
    if (record.type == storage::LogRecord::Type::kAddDocument) {
      // A committed segment already covers this add (the crash hit between
      // segment commit and WAL rewrite); replay is idempotent.
      if (!SeqCovered(record.seq, covered)) pending.push_back(record);
      continue;
    }
    bool is_base = false;
    uint64_t value = 0;
    Status handle = ParseDeleteHandle(record.body, &is_base, &value);
    if (!handle.ok()) {
      return Status::Corruption("WAL delete record (seq " +
                                std::to_string(record.seq) +
                                ") carries an unparseable handle: " +
                                handle.message());
    }
    if (is_base) {
      if (value < base_doc_count_) {
        tombstones->insert(static_cast<uint32_t>(value));
      }
      continue;
    }
    // Live-added document, by AddDocument seq: in a committed segment, in
    // the still-pending adds, or already compacted away (clean no-op).
    bool resolved = false;
    for (const auto& segment : state->segments) {
      for (uint32_t i = 0; i < segment->doc_count(); ++i) {
        if (segment->sources[i].seq == value) {
          tombstones->insert(segment->doc_base + i);
          resolved = true;
          break;
        }
      }
      if (resolved) break;
    }
    if (resolved) continue;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].seq == value) {
        pending_deletes.push_back(i);
        break;
      }
    }
  }
  next_seq_ = max_seq + 1;
  wal_records_ = std::move(read.records);

  if (!pending.empty()) {
    uint32_t delta_base = base_doc_count_;
    for (const auto& segment : state->segments) {
      delta_base += segment->doc_count();
    }
    for (size_t index : pending_deletes) {
      tombstones->insert(delta_base + static_cast<uint32_t>(index));
    }
    XRANK_ASSIGN_OR_RETURN(
        std::shared_ptr<index::LiveSegment> delta,
        index::BuildLiveSegment(std::move(pending), delta_base,
                                SegmentOptions(),
                                storage::PageFile::CreateInMemory()));
    state->delta = std::move(delta);
  }
  state->tombstones = std::move(tombstones);
  return Status::OK();
}

Status XRankEngine::AppendWalLocked(const storage::LogRecord& record) {
  if (options_.disk_dir.empty()) return Status::OK();
  XRANK_RETURN_NOT_OK(OpenWalLocked());
  const uint64_t durable_bytes = wal_->file_bytes();
  Status appended = wal_->Append(record);
  if (appended.ok()) appended = wal_->Sync();
  if (!appended.ok()) {
    // The record is not acknowledged, so it must not survive: a failed
    // append may have left a torn frame (and a failed fsync an undurable
    // one) — cut the file back to the last acknowledged boundary so later
    // appends and recovery read a clean log.
    const std::string path = wal_->path();
    wal_.reset();
    (void)storage::TruncateLogFile(path, durable_bytes);
    return appended;
  }
  wal_records_.push_back(record);
  wal_appends_.Increment();
  return Status::OK();
}

Status XRankEngine::RewriteWalLocked(
    const std::vector<std::pair<uint64_t, uint64_t>>& covered) {
  if (options_.disk_dir.empty()) return Status::OK();
  const std::string path = options_.disk_dir + "/" + storage::kWalFileName;
  const std::string tmp_path = path + ".tmp";
  // Delete records always stay: their handles resolve precisely (or no-op),
  // so replaying them is always safe, and keeping them preserves tombstones
  // on base documents across every restart.
  std::vector<storage::LogRecord> keep;
  for (const storage::LogRecord& record : wal_records_) {
    if (record.type == storage::LogRecord::Type::kAddDocument &&
        SeqCovered(record.seq, covered)) {
      continue;
    }
    keep.push_back(record);
  }
  wal_.reset();  // release the live file before replacing it
  {
    XRANK_ASSIGN_OR_RETURN(std::unique_ptr<storage::LogWriter> writer,
                           storage::LogWriter::Open(tmp_path,
                                                    /*truncate=*/true));
    for (const storage::LogRecord& record : keep) {
      XRANK_RETURN_NOT_OK(writer->Append(record));
    }
    XRANK_RETURN_NOT_OK(writer->Sync());
  }
  // Crash window: the tmp file exists but the WAL is the old one — replay
  // skips the covered records via the manifest seq ranges, so both sides of
  // the rename recover to the same state.
  if (auto hit = fail::FailPoints::Instance().Evaluate("wal.rewrite_rename")) {
    fail::DieIfCrashRequested(hit);
    return Status::IOError("injected crash before WAL rewrite rename");
  }
  XRANK_RETURN_NOT_OK(index::RenameFile(tmp_path, path));
  XRANK_RETURN_NOT_OK(index::SyncDirectory(options_.disk_dir));
  wal_records_ = std::move(keep);
  return OpenWalLocked();
}

Status XRankEngine::AddDocument(std::string_view uri,
                                std::string_view xml_text) {
  // Parse outside the lock: a malformed document must not reach the WAL.
  XRANK_ASSIGN_OR_RETURN(
      xml::Document parsed,
      xml::ParseDocument(xml_text, std::string(uri)));
  (void)parsed;

  std::unique_lock<std::mutex> lock(update_mutex_);
  if (options_.background_maintenance && !maintenance_thread_.joinable()) {
    maintenance_thread_ = std::thread(&XRankEngine::MaintenanceLoop, this);
  }

  // Backpressure: a full delta slows producers down instead of failing
  // them — wait for the background flush to drain it.
  auto delta_count = [this] {
    auto state = Snapshot();
    return state->delta != nullptr ? state->delta->doc_count() : 0u;
  };
  bool waited = false;
  WallTimer wait_timer;
  while (delta_count() >= options_.max_delta_documents) {
    if (!options_.background_maintenance) {
      XRANK_RETURN_NOT_OK(FlushLocked());
      continue;
    }
    if (!waited) {
      waited = true;
      wait_timer.Reset();
      backpressure_waits_.Increment();
    }
    RequestMaintenance();
    backpressure_cv_.wait(lock, [&] {
      if (delta_count() < options_.max_delta_documents) return true;
      std::lock_guard<std::mutex> ml(maintenance_mutex_);
      return !maintenance_status_.ok();
    });
    if (delta_count() >= options_.max_delta_documents) {
      std::lock_guard<std::mutex> ml(maintenance_mutex_);
      if (!maintenance_status_.ok()) return maintenance_status_;
    }
  }
  if (waited) {
    backpressure_us_->Observe(
        static_cast<uint64_t>(wait_timer.ElapsedSeconds() * 1e6));
  }

  auto state = Snapshot();
  if (ResolveLiveUri(*state, uri).has_value()) {
    return Status::InvalidArgument("document with uri '" + std::string(uri) +
                                   "' already exists");
  }

  storage::LogRecord record;
  record.type = storage::LogRecord::Type::kAddDocument;
  record.seq = next_seq_;
  record.uri = std::string(uri);
  record.body = std::string(xml_text);
  // Durability before visibility: the fsynced WAL record is the commit
  // point of the add.
  XRANK_RETURN_NOT_OK(AppendWalLocked(record));
  ++next_seq_;

  std::vector<storage::LogRecord> sources;
  uint32_t delta_base;
  if (state->delta != nullptr) {
    sources = state->delta->sources;
    delta_base = state->delta->doc_base;
  } else {
    delta_base = base_doc_count_;
    for (const auto& segment : state->segments) {
      delta_base += segment->doc_count();
    }
  }
  sources.push_back(std::move(record));
  XRANK_ASSIGN_OR_RETURN(
      std::shared_ptr<index::LiveSegment> delta,
      index::BuildLiveSegment(std::move(sources), delta_base,
                              SegmentOptions(),
                              storage::PageFile::CreateInMemory()));
  std::shared_ptr<const index::LiveSegment> retired = state->delta;
  auto next = std::make_shared<LiveState>(*state);
  next->delta = std::move(delta);
  next->content_seq = state->content_seq + 1;
  bool request_flush =
      next->delta->doc_count() >= options_.flush_delta_documents;
  Publish(std::move(next));
  if (retired != nullptr && block_cache_ != nullptr) {
    block_cache_->EraseFile(retired->built.file->file_id());
  }
  add_documents_->Increment();
  if (request_flush) {
    if (options_.background_maintenance) {
      RequestMaintenance();
    } else {
      XRANK_RETURN_NOT_OK(FlushLocked());
    }
  }
  return Status::OK();
}

std::optional<std::pair<uint32_t, std::string>> XRankEngine::ResolveLiveUri(
    const LiveState& state, std::string_view uri) const {
  const std::set<uint32_t>& tombstones = *state.tombstones;
  auto live = [&](uint32_t global) { return tombstones.count(global) == 0; };
  if (state.delta != nullptr) {
    if (std::optional<uint32_t> local = state.delta->FindUri(uri)) {
      uint32_t global = state.delta->doc_base + *local;
      if (live(global)) {
        return std::make_pair(
            global, SeqDeleteHandle(state.delta->sources[*local].seq));
      }
    }
  }
  for (auto it = state.segments.rbegin(); it != state.segments.rend(); ++it) {
    if (std::optional<uint32_t> local = (*it)->FindUri(uri)) {
      uint32_t global = (*it)->doc_base + *local;
      if (live(global)) {
        return std::make_pair(global,
                              SeqDeleteHandle((*it)->sources[*local].seq));
      }
    }
  }
  for (uint32_t doc = 0; doc < base_doc_count_; ++doc) {
    if (graph_.documents()[doc].uri == uri && live(doc)) {
      return std::make_pair(doc, BaseDeleteHandle(doc));
    }
  }
  return std::nullopt;
}

bool XRankEngine::HasLiveDocument(std::string_view uri) const {
  return ResolveLiveUri(*Snapshot(), uri).has_value();
}

Status XRankEngine::DeleteDocument(std::string_view uri) {
  std::unique_lock<std::mutex> lock(update_mutex_);
  auto state = Snapshot();
  std::optional<std::pair<uint32_t, std::string>> resolved =
      ResolveLiveUri(*state, uri);
  if (!resolved.has_value()) {
    return Status::NotFound("no document with uri '" + std::string(uri) +
                            "'");
  }
  storage::LogRecord record;
  record.type = storage::LogRecord::Type::kDeleteDocument;
  record.seq = next_seq_;
  record.uri = std::string(uri);
  record.body = resolved->second;
  XRANK_RETURN_NOT_OK(AppendWalLocked(record));
  ++next_seq_;

  auto tombstones = std::make_shared<std::set<uint32_t>>(*state->tombstones);
  tombstones->insert(resolved->first);
  auto next = std::make_shared<LiveState>(*state);
  next->tombstones = std::move(tombstones);
  // The content version advances, so cached responses that may contain the
  // tombstoned document stop being looked up — no cache sweep needed.
  next->content_seq = state->content_seq + 1;
  Publish(std::move(next));
  delete_documents_->Increment();
  return Status::OK();
}

Status XRankEngine::Flush() {
  std::unique_lock<std::mutex> lock(update_mutex_);
  return FlushLocked();
}

Result<std::shared_ptr<index::LiveSegment>> XRankEngine::WriteSegmentLocked(
    std::vector<storage::LogRecord> sources, uint32_t doc_base,
    const std::string& failpoint, index::SegmentManifestEntry* entry) {
  const std::string name =
      SegmentBaseName(sources.front().seq, sources.back().seq);
  const std::string index_path = options_.disk_dir + "/" + name + ".xrank";
  const std::string docs_path = options_.disk_dir + "/" + name + ".docs";
  XRANK_ASSIGN_OR_RETURN(std::unique_ptr<storage::PageFile> file,
                         storage::PageFile::CreateOnDisk(index_path + ".tmp"));
  XRANK_ASSIGN_OR_RETURN(
      std::shared_ptr<index::LiveSegment> segment,
      index::BuildLiveSegment(std::move(sources), doc_base, SegmentOptions(),
                              std::move(file)));
  {
    XRANK_ASSIGN_OR_RETURN(std::unique_ptr<storage::LogWriter> docs,
                           storage::LogWriter::Open(docs_path + ".tmp",
                                                    /*truncate=*/true));
    for (const storage::LogRecord& record : segment->sources) {
      XRANK_RETURN_NOT_OK(docs->Append(record));
    }
    XRANK_RETURN_NOT_OK(docs->Sync());
  }
  XRANK_RETURN_NOT_OK(segment->built.file->Sync());
  // Crash window: temp files only — the committed segments still serve and
  // reopen replays the WAL, nothing lost.
  auto& failpoints = fail::FailPoints::Instance();
  if (auto hit = failpoints.Evaluate(failpoint + ".before_rename")) {
    fail::DieIfCrashRequested(hit);
    return Status::IOError("injected crash at " + failpoint +
                           ".before_rename: temp files written, nothing "
                           "new committed");
  }
  // The name can collide with a committed segment's (a re-flush after a
  // crash, or compacting a single segment in place); rename replaces it
  // atomically and an already-open old page file stays readable.
  XRANK_RETURN_NOT_OK(index::RenameFile(index_path + ".tmp", index_path));
  XRANK_RETURN_NOT_OK(index::RenameFile(docs_path + ".tmp", docs_path));

  entry->index.file = name + ".xrank";
  entry->index.kind = index::IndexKind::kDil;
  entry->index.page_count = segment->built.file->page_count();
  entry->index.format = segment->built.lexicon.format_spec();
  XRANK_ASSIGN_OR_RETURN(entry->index.crc,
                         index::ChecksumPageFile(*segment->built.file));
  entry->docs_file = name + ".docs";
  XRANK_ASSIGN_OR_RETURN(auto docs_sum, storage::ChecksumFile(docs_path));
  entry->docs_bytes = docs_sum.first;
  entry->docs_crc = docs_sum.second;
  entry->doc_base = segment->doc_base;
  entry->doc_count = segment->doc_count();
  entry->first_seq = segment->first_seq;
  entry->last_seq = segment->last_seq;
  return segment;
}

Status XRankEngine::FlushLocked() {
  auto state = Snapshot();
  if (state->delta == nullptr) return Status::OK();
  std::shared_ptr<const index::LiveSegment> flushed;
  Status wal_status;

  if (options_.disk_dir.empty()) {
    // In-memory engines: the delta already is a self-contained segment.
    flushed = state->delta;
  } else {
    // Rebuild the delta's index into an on-disk page file (same sources,
    // same per-document ranks — bitwise the same postings).
    index::SegmentManifestEntry entry;
    XRANK_ASSIGN_OR_RETURN(
        std::shared_ptr<index::LiveSegment> segment,
        WriteSegmentLocked(state->delta->sources, state->delta->doc_base,
                           "segment_flush", &entry));

    // Crash window: files renamed but no MANIFEST — reopen ignores the
    // stray files, replays the WAL, and the next flush re-renames over
    // them (same name, same content).
    if (auto hit = fail::FailPoints::Instance().Evaluate(
            "segment_flush.before_manifest")) {
      fail::DieIfCrashRequested(hit);
      return Status::IOError(
          "injected crash before segment MANIFEST commit: segment files "
          "renamed but not committed");
    }
    index::Manifest next_manifest = manifest_;
    next_manifest.segments.push_back(std::move(entry));
    XRANK_RETURN_NOT_OK(
        index::WriteManifestFile(options_.disk_dir, next_manifest));
    manifest_ = std::move(next_manifest);

    // Crash window: segment committed, WAL still holds the covered adds —
    // replay skips them via the manifest seq range (idempotent). A plain
    // rewrite failure is reported, but the flush itself has committed.
    wal_status =
        RewriteWalLocked({{segment->first_seq, segment->last_seq}});
    flushed = std::move(segment);
  }

  std::shared_ptr<const index::LiveSegment> retired = state->delta;
  auto next = std::make_shared<LiveState>(*state);
  next->segments.push_back(flushed);
  next->delta = nullptr;
  // content_seq unchanged: a flush regroups identical content, so every
  // cached response stays valid (and warm).
  Publish(std::move(next));
  if (retired != flushed && block_cache_ != nullptr) {
    block_cache_->EraseFile(retired->built.file->file_id());
  }
  flushes_.Increment();
  backpressure_cv_.notify_all();
  return wal_status;
}

Status XRankEngine::CompactSegments() {
  std::unique_lock<std::mutex> lock(update_mutex_);
  return CompactSegmentsLocked();
}

Status XRankEngine::CompactSegmentsLocked() {
  auto state = Snapshot();
  if (state->segments.empty()) return Status::OK();
  const std::set<uint32_t>& tombstones = *state->tombstones;

  std::vector<storage::LogRecord> merged;
  std::vector<std::pair<uint64_t, uint64_t>> old_spans;
  uint64_t dropped = 0;
  for (const auto& segment : state->segments) {
    old_spans.emplace_back(segment->first_seq, segment->last_seq);
    for (uint32_t i = 0; i < segment->doc_count(); ++i) {
      if (tombstones.count(segment->doc_base + i) > 0) {
        ++dropped;
        continue;
      }
      merged.push_back(segment->sources[i]);
    }
  }
  if (state->segments.size() < 2 && dropped == 0) return Status::OK();

  const uint32_t doc_base = base_doc_count_;
  std::shared_ptr<const index::LiveSegment> compacted;
  // Stays empty (file names included) when every document was dropped.
  index::SegmentManifestEntry entry;

  if (!merged.empty()) {
    if (options_.disk_dir.empty()) {
      XRANK_ASSIGN_OR_RETURN(
          compacted,
          index::BuildLiveSegment(std::move(merged), doc_base,
                                  SegmentOptions(),
                                  storage::PageFile::CreateInMemory()));
    } else {
      XRANK_ASSIGN_OR_RETURN(compacted,
                             WriteSegmentLocked(std::move(merged), doc_base,
                                                "segment_compact", &entry));
    }
  }

  Status wal_status;
  if (!options_.disk_dir.empty()) {
    // Crash window: merged files renamed, MANIFEST still lists the old
    // segments — reopen serves the old ones (their files are untouched
    // unless the merged name replaced one 1:1, in which case the content
    // is identical by construction).
    if (auto hit = fail::FailPoints::Instance().Evaluate(
            "segment_compact.before_manifest")) {
      fail::DieIfCrashRequested(hit);
      return Status::IOError(
          "injected crash before compaction MANIFEST commit: merged files "
          "renamed but old segments still committed");
    }
    index::Manifest next_manifest = manifest_;
    std::vector<index::SegmentManifestEntry> retired_entries =
        std::move(next_manifest.segments);
    next_manifest.segments.clear();
    if (compacted != nullptr) next_manifest.segments.push_back(entry);
    XRANK_RETURN_NOT_OK(
        index::WriteManifestFile(options_.disk_dir, next_manifest));
    manifest_ = std::move(next_manifest);
    // Retired segment files: best-effort unlink after the commit point.
    for (const index::SegmentManifestEntry& old_entry : retired_entries) {
      if (old_entry.index.file != entry.index.file) {
        std::remove(
            (options_.disk_dir + "/" + old_entry.index.file).c_str());
      }
      if (old_entry.docs_file != entry.docs_file) {
        std::remove((options_.disk_dir + "/" + old_entry.docs_file).c_str());
      }
    }
    // Adds covered by the retired spans live in the merged segment (or
    // were deliberately dropped); they must not replay.
    wal_status = RewriteWalLocked(old_spans);
  }

  // Remap tombstones: base ids are untouched; segment-range tombstones
  // died with their documents; delta-range ids shift down by the number of
  // dropped documents.
  uint32_t old_delta_base = base_doc_count_;
  for (const auto& segment : state->segments) {
    old_delta_base += segment->doc_count();
  }
  const uint32_t new_delta_base =
      doc_base + (compacted != nullptr ? compacted->doc_count() : 0);
  auto remapped = std::make_shared<std::set<uint32_t>>();
  for (uint32_t t : tombstones) {
    if (t < base_doc_count_) {
      remapped->insert(t);
    } else if (t >= old_delta_base) {
      remapped->insert(t - old_delta_base + new_delta_base);
    }
  }

  // The delta's documents renumber when documents were dropped below them;
  // rebuild it (it is small) at its new doc_base.
  std::shared_ptr<const index::LiveSegment> delta = state->delta;
  std::shared_ptr<const index::LiveSegment> retired_delta;
  if (delta != nullptr && new_delta_base != old_delta_base) {
    retired_delta = delta;
    XRANK_ASSIGN_OR_RETURN(
        std::shared_ptr<index::LiveSegment> rebuilt,
        index::BuildLiveSegment(delta->sources, new_delta_base,
                                SegmentOptions(),
                                storage::PageFile::CreateInMemory()));
    delta = std::move(rebuilt);
  }

  auto next = std::make_shared<LiveState>(*state);
  next->segments.clear();
  if (compacted != nullptr) next->segments.push_back(compacted);
  next->delta = std::move(delta);
  next->tombstones = std::move(remapped);
  // Dropping documents renumbers global ids in query results; cached
  // responses would hand out the old numbering.
  if (dropped > 0) next->content_seq = state->content_seq + 1;
  Publish(std::move(next));

  if (block_cache_ != nullptr) {
    for (const auto& segment : state->segments) {
      if (segment != compacted) {
        block_cache_->EraseFile(segment->built.file->file_id());
      }
    }
    if (retired_delta != nullptr) {
      block_cache_->EraseFile(retired_delta->built.file->file_id());
    }
  }
  compactions_.Increment();
  return wal_status;
}

Status XRankEngine::CompactDeletions() {
  std::unique_lock<std::mutex> lock(update_mutex_);
  return CompactDeletionsLocked();
}

Status XRankEngine::CompactDeletionsLocked() {
  auto state = Snapshot();
  std::vector<uint32_t> excluded;
  for (uint32_t t : *state->tombstones) {
    if (t < base_doc_count_) excluded.push_back(t);
  }
  if (excluded.empty()) return Status::OK();
  auto& failpoints = fail::FailPoints::Instance();

  index::ExtractionOptions extraction = options_.extraction;
  extraction.build_naive = std::any_of(options_.indexes.begin(),
                                       options_.indexes.end(),
                                       index::UsesNaivePostings);
  extraction.exclude_documents = std::move(excluded);
  XRANK_ASSIGN_OR_RETURN(
      index::ExtractionResult extracted,
      index::ExtractPostings(graph_, elem_ranks_, extraction));

  // Rebuild off to the side; the serving snapshot is untouched until the
  // publish below, so a crash or failure here loses nothing.
  auto base = std::make_shared<BaseState>();
  base->ordinal_to_dewey = std::move(extracted.ordinal_to_dewey);
  for (const auto& [kind, instance] : state->base->indexes) {
    // Crash window (one evaluation per index kind): a kill between per-kind
    // rebuilds leaves temp files only — the committed index still serves.
    if (auto hit = failpoints.Evaluate("compact.rebuild")) {
      fail::DieIfCrashRequested(hit);
      return Status::IOError(
          "injected failure between compaction index rebuilds");
    }
    XRANK_ASSIGN_OR_RETURN(IndexInstance fresh, BuildInstance(kind, extracted));
    base->indexes.emplace(kind, std::move(fresh));
  }
  // Re-commit so the on-disk MANIFEST matches the compacted files (segment
  // entries ride along unchanged). A crash before the new MANIFEST rename
  // leaves a checksum mismatch that Open reports instead of serving torn
  // state.
  XRANK_RETURN_NOT_OK(CommitBaseLocked(base->indexes));

  auto next = std::make_shared<LiveState>(*state);
  next->base = base;
  // Results are unchanged (the tombstone filter already hid the deleted
  // documents), so cached responses stay valid — content_seq is untouched
  // and the tombstone set intentionally survives: it keeps filtering,
  // harmlessly, now that the postings are gone.
  Publish(std::move(next));
  if (block_cache_ != nullptr) {
    for (const auto& [kind, instance] : state->base->indexes) {
      block_cache_->EraseFile(instance.built.file->file_id());
    }
  }
  return Status::OK();
}

void XRankEngine::RequestMaintenance() {
  std::lock_guard<std::mutex> lock(maintenance_mutex_);
  maintenance_requested_ = true;
  maintenance_cv_.notify_one();
}

Status XRankEngine::MaintainOnce() {
  std::unique_lock<std::mutex> lock(update_mutex_);
  auto state = Snapshot();
  if (state->delta != nullptr &&
      state->delta->doc_count() >= options_.flush_delta_documents) {
    XRANK_RETURN_NOT_OK(FlushLocked());
    state = Snapshot();
  }
  if (options_.compact_segment_count > 0 &&
      state->segments.size() >= options_.compact_segment_count) {
    XRANK_RETURN_NOT_OK(CompactSegmentsLocked());
  }
  return Status::OK();
}

void XRankEngine::MaintenanceLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(maintenance_mutex_);
      maintenance_cv_.wait(lock, [this] {
        return maintenance_stop_ || maintenance_requested_;
      });
      if (maintenance_stop_) return;
      maintenance_requested_ = false;
      maintenance_active_ = true;
    }
    Status status = MaintainOnce();
    {
      std::lock_guard<std::mutex> lock(maintenance_mutex_);
      maintenance_active_ = false;
      // Sticky: a failure stays visible (to WaitForMaintenance and blocked
      // producers) until a later pass succeeds.
      maintenance_status_ = std::move(status);
      maintenance_idle_cv_.notify_all();
    }
    backpressure_cv_.notify_all();
  }
}

Status XRankEngine::WaitForMaintenance() {
  std::unique_lock<std::mutex> lock(maintenance_mutex_);
  maintenance_idle_cv_.wait(lock, [this] {
    return !maintenance_requested_ && !maintenance_active_;
  });
  return maintenance_status_;
}

void XRankEngine::StopMaintenanceThread() {
  {
    std::lock_guard<std::mutex> lock(maintenance_mutex_);
    maintenance_stop_ = true;
    maintenance_cv_.notify_all();
  }
  if (maintenance_thread_.joinable()) maintenance_thread_.join();
}

size_t XRankEngine::deleted_document_count() const {
  return Snapshot()->tombstones->size();
}

XRankEngine::UpdateCounters XRankEngine::update_counters() const {
  auto state = Snapshot();
  UpdateCounters counters;
  counters.wal_appends = wal_appends_.value();
  counters.wal_replayed_records = wal_replayed_records_.value();
  counters.wal_dropped_bytes = wal_dropped_bytes_.value();
  counters.flushes = flushes_.value();
  counters.compactions = compactions_.value();
  counters.backpressure_waits = backpressure_waits_.value();
  counters.segment_count = state->segments.size();
  counters.delta_documents =
      state->delta != nullptr ? state->delta->doc_count() : 0;
  counters.added_documents = counters.delta_documents;
  for (const auto& segment : state->segments) {
    counters.added_documents += segment->doc_count();
  }
  counters.content_seq = state->content_seq;
  counters.epoch = state->epoch;
  return counters;
}

}  // namespace xrank::core

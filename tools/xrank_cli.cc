// xrank_cli — index XML files and run interactive ranked keyword queries.
//
//   xrank_cli [query] [options] <file.xml ...>
//     --index=dil|rdil|hdil|naive-id|naive-rank   (default hdil)
//     --shards=N                                  (partition the corpus
//                                                  across N engine shards
//                                                  and serve scatter-gather
//                                                  top-k through the shard
//                                                  router; θ forwards
//                                                  between shards)
//     --disk-dir=DIR                              (with --shards: commit a
//                                                  sharded root under DIR —
//                                                  per-shard MANIFESTs plus
//                                                  a SHARDING file; when DIR
//                                                  already holds a SHARDING
//                                                  file the root is
//                                                  re-opened and validated
//                                                  instead of rebuilt)
//     --codec=varint|bp128                        (posting codec, default
//                                                  varint)
//     --vbmw-lambda=MILLI                         (variable-sized list
//                                                  pages: close a page
//                                                  early when its rank
//                                                  waste exceeds
//                                                  MILLI/1000; 0 = dense)
//     --algorithm=auto|exhaustive|maxscore|bmw    (disjunctive/mixed merge
//                                                  strategy; default auto)
//     --top=N                                     (default 10)
//     --disjunctive                               (OR semantics, DIL only)
//     --answer-nodes=tag1,tag2,...                (Section 2.2 answer nodes)
//     --query="..."                               (one-shot; else REPL)
//     --trace                                     (per-stage timings and
//                                                  per-term counters after
//                                                  each query's results)
//     --json                                      (with --trace: emit the
//                                                  trace as JSON)
//
//   xrank_cli stats [--json] [options] <file.xml ...>
//     Builds the index (running --query first if given) and dumps the
//     process-wide metrics registry — query/IO/cache counters and latency
//     histograms — as a table, or as strict JSON with --json.
//
//   xrank_cli verify [--disk-dir=]<index-dir>
//     Offline integrity check of a committed index directory: validates the
//     MANIFEST, then every file's page count, per-page checksums, and
//     whole-file CRC — base index files and flushed live segments alike —
//     and finally reads the write-ahead log (a torn tail is reported but is
//     not damage: recovery truncates it). Reports the first bad page of
//     each damaged file. A sharded root (SHARDING file present) is verified
//     shard by shard after its partition manifest validates.
//
//   xrank_cli ingest --disk-dir=DIR [options] [--base=f.xml ...]
//             [--add=f.xml ...] [--delete=uri ...]
//     Live-update driver (and crash-recovery harness hook). Builds the base
//     index into DIR on the first run (--base files), re-opens it on later
//     runs, then applies --add/--delete in argv order with inline
//     maintenance. After every acknowledged operation an "ACK <op> <arg>"
//     line is written to stdout and flushed, so a harness that kill -9s the
//     process knows exactly which operations were durably acknowledged.
//       --flush-every=N      flush the delta after every N adds
//       --compact            merge all flushed segments at the end
//       --crash-at=NAME[:K]  arm failpoint NAME (skip first K hits) with
//                            the crash action — the process dies with
//                            status 137 at that commit-protocol window
//       --query="..."        run a query after ingest and print results
//
// Example:
//   ./build/tools/xrank_cli --top=5 corpus/*.xml
//   > xql language

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/shard_router.h"
#include "index/codec.h"
#include "index/manifest.h"
#include "query/query.h"
#include "query/trace.h"
#include "storage/wal.h"
#include "xml/parser.h"

namespace {

using xrank::core::EngineOptions;
using xrank::core::EngineResponse;
using xrank::core::ShardRouter;
using xrank::core::ShardRouterOptions;
using xrank::core::XRankEngine;
using xrank::index::IndexKind;

struct CliOptions {
  IndexKind kind = IndexKind::kHdil;
  xrank::index::PostingFormatSpec format;
  xrank::query::MergeAlgorithm algorithm =
      xrank::query::MergeAlgorithm::kAuto;
  size_t top = 10;
  size_t shards = 0;  // 0 = monolithic engine, N >= 1 = shard router
  std::string disk_dir;
  bool disjunctive = false;
  bool trace = false;
  bool json = false;
  std::vector<std::string> answer_nodes;
  std::string one_shot_query;
  std::vector<std::string> files;
};

bool ParseIndexKind(const std::string& name, IndexKind* kind) {
  if (name == "dil") {
    *kind = IndexKind::kDil;
  } else if (name == "rdil") {
    *kind = IndexKind::kRdil;
  } else if (name == "hdil") {
    *kind = IndexKind::kHdil;
  } else if (name == "naive-id") {
    *kind = IndexKind::kNaiveId;
  } else if (name == "naive-rank") {
    *kind = IndexKind::kNaiveRank;
  } else {
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* options, int first = 1) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (xrank::StartsWith(arg, "--index=")) {
      if (!ParseIndexKind(arg.substr(8), &options->kind)) {
        std::fprintf(stderr, "unknown index kind '%s'\n", arg.c_str() + 8);
        return false;
      }
    } else if (xrank::StartsWith(arg, "--codec=")) {
      const xrank::index::PostingCodec* codec =
          xrank::index::FindPostingCodecByName(arg.substr(8));
      if (codec == nullptr) {
        std::fprintf(stderr, "unknown posting codec '%s'\n", arg.c_str() + 8);
        return false;
      }
      options->format.codec_id = codec->id();
    } else if (xrank::StartsWith(arg, "--algorithm=")) {
      std::string name = arg.substr(12);
      if (name == "auto") {
        options->algorithm = xrank::query::MergeAlgorithm::kAuto;
      } else if (name == "exhaustive") {
        options->algorithm = xrank::query::MergeAlgorithm::kExhaustive;
      } else if (name == "maxscore") {
        options->algorithm = xrank::query::MergeAlgorithm::kMaxScore;
      } else if (name == "bmw") {
        options->algorithm = xrank::query::MergeAlgorithm::kBlockMaxWand;
      } else {
        std::fprintf(stderr, "unknown merge algorithm '%s'\n", name.c_str());
        return false;
      }
    } else if (xrank::StartsWith(arg, "--vbmw-lambda=")) {
      options->format.vbmw_lambda_milli = static_cast<uint32_t>(
          std::strtoul(arg.c_str() + 14, nullptr, 10));
    } else if (xrank::StartsWith(arg, "--top=")) {
      options->top = std::strtoul(arg.c_str() + 6, nullptr, 10);
      if (options->top == 0) options->top = 10;
    } else if (xrank::StartsWith(arg, "--shards=")) {
      options->shards = std::strtoul(arg.c_str() + 9, nullptr, 10);
      if (options->shards == 0) {
        std::fprintf(stderr, "--shards needs a positive shard count\n");
        return false;
      }
    } else if (xrank::StartsWith(arg, "--disk-dir=")) {
      options->disk_dir = arg.substr(11);
    } else if (arg == "--disjunctive") {
      options->disjunctive = true;
    } else if (arg == "--trace") {
      options->trace = true;
    } else if (arg == "--json") {
      options->json = true;
    } else if (xrank::StartsWith(arg, "--answer-nodes=")) {
      for (auto piece : xrank::SplitString(arg.substr(15), ",")) {
        options->answer_nodes.emplace_back(piece);
      }
    } else if (xrank::StartsWith(arg, "--query=")) {
      options->one_shot_query = arg.substr(8);
    } else if (xrank::StartsWith(arg, "--")) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    } else {
      options->files.push_back(arg);
    }
  }
  return !options->files.empty();
}

void PrintResponse(const EngineResponse& response) {
  if (response.results.empty()) {
    std::printf("  (no results)\n");
    return;
  }
  for (size_t i = 0; i < response.results.size(); ++i) {
    const auto& result = response.results[i];
    std::printf("  %2zu. <%s> %s  rank=%.7f  dewey=%s\n", i + 1,
                result.element_tag.c_str(), result.document_uri.c_str(),
                result.rank, result.id.ToString().c_str());
    std::printf("      \"%s\"\n", result.snippet.c_str());
  }
  std::printf("  [%llu postings, %llu random + %llu sequential reads, "
              "%llu blocks pruned, %llu block-cache hits, %.2f ms%s%s]\n",
              static_cast<unsigned long long>(
                  response.stats.postings_scanned),
              static_cast<unsigned long long>(response.stats.random_reads),
              static_cast<unsigned long long>(
                  response.stats.sequential_reads),
              static_cast<unsigned long long>(response.stats.blocks_pruned),
              static_cast<unsigned long long>(
                  response.stats.block_cache_hits),
              response.stats.wall_ms,
              response.stats.switched_to_dil ? ", switched to DIL" : "",
              response.stats.result_cache_hit ? ", result-cache hit" : "");
  if (!response.stats.algorithm.empty()) {
    std::printf("  [merge=%s, %llu docs skipped, %llu pivot advances]\n",
                response.stats.algorithm.c_str(),
                static_cast<unsigned long long>(response.stats.docs_skipped),
                static_cast<unsigned long long>(
                    response.stats.pivot_advances));
  }
}

// Verifies one committed engine directory (MANIFEST, data files, flushed
// segments, WAL), printing a line per file. Returns the number of damaged
// files; an unreadable MANIFEST counts as one.
int VerifyIndexDir(const std::string& dir) {
  auto manifest = xrank::index::ReadManifestFile(dir);
  if (!manifest.ok()) {
    std::printf("%s: %s\n", dir.c_str(),
                manifest.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: MANIFEST lists %zu committed file(s)\n", dir.c_str(),
              manifest->entries.size());
  int damaged = 0;
  for (const auto& entry : manifest->entries) {
    xrank::storage::PageId first_bad = xrank::storage::kInvalidPage;
    xrank::Status status =
        xrank::index::VerifyManifestEntry(dir, entry, &first_bad);
    if (status.ok()) {
      // ParseManifest refuses unregistered codecs, so the lookup cannot miss.
      const xrank::index::PostingCodec* codec =
          xrank::index::FindPostingCodec(entry.format.codec_id);
      std::printf(
          "  %-16s %-10s %6u pages  crc %08x  codec %u (%s)  OK\n",
          entry.file.c_str(),
          std::string(xrank::index::IndexKindName(entry.kind)).c_str(),
          entry.page_count, entry.crc, entry.format.codec_id,
          std::string(codec->name()).c_str());
      continue;
    }
    ++damaged;
    if (first_bad != xrank::storage::kInvalidPage) {
      std::printf("  %-16s DAMAGED (first bad page %u): %s\n",
                  entry.file.c_str(), first_bad,
                  status.ToString().c_str());
    } else {
      std::printf("  %-16s DAMAGED: %s\n", entry.file.c_str(),
                  status.ToString().c_str());
    }
  }
  // Flushed live segments: index pages plus the framed docs log, both
  // checked against the MANIFEST checksums.
  for (const auto& segment : manifest->segments) {
    xrank::Status status =
        xrank::index::VerifySegmentEntry(dir, segment, nullptr);
    if (status.ok()) {
      std::printf(
          "  %-16s segment  docs [%u, %u)  seqs [%llu, %llu]  "
          "crc %08x/%08x  OK\n",
          segment.index.file.c_str(), segment.doc_base,
          segment.doc_base + segment.doc_count,
          static_cast<unsigned long long>(segment.first_seq),
          static_cast<unsigned long long>(segment.last_seq),
          segment.index.crc, segment.docs_crc);
      continue;
    }
    ++damaged;
    std::printf("  %-16s DAMAGED: %s\n", segment.index.file.c_str(),
                status.ToString().c_str());
  }
  // The WAL is allowed to end in a torn record (a crash mid-append);
  // anything else — a bad CRC in the middle — is damage.
  auto wal = xrank::storage::ReadLogFile(
      dir + "/" + xrank::storage::kWalFileName, /*allow_torn_tail=*/true);
  if (!wal.ok()) {
    ++damaged;
    std::printf("  %-16s DAMAGED: %s\n", xrank::storage::kWalFileName,
                wal.status().ToString().c_str());
  } else if (wal->torn_tail) {
    std::printf("  %-16s %zu record(s), torn tail (%llu byte(s) will be "
                "truncated on recovery)  OK\n",
                xrank::storage::kWalFileName, wal->records.size(),
                static_cast<unsigned long long>(wal->dropped_bytes));
  } else {
    std::printf("  %-16s %zu record(s)  OK\n", xrank::storage::kWalFileName,
                wal->records.size());
  }
  return damaged;
}

// `xrank_cli verify <dir>`: offline integrity check of a committed index
// directory — or, when the directory holds a SHARDING file, of a whole
// sharded root: the partition manifest first, then every shard directory.
// Exit 0 when everything matches, 1 on any damage (reporting the first bad
// page per file), 2 on usage errors.
int RunVerify(int argc, char** argv) {
  std::string dir;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (xrank::StartsWith(arg, "--disk-dir=")) {
      dir = arg.substr(11);
    } else if (!xrank::StartsWith(arg, "--") && dir.empty()) {
      dir = arg;
    } else {
      dir.clear();
      break;
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr, "usage: %s verify [--disk-dir=]<index-dir>\n",
                 argv[0]);
    return 2;
  }

  int damaged = 0;
  if (xrank::core::IsShardedRoot(dir)) {
    auto sharding = xrank::core::ReadShardingFile(dir);
    if (!sharding.ok()) {
      std::printf("%s/%s: %s\n", dir.c_str(),
                  xrank::core::kShardingFileName,
                  sharding.status().ToString().c_str());
      std::printf("verification FAILED: SHARDING file damaged\n");
      return 1;
    }
    std::printf("%s: sharded root, %zu shard(s)\n", dir.c_str(),
                sharding->shards.size());
    for (const auto& shard : sharding->shards) {
      std::printf("  %s  docs [%u, %u)\n", shard.dir.c_str(), shard.doc_base,
                  shard.doc_base + shard.doc_count);
    }
    for (const auto& shard : sharding->shards) {
      damaged += VerifyIndexDir(dir + "/" + shard.dir);
    }
  } else {
    damaged = VerifyIndexDir(dir);
  }
  if (damaged > 0) {
    std::printf("verification FAILED: %d file(s) damaged\n", damaged);
    return 1;
  }
  std::printf("verification OK\n");
  return 0;
}

// Reads a whole file into `out`; false (with errno intact) when unreadable.
bool ReadFileBytes(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out->append(buffer, n);
  }
  bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

// `xrank_cli ingest`: apply live updates to a disk-backed index directory,
// acknowledging each durable operation on stdout. The crash-recovery
// harness (tools/check_recovery.sh) drives this with --crash-at and
// compares the acknowledged operations against what a reopen serves.
int RunIngest(int argc, char** argv) {
  std::string dir;
  IndexKind kind = IndexKind::kDil;
  std::vector<std::string> base_files;
  // (operation, argument) in argv order: "add" -> file, "delete" -> uri,
  // "flush"/"compact" -> explicit maintenance.
  std::vector<std::pair<std::string, std::string>> ops;
  size_t flush_every = 0;
  bool compact = false;
  std::string query;
  size_t top = 10;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (xrank::StartsWith(arg, "--disk-dir=")) {
      dir = arg.substr(11);
    } else if (xrank::StartsWith(arg, "--index=")) {
      if (!ParseIndexKind(arg.substr(8), &kind)) {
        std::fprintf(stderr, "unknown index kind '%s'\n", arg.c_str() + 8);
        return 2;
      }
    } else if (xrank::StartsWith(arg, "--base=")) {
      base_files.push_back(arg.substr(7));
    } else if (xrank::StartsWith(arg, "--add=")) {
      ops.emplace_back("add", arg.substr(6));
    } else if (xrank::StartsWith(arg, "--delete=")) {
      ops.emplace_back("delete", arg.substr(9));
    } else if (arg == "--flush") {
      ops.emplace_back("flush", "");
    } else if (xrank::StartsWith(arg, "--flush-every=")) {
      flush_every = std::strtoul(arg.c_str() + 14, nullptr, 10);
    } else if (arg == "--compact") {
      compact = true;
    } else if (xrank::StartsWith(arg, "--crash-at=")) {
      std::string spec_text = arg.substr(11);
      xrank::fail::FailPointSpec spec;
      spec.action = xrank::fail::Action::kCrash;
      size_t colon = spec_text.rfind(':');
      if (colon != std::string::npos) {
        spec.skip = std::strtoull(spec_text.c_str() + colon + 1, nullptr, 10);
        spec_text.resize(colon);
      }
      if (spec_text.empty()) {
        std::fprintf(stderr, "--crash-at needs a failpoint name\n");
        return 2;
      }
      xrank::fail::FailPoints::Instance().Arm(spec_text, spec);
    } else if (xrank::StartsWith(arg, "--query=")) {
      query = arg.substr(8);
    } else if (xrank::StartsWith(arg, "--top=")) {
      top = std::strtoul(arg.c_str() + 6, nullptr, 10);
      if (top == 0) top = 10;
    } else {
      std::fprintf(stderr, "unknown ingest option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr, "usage: %s ingest --disk-dir=DIR [--base=f.xml ...] "
                 "[--add=f.xml ...] [--delete=uri ...] [--flush-every=N] "
                 "[--flush] [--compact] [--crash-at=NAME[:K]] "
                 "[--query=\"...\"]\n",
                 argv[0]);
    return 2;
  }

  std::vector<xrank::xml::Document> base_docs;
  for (const std::string& path : base_files) {
    auto doc = xrank::xml::ParseFile(path);
    if (!doc.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   doc.status().ToString().c_str());
      return 1;
    }
    base_docs.push_back(std::move(doc).value());
  }

  EngineOptions options;
  options.indexes = {kind};
  options.disk_dir = dir;
  // Inline maintenance: every flush/compaction happens at a deterministic
  // point in the operation stream, so --crash-at windows are reproducible.
  options.background_maintenance = false;

  // First run builds the base index; later runs re-open the directory
  // (MANIFEST present) and replay the WAL.
  std::string manifest_path =
      dir + "/" + std::string(xrank::index::kManifestFileName);
  bool reopen = false;
  if (std::FILE* f = std::fopen(manifest_path.c_str(), "rb")) {
    std::fclose(f);
    reopen = true;
  }
  auto engine = reopen ? XRankEngine::Open(std::move(base_docs), options)
                       : XRankEngine::Build(std::move(base_docs), options);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", reopen ? "open" : "build",
                 engine.status().ToString().c_str());
    return 1;
  }
  auto counters = (*engine)->update_counters();
  std::printf("OPEN %s docs=%zu live=%llu replayed=%llu\n",
              reopen ? "reopened" : "built",
              (*engine)->graph().document_count(),
              static_cast<unsigned long long>(counters.added_documents),
              static_cast<unsigned long long>(counters.wal_replayed_records));
  std::fflush(stdout);

  size_t adds_since_flush = 0;
  for (const auto& [op, operand] : ops) {
    xrank::Status status;
    if (op == "add") {
      std::string body;
      if (!ReadFileBytes(operand, &body)) {
        std::fprintf(stderr, "%s: cannot read\n", operand.c_str());
        return 1;
      }
      status = (*engine)->AddDocument(operand, body);
      if (status.ok()) ++adds_since_flush;
    } else if (op == "delete") {
      status = (*engine)->DeleteDocument(operand);
    } else if (op == "flush") {
      status = (*engine)->Flush();
      adds_since_flush = 0;
    }
    if (!status.ok()) {
      std::fprintf(stderr, "%s %s failed: %s\n", op.c_str(), operand.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    // The ack line is the harness contract: once printed, the operation
    // must survive any later crash.
    std::printf("ACK %s %s\n", op.c_str(), operand.c_str());
    std::fflush(stdout);
    if (flush_every > 0 && adds_since_flush >= flush_every) {
      status = (*engine)->Flush();
      if (!status.ok()) {
        std::fprintf(stderr, "flush failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      adds_since_flush = 0;
      std::printf("ACK flush auto\n");
      std::fflush(stdout);
    }
  }
  if (compact) {
    xrank::Status status = (*engine)->CompactSegments();
    if (!status.ok()) {
      std::fprintf(stderr, "compact failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("ACK compact all\n");
    std::fflush(stdout);
  }

  counters = (*engine)->update_counters();
  std::printf("STATE live=%llu deleted=%zu segments=%llu delta=%llu\n",
              static_cast<unsigned long long>(counters.added_documents),
              (*engine)->deleted_document_count(),
              static_cast<unsigned long long>(counters.segment_count),
              static_cast<unsigned long long>(counters.delta_documents));
  if (!query.empty()) {
    auto response = (*engine)->Query(query, top, kind);
    if (!response.ok()) {
      std::fprintf(stderr, "query error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    std::printf("QUERY %s\n", query.c_str());
    PrintResponse(*response);
  }
  std::printf("DONE\n");
  std::fflush(stdout);
  return 0;
}

// Parses every --file into a document vector (error carries the path).
xrank::Result<std::vector<xrank::xml::Document>> ParseCliDocuments(
    const CliOptions& cli) {
  std::vector<xrank::xml::Document> docs;
  for (const std::string& path : cli.files) {
    auto doc = xrank::xml::ParseFile(path);
    if (!doc.ok()) {
      return xrank::Status(doc.status().code(),
                           path + ": " + std::string(doc.status().message()));
    }
    docs.push_back(std::move(doc).value());
  }
  return docs;
}

// Engine configuration shared by the monolithic and sharded paths (may
// rewrite cli->kind: --disjunctive forces DIL).
EngineOptions MakeEngineOptions(CliOptions* cli) {
  EngineOptions options;
  options.indexes = {cli->kind};
  options.answer_node_tags = cli->answer_nodes;
  if (cli->disjunctive) {
    options.scoring.semantics = xrank::query::QuerySemantics::kDisjunctive;
    if (cli->kind != IndexKind::kDil) {
      std::fprintf(stderr,
                   "note: --disjunctive requires --index=dil; switching\n");
      options.indexes = {IndexKind::kDil};
      cli->kind = IndexKind::kDil;
    }
  }
  options.build.format = cli->format;
  return options;
}

void PrintIndexedBanner(const CliOptions& cli, const XRankEngine& engine,
                        bool quiet) {
  const xrank::index::PostingCodec* codec =
      xrank::index::FindPostingCodec(cli.format.codec_id);
  std::fprintf(quiet ? stderr : stdout,
               "indexed %zu documents, %zu elements, %zu hyperlinks "
               "(%s, codec %u/%s)\n",
               engine.graph().document_count(),
               engine.graph().element_count(),
               engine.graph().total_hyperlink_count(),
               std::string(xrank::index::IndexKindName(cli.kind)).c_str(),
               cli.format.codec_id,
               codec != nullptr ? std::string(codec->name()).c_str() : "?");
}

// Shared by the query and stats subcommands: parse the files and build the
// engine. Progress goes to stderr when `quiet` (stats --json keeps stdout
// strictly JSON).
xrank::Result<std::unique_ptr<XRankEngine>> BuildEngineFromCli(
    CliOptions* cli, bool quiet) {
  auto docs = ParseCliDocuments(*cli);
  if (!docs.ok()) return docs.status();
  EngineOptions options = MakeEngineOptions(cli);
  if (cli->shards == 0) options.disk_dir = cli->disk_dir;
  auto engine = XRankEngine::Build(std::move(docs).value(), options);
  if (!engine.ok()) return engine.status();
  PrintIndexedBanner(*cli, **engine, quiet);
  return engine;
}

// The --shards=N path: build (or, when --disk-dir already holds a SHARDING
// file, re-open and validate) a document-sharded fleet behind the router.
xrank::Result<std::unique_ptr<ShardRouter>> BuildRouterFromCli(
    CliOptions* cli, bool quiet) {
  auto docs = ParseCliDocuments(*cli);
  if (!docs.ok()) return docs.status();
  ShardRouterOptions router_options;
  router_options.num_shards = cli->shards;
  router_options.engine = MakeEngineOptions(cli);
  router_options.root_dir = cli->disk_dir;
  bool reopen = !cli->disk_dir.empty() &&
                xrank::core::IsShardedRoot(cli->disk_dir);
  auto router =
      reopen ? ShardRouter::Open(std::move(docs).value(), router_options)
             : ShardRouter::Build(std::move(docs).value(), router_options);
  if (!router.ok()) return router.status();
  std::FILE* out = quiet ? stderr : stdout;
  std::fprintf(out, "%s sharded root: %zu shard(s)%s%s\n",
               reopen ? "reopened" : "built", (*router)->shard_count(),
               cli->disk_dir.empty() ? " (in-memory)" : " under ",
               cli->disk_dir.c_str());
  size_t documents = 0;
  size_t elements = 0;
  size_t hyperlinks = 0;
  for (size_t i = 0; i < (*router)->shard_count(); ++i) {
    const auto& shard = (*router)->shard(i);
    const auto& graph = (*router)->shard_engine(i).graph();
    documents += graph.document_count();
    elements += graph.element_count();
    hyperlinks += graph.total_hyperlink_count();
    std::fprintf(out, "  %s  docs [%u, %u)\n", shard.dir.c_str(),
                 shard.doc_base, shard.doc_base + shard.doc_count);
  }
  std::fprintf(out,
               "indexed %zu documents, %zu elements, %zu hyperlinks "
               "across the fleet (%s, codec %u)\n",
               documents, elements, hyperlinks,
               std::string(xrank::index::IndexKindName(cli->kind)).c_str(),
               cli->format.codec_id);
  return router;
}

void PrintUsage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [query] [--index=dil|rdil|hdil|naive-id|naive-rank] "
               "[--codec=varint|bp128] [--vbmw-lambda=MILLI] "
               "[--algorithm=auto|exhaustive|maxscore|bmw] "
               "[--top=N] [--shards=N] [--disk-dir=DIR] "
               "[--disjunctive] [--trace] [--json] "
               "[--answer-nodes=a,b] [--query=\"...\"] <file.xml ...>\n"
               "       %s stats [--json] [options] <file.xml ...>\n"
               "       %s verify [--disk-dir=]<index-dir-or-sharded-root>\n"
               "       %s ingest --disk-dir=DIR [--base=f.xml ...] "
               "[--add=f.xml ...] [--delete=uri ...] [--flush-every=N] "
               "[--compact] [--crash-at=NAME[:K]] [--query=\"...\"]\n",
               prog, prog, prog, prog);
}

// `xrank_cli stats`: build the index (monolithic or, with --shards=N, the
// sharded fleet), optionally run --query against it, then dump the
// process-wide metrics registry — router.* series included, so a sharded
// run's fan-out/θ/partial accounting lands in the same table.
int RunStats(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli, 2)) {
    PrintUsage(argv[0]);
    return 2;
  }
  std::unique_ptr<XRankEngine> engine;
  std::unique_ptr<ShardRouter> router;
  if (cli.shards > 0) {
    auto built = BuildRouterFromCli(&cli, /*quiet=*/cli.json);
    if (!built.ok()) {
      std::fprintf(stderr, "sharded build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    router = std::move(built).value();
  } else {
    auto built = BuildEngineFromCli(&cli, /*quiet=*/cli.json);
    if (!built.ok()) {
      std::fprintf(stderr, "index build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    engine = std::move(built).value();
  }
  if (!cli.one_shot_query.empty()) {
    auto response =
        router != nullptr
            ? router->Query(cli.one_shot_query, cli.top, cli.kind)
            : engine->Query(cli.one_shot_query, cli.top, cli.kind);
    if (!response.ok()) {
      std::fprintf(stderr, "query error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
  }
  auto snapshot = xrank::metrics::Registry::Instance().Snapshot();
  if (cli.json) {
    std::printf("%s\n", xrank::metrics::RenderJson(snapshot).c_str());
  } else {
    std::printf("%s", xrank::metrics::RenderTable(snapshot).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "verify") == 0) {
    return RunVerify(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "stats") == 0) {
    return RunStats(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "ingest") == 0) {
    return RunIngest(argc, argv);
  }
  int first_arg = 1;
  if (argc >= 2 && std::strcmp(argv[1], "query") == 0) first_arg = 2;
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli, first_arg)) {
    PrintUsage(argv[0]);
    return 2;
  }

  std::unique_ptr<XRankEngine> engine;
  std::unique_ptr<ShardRouter> router;
  if (cli.shards > 0) {
    auto built = BuildRouterFromCli(&cli, /*quiet=*/false);
    if (!built.ok()) {
      std::fprintf(stderr, "sharded build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    router = std::move(built).value();
  } else {
    auto built = BuildEngineFromCli(&cli, /*quiet=*/false);
    if (!built.ok()) {
      std::fprintf(stderr, "index build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    engine = std::move(built).value();
  }

  auto run = [&](const std::string& query) {
    xrank::query::QueryTrace trace;
    xrank::query::QueryOptions query_options;
    query_options.algorithm = cli.algorithm;
    if (cli.trace) query_options.trace = &trace;
    auto response =
        router != nullptr
            ? router->Query(query, cli.top, cli.kind, query_options)
            : engine->Query(query, cli.top, cli.kind, query_options);
    if (!response.ok()) {
      std::printf("  error: %s\n", response.status().ToString().c_str());
      return;
    }
    PrintResponse(*response);
    if (router != nullptr) {
      auto counters = router->router_counters();
      std::printf("  [fleet: %zu shards, %llu shard queries, "
                  "%llu theta raises, %llu partial, %llu skipped]\n",
                  router->shard_count(),
                  static_cast<unsigned long long>(counters.shard_queries),
                  static_cast<unsigned long long>(counters.theta_raises),
                  static_cast<unsigned long long>(counters.partial_results),
                  static_cast<unsigned long long>(counters.shards_skipped));
    }
    if (cli.trace) {
      std::printf("%s", cli.json ? (trace.FormatJson() + "\n").c_str()
                                 : trace.FormatTable().c_str());
    }
  };

  if (!cli.one_shot_query.empty()) {
    run(cli.one_shot_query);
    return 0;
  }
  std::printf("enter keyword queries (blank line or EOF to quit):\n");
  std::string line;
  while (std::printf("> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (xrank::StripWhitespace(line).empty()) break;
    run(line);
  }
  return 0;
}

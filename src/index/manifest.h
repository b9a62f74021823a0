#ifndef XRANK_INDEX_MANIFEST_H_
#define XRANK_INDEX_MANIFEST_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "index/index_builder.h"
#include "storage/page_file.h"

namespace xrank::index {

// Crash-safe commit protocol for an on-disk index directory.
//
// Builders write every index to `<name>.xrank.tmp`, fsync it, and then
// commit the directory in one pass:
//   1. rename each `<name>.xrank.tmp` -> `<name>.xrank`
//   2. write MANIFEST.tmp (per-file page count + CRC32C + kind, with a
//      trailing whole-manifest CRC), fsync it
//   3. rename MANIFEST.tmp -> MANIFEST  (the atomic commit point)
//   4. fsync the directory
// A crash anywhere before step 3 leaves no MANIFEST (or the previous one);
// open refuses the directory with a precise error instead of serving
// partial state. A crash after step 3 is a completed commit.
constexpr char kManifestFileName[] = "MANIFEST";

struct ManifestEntry {
  std::string file;  // basename within the index directory
  IndexKind kind = IndexKind::kDil;
  uint32_t page_count = 0;
  uint32_t crc = 0;  // CRC32C over the logical page payloads, in order
  // Posting format the file was written with. Serialized as trailing
  // "codec <id> ranks 0 vbmw <lambda>" tokens (the ranks token is the
  // retired rank encoding, always 0); legacy manifests without them parse
  // as the default (varint). ParseManifest refuses unregistered codec ids
  // and non-zero rank encodings, so a mixed-version index directory fails
  // at open with a clean error instead of misdecoding pages.
  PostingFormatSpec format;
};

// One immutable flushed segment of the live-update path: a DIL index page
// file over the segment's documents plus a framed `.docs` source log (WAL
// record framing) that regenerates those documents on open or compaction.
// The seq range ties the segment back to the write-ahead log: WAL replay
// skips AddDocument records whose seq a committed segment already covers,
// which makes replay after a crash between segment commit and WAL rewrite
// idempotent.
struct SegmentManifestEntry {
  // The segment's index page file; `index.kind` is always kDil (the only
  // processor the segment merge path queries).
  ManifestEntry index;
  std::string docs_file;  // framed document log, basename within the dir
  uint64_t docs_bytes = 0;
  uint32_t docs_crc = 0;   // whole-file CRC32C of the docs log
  uint32_t doc_base = 0;   // first global document id in this segment
  uint32_t doc_count = 0;  // contiguous ids [doc_base, doc_base + doc_count)
  uint64_t first_seq = 0;  // WAL sequence range covered, inclusive
  uint64_t last_seq = 0;
};

struct Manifest {
  std::vector<ManifestEntry> entries;
  // Flushed live-update segments, in doc_base order. Empty for an index
  // directory that has never absorbed live updates (and for every legacy
  // manifest, which parses unchanged).
  std::vector<SegmentManifestEntry> segments;
};

// Text round-trip (format: "xrank-manifest v1" header, one "file ..." line
// per base-index entry and one "segment ..." line per flushed segment,
// "commit <crc>" trailer covering all preceding bytes).
std::string SerializeManifest(const Manifest& manifest);
Result<Manifest> ParseManifest(std::string_view text);

// Parses one decimal token of a committed text record (MANIFEST, SHARDING,
// a WAL delete handle) into a value no wider than `max`. An empty token, a
// non-digit, or a value above `max` (digit overflow included) is refused
// with Corruption naming `what`, the token and `source`, so a field never
// wraps silently.
Result<uint64_t> ParseDecimal(std::string_view token, uint64_t max,
                              std::string_view what, std::string_view source);

// Durably replaces `<dir>/<name>` with `blob`: writes `<name>.tmp`, fsyncs
// it, renames it over `<name>` (the commit point) and fsyncs the directory.
// MANIFEST and SHARDING commit through it.
Status WriteFileDurably(const std::string& dir, const std::string& name,
                        std::string_view blob);

// Reads all of `<dir>/<name>`. NotFound ("no <name> in '<dir>': " +
// `missing_hint`) when the file does not exist.
Result<std::string> ReadWholeFile(const std::string& dir,
                                  const std::string& name,
                                  std::string_view missing_hint);

// Durably writes `<dir>/MANIFEST` through WriteFileDurably.
Status WriteManifestFile(const std::string& dir, const Manifest& manifest);

// Reads and validates `<dir>/MANIFEST`. NotFound when the directory was
// never committed (or a commit was torn before its rename).
Result<Manifest> ReadManifestFile(const std::string& dir);

// CRC32C over every logical page payload of `file`, in page order. Reading
// through the disk backend also re-verifies each page's own checksum.
Result<uint32_t> ChecksumPageFile(const storage::PageFile& file);

// Full integrity check of one committed file: page count, per-page header
// checksums, and the whole-file CRC against the manifest entry. On
// corruption `first_bad_page` (when non-null) reports the first damaged
// page, or kInvalidPage when the mismatch is file-level.
Status VerifyManifestEntry(const std::string& dir, const ManifestEntry& entry,
                           storage::PageId* first_bad_page = nullptr);

// Full integrity check of one flushed segment: its index page file (as
// VerifyManifestEntry) plus the docs log's byte count and whole-file CRC.
Status VerifySegmentEntry(const std::string& dir,
                          const SegmentManifestEntry& entry,
                          storage::PageId* first_bad_page = nullptr);

// Renames `from` -> `to` (same filesystem), with strerror detail.
Status RenameFile(const std::string& from, const std::string& to);

// fsyncs a directory so committed renames survive power loss.
Status SyncDirectory(const std::string& dir);

}  // namespace xrank::index

#endif  // XRANK_INDEX_MANIFEST_H_

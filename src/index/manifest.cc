#include "index/manifest.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/crc32.h"
#include "common/safe_strerror.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "storage/wal.h"

namespace xrank::index {

Result<uint64_t> ParseDecimal(std::string_view token, uint64_t max,
                              std::string_view what,
                              std::string_view source) {
  if (token.empty()) {
    return Status::Corruption(std::string(what) + " missing in " +
                              std::string(source));
  }
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') {
      return Status::Corruption("bad " + std::string(what) + " '" +
                                std::string(token) + "' in " +
                                std::string(source));
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (max - digit) / 10) {
      return Status::Corruption(std::string(what) + " '" +
                                std::string(token) + "' in " +
                                std::string(source) + " exceeds " +
                                std::to_string(max));
    }
    value = value * 10 + digit;
  }
  return value;
}

namespace {

constexpr char kManifestHeader[] = "xrank-manifest v1";

// One MANIFEST field, no wider than T.
template <typename T>
Result<T> ParseField(std::string_view token, std::string_view what) {
  XRANK_ASSIGN_OR_RETURN(
      uint64_t value,
      ParseDecimal(token, std::numeric_limits<T>::max(), what,
                   kManifestFileName));
  return static_cast<T>(value);
}

Result<IndexKind> ParseKind(std::string_view token, std::string_view what) {
  XRANK_ASSIGN_OR_RETURN(uint32_t kind, ParseField<uint32_t>(token, what));
  if (kind < 1 || kind > 5) {
    return Status::Corruption("bad " + std::string(what) + " " +
                              std::to_string(kind) + " in MANIFEST");
  }
  return static_cast<IndexKind>(kind);
}

}  // namespace

std::string SerializeManifest(const Manifest& manifest) {
  std::string out(kManifestHeader);
  out += "\n";
  for (const ManifestEntry& entry : manifest.entries) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "file %s kind %u pages %u crc %u codec %u ranks 0 vbmw %u "
                  "reorder 0\n",
                  entry.file.c_str(), static_cast<unsigned>(entry.kind),
                  entry.page_count, entry.crc, entry.format.codec_id,
                  entry.format.vbmw_lambda_milli);
    out += line;
  }
  for (const SegmentManifestEntry& seg : manifest.segments) {
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "segment file %s kind %u pages %u crc %u codec %u ranks 0 vbmw %u "
        "docs %s bytes %" PRIu64 " dcrc %u base %u count %u seq %" PRIu64
        " %" PRIu64 "\n",
        seg.index.file.c_str(), static_cast<unsigned>(seg.index.kind),
        seg.index.page_count, seg.index.crc, seg.index.format.codec_id,
        seg.index.format.vbmw_lambda_milli, seg.docs_file.c_str(),
        seg.docs_bytes, seg.docs_crc, seg.doc_base, seg.doc_count,
        seg.first_seq, seg.last_seq);
    out += line;
  }
  char commit[64];
  std::snprintf(commit, sizeof(commit), "commit %u\n", Crc32c(out));
  out += commit;
  return out;
}

namespace {

// Parses one "segment ..." line (tokens[0] == "segment"). The layout is a
// fixed sequence of key/value tokens so a truncated or reordered line is
// rejected with the offending key named.
Result<SegmentManifestEntry> ParseSegmentLine(
    const std::vector<std::string_view>& tokens, std::string_view line) {
  constexpr std::string_view kKeys[] = {"file", "kind", "pages",  "crc",
                                        "codec", "ranks", "vbmw", "docs",
                                        "bytes", "dcrc",  "base",  "count"};
  constexpr size_t kNumKeys = sizeof(kKeys) / sizeof(kKeys[0]);
  // 1 ("segment") + 12 key/value pairs + "seq <first> <last>".
  if (tokens.size() != 1 + 2 * kNumKeys + 3) {
    return Status::Corruption("malformed MANIFEST segment line '" +
                              std::string(line) + "'");
  }
  for (size_t i = 0; i < kNumKeys; ++i) {
    if (tokens[1 + 2 * i] != kKeys[i]) {
      return Status::Corruption("MANIFEST segment line expects '" +
                                std::string(kKeys[i]) + "', got '" +
                                std::string(tokens[1 + 2 * i]) + "'");
    }
  }
  if (tokens[1 + 2 * kNumKeys] != "seq") {
    return Status::Corruption("MANIFEST segment line missing seq range");
  }
  SegmentManifestEntry seg;
  seg.index.file = std::string(tokens[2]);
  XRANK_ASSIGN_OR_RETURN(seg.index.kind, ParseKind(tokens[4], "segment kind"));
  XRANK_ASSIGN_OR_RETURN(seg.index.page_count,
                         ParseField<uint32_t>(tokens[6], "segment page count"));
  XRANK_ASSIGN_OR_RETURN(seg.index.crc,
                         ParseField<uint32_t>(tokens[8], "segment crc"));
  XRANK_ASSIGN_OR_RETURN(seg.index.format.codec_id,
                         ParseField<uint32_t>(tokens[10], "segment codec"));
  XRANK_ASSIGN_OR_RETURN(
      uint32_t ranks,
      ParseField<uint32_t>(tokens[12], "segment rank encoding"));
  XRANK_RETURN_NOT_OK(CheckFloatRanks(ranks));
  XRANK_ASSIGN_OR_RETURN(
      seg.index.format.vbmw_lambda_milli,
      ParseField<uint32_t>(tokens[14], "segment vbmw lambda"));
  seg.docs_file = std::string(tokens[16]);
  XRANK_ASSIGN_OR_RETURN(
      seg.docs_bytes, ParseField<uint64_t>(tokens[18], "segment docs bytes"));
  XRANK_ASSIGN_OR_RETURN(seg.docs_crc,
                         ParseField<uint32_t>(tokens[20], "docs crc"));
  XRANK_ASSIGN_OR_RETURN(seg.doc_base,
                         ParseField<uint32_t>(tokens[22], "doc base"));
  XRANK_ASSIGN_OR_RETURN(seg.doc_count,
                         ParseField<uint32_t>(tokens[24], "doc count"));
  XRANK_ASSIGN_OR_RETURN(seg.first_seq,
                         ParseField<uint64_t>(tokens[26], "first seq"));
  XRANK_ASSIGN_OR_RETURN(seg.last_seq,
                         ParseField<uint64_t>(tokens[27], "last seq"));
  if (seg.last_seq < seg.first_seq) {
    return Status::Corruption("MANIFEST segment seq range inverted");
  }
  XRANK_RETURN_NOT_OK(ResolvePostingCodec(seg.index.format).status());
  return seg;
}

}  // namespace

Result<Manifest> ParseManifest(std::string_view text) {
  // The trailer CRC covers everything before the "commit " line; find it
  // first so a torn or bit-rotted manifest is rejected wholesale.
  size_t commit_pos = text.rfind("\ncommit ");
  if (commit_pos == std::string_view::npos) {
    return Status::Corruption("MANIFEST has no commit trailer");
  }
  std::string_view body = text.substr(0, commit_pos + 1);
  std::string_view trailer = text.substr(commit_pos + 1);
  // trailer: "commit <u32>\n"
  if (!StartsWith(trailer, "commit ") || trailer.back() != '\n') {
    return Status::Corruption("malformed MANIFEST commit trailer");
  }
  XRANK_ASSIGN_OR_RETURN(
      uint32_t stored_crc,
      ParseField<uint32_t>(trailer.substr(7, trailer.size() - 8),
                           "commit crc"));
  uint32_t computed = Crc32c(body);
  if (stored_crc != computed) {
    return Status::Corruption("MANIFEST checksum mismatch (stored " +
                              std::to_string(stored_crc) + ", computed " +
                              std::to_string(computed) + ")");
  }

  Manifest manifest;
  bool saw_header = false;
  for (std::string_view line : SplitString(body, "\n")) {
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != kManifestHeader) {
        return Status::Corruption("bad MANIFEST header '" + std::string(line) +
                                  "'");
      }
      saw_header = true;
      continue;
    }
    std::vector<std::string_view> tokens = SplitString(line, " ");
    if (!tokens.empty() && tokens[0] == "segment") {
      XRANK_ASSIGN_OR_RETURN(SegmentManifestEntry seg,
                             ParseSegmentLine(tokens, line));
      manifest.segments.push_back(std::move(seg));
      continue;
    }
    // 8 tokens: legacy (pre-codec) line, posting format defaults to
    // varint. 12 tokens: explicit codec suffix, plus the retired rank
    // encoding, which must be 0 (index/codec.h).
    // 14 tokens: adds the VBMW block-sizing lambda. 16 tokens: adds the
    // retired document-reorder pass id, which must be 0 (index/codec.h).
    if ((tokens.size() != 8 && tokens.size() != 12 && tokens.size() != 14 &&
         tokens.size() != 16) ||
        tokens[0] != "file" || tokens[2] != "kind" || tokens[4] != "pages" ||
        tokens[6] != "crc") {
      return Status::Corruption("malformed MANIFEST line '" +
                                std::string(line) + "'");
    }
    ManifestEntry entry;
    entry.file = std::string(tokens[1]);
    XRANK_ASSIGN_OR_RETURN(entry.kind, ParseKind(tokens[3], "index kind"));
    XRANK_ASSIGN_OR_RETURN(entry.page_count,
                           ParseField<uint32_t>(tokens[5], "page count"));
    XRANK_ASSIGN_OR_RETURN(entry.crc,
                           ParseField<uint32_t>(tokens[7], "file crc"));
    if (tokens.size() >= 12) {
      if (tokens[8] != "codec" || tokens[10] != "ranks") {
        return Status::Corruption("malformed MANIFEST line '" +
                                  std::string(line) + "'");
      }
      XRANK_ASSIGN_OR_RETURN(entry.format.codec_id,
                             ParseField<uint32_t>(tokens[9], "posting codec"));
      XRANK_ASSIGN_OR_RETURN(uint32_t ranks,
                             ParseField<uint32_t>(tokens[11], "rank encoding"));
      XRANK_RETURN_NOT_OK(CheckFloatRanks(ranks));
    }
    if (tokens.size() >= 14) {
      if (tokens[12] != "vbmw") {
        return Status::Corruption("malformed MANIFEST line '" +
                                  std::string(line) + "'");
      }
      XRANK_ASSIGN_OR_RETURN(entry.format.vbmw_lambda_milli,
                             ParseField<uint32_t>(tokens[13], "vbmw lambda"));
    }
    if (tokens.size() == 16) {
      if (tokens[14] != "reorder") {
        return Status::Corruption("malformed MANIFEST line '" +
                                  std::string(line) + "'");
      }
      XRANK_ASSIGN_OR_RETURN(uint32_t reorder,
                             ParseField<uint32_t>(tokens[15], "reorder pass"));
      XRANK_RETURN_NOT_OK(CheckIdentityOrder(reorder));
    }
    XRANK_RETURN_NOT_OK(ResolvePostingCodec(entry.format).status());
    manifest.entries.push_back(std::move(entry));
  }
  if (!saw_header) return Status::Corruption("empty MANIFEST");
  return manifest;
}

Status RenameFile(const std::string& from, const std::string& to) {
  if (auto hit = fail::FailPoints::Instance().Evaluate("manifest.rename")) {
    fail::DieIfCrashRequested(hit);
    return Status::IOError("injected rename failure '" + from + "' -> '" +
                           to + "'");
  }
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IOError("rename '" + from + "' -> '" + to +
                           "' failed: " + SafeStrError(errno));
  }
  return Status::OK();
}

Status SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("cannot open directory '" + dir +
                           "': " + SafeStrError(errno));
  }
  if (::fsync(fd) != 0) {
    Status status = Status::IOError("fsync of directory '" + dir +
                                    "' failed: " + SafeStrError(errno));
    ::close(fd);
    return status;
  }
  ::close(fd);
  return Status::OK();
}

Status WriteFileDurably(const std::string& dir, const std::string& name,
                        std::string_view blob) {
  std::string tmp_path = dir + "/" + name + ".tmp";
  std::string final_path = dir + "/" + name;
  int fd = ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create '" + tmp_path +
                           "': " + SafeStrError(errno));
  }
  size_t written = 0;
  while (written < blob.size()) {
    ssize_t n = ::write(fd, blob.data() + written, blob.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = Status::IOError("write of '" + tmp_path +
                                      "' failed: " + SafeStrError(errno));
      ::close(fd);
      return status;
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status status = Status::IOError("fsync of '" + tmp_path +
                                    "' failed: " + SafeStrError(errno));
    ::close(fd);
    return status;
  }
  ::close(fd);
  XRANK_RETURN_NOT_OK(RenameFile(tmp_path, final_path));
  return SyncDirectory(dir);
}

Result<std::string> ReadWholeFile(const std::string& dir,
                                  const std::string& name,
                                  std::string_view missing_hint) {
  std::string path = dir + "/" + name;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no " + name + " in '" + dir +
                              "': " + std::string(missing_hint));
    }
    return Status::IOError("cannot open '" + path +
                           "': " + SafeStrError(errno));
  }
  std::string blob;
  char buffer[4096];
  for (;;) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = Status::IOError("read of '" + path +
                                      "' failed: " + SafeStrError(errno));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    blob.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return blob;
}

Status WriteManifestFile(const std::string& dir, const Manifest& manifest) {
  return WriteFileDurably(dir, kManifestFileName, SerializeManifest(manifest));
}

Result<Manifest> ReadManifestFile(const std::string& dir) {
  XRANK_ASSIGN_OR_RETURN(
      std::string blob,
      ReadWholeFile(dir, kManifestFileName,
                    "the index directory was never committed (or a crash "
                    "interrupted the build before its commit point)"));
  return ParseManifest(blob);
}

Result<uint32_t> ChecksumPageFile(const storage::PageFile& file) {
  uint32_t crc = 0;
  storage::Page page;
  for (storage::PageId p = 0; p < file.page_count(); ++p) {
    XRANK_RETURN_NOT_OK(file.Read(p, &page));
    crc = Crc32c(page.data.data(), storage::kPageSize, crc);
  }
  return crc;
}

Status VerifyManifestEntry(const std::string& dir, const ManifestEntry& entry,
                           storage::PageId* first_bad_page) {
  if (first_bad_page != nullptr) *first_bad_page = storage::kInvalidPage;
  std::string path = dir + "/" + entry.file;
  XRANK_ASSIGN_OR_RETURN(std::unique_ptr<storage::PageFile> file,
                         storage::PageFile::OpenOnDisk(path));
  if (file->page_count() != entry.page_count) {
    return Status::Corruption(
        "'" + path + "' has " + std::to_string(file->page_count()) +
        " pages, MANIFEST expects " + std::to_string(entry.page_count));
  }
  uint32_t crc = 0;
  storage::Page page;
  for (storage::PageId p = 0; p < file->page_count(); ++p) {
    Status status = file->Read(p, &page);
    if (!status.ok()) {
      if (first_bad_page != nullptr) *first_bad_page = p;
      return status;
    }
    crc = Crc32c(page.data.data(), storage::kPageSize, crc);
  }
  if (crc != entry.crc) {
    return Status::Corruption("'" + path + "' content checksum " +
                              std::to_string(crc) +
                              " does not match MANIFEST (" +
                              std::to_string(entry.crc) + ")");
  }
  return Status::OK();
}

Status VerifySegmentEntry(const std::string& dir,
                          const SegmentManifestEntry& entry,
                          storage::PageId* first_bad_page) {
  XRANK_RETURN_NOT_OK(VerifyManifestEntry(dir, entry.index, first_bad_page));
  std::string docs_path = dir + "/" + entry.docs_file;
  XRANK_ASSIGN_OR_RETURN(auto checksum, storage::ChecksumFile(docs_path));
  if (checksum.first != entry.docs_bytes) {
    return Status::Corruption(
        "'" + docs_path + "' is " + std::to_string(checksum.first) +
        " bytes, MANIFEST expects " + std::to_string(entry.docs_bytes));
  }
  if (checksum.second != entry.docs_crc) {
    return Status::Corruption("'" + docs_path + "' content checksum " +
                              std::to_string(checksum.second) +
                              " does not match MANIFEST (" +
                              std::to_string(entry.docs_crc) + ")");
  }
  return Status::OK();
}

}  // namespace xrank::index

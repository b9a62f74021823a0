#include "storage/page_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "common/backoff.h"
#include "common/safe_strerror.h"
#include "common/crc32.h"
#include "common/failpoint.h"

namespace xrank::storage {

namespace {

// Physical record: [header | payload]. Header layout (little-endian):
//   u32 magic, u16 version, u16 reserved, u32 page id, u32 crc32c(payload)
constexpr size_t kRecordSize = kDiskPageHeaderSize + kPageSize;
constexpr size_t kMagicOffset = 0;
constexpr size_t kVersionOffset = 4;
constexpr size_t kPageIdOffset = 8;
constexpr size_t kCrcOffset = 12;

// `n` is the pread/pwrite return value: negative means a syscall error
// (errno holds the cause), short means an unexpected partial transfer —
// errno is meaningless then and must not be reported.
std::string IoErrorMessage(const char* op, const std::string& path,
                           PageId page, ssize_t n, size_t expected) {
  std::string msg = std::string(op) + " failed on page " +
                    std::to_string(page) + " of '" + path + "': ";
  if (n < 0) {
    msg += SafeStrError(errno);
  } else {
    msg += "short transfer (" + std::to_string(n) + " of " +
           std::to_string(expected) + " bytes)";
  }
  return msg;
}

// Pages live in 1 MiB chunks mapped straight from the kernel, not in
// malloc'd memory. Growing never copies a page, and a dropped file's memory
// goes back to the system at once, whichever thread filled it. Pages that
// a build worker freed into its malloc arena would stay resident, and how
// much of them a later allocation reused would depend on which worker had
// drawn which arena, so a build's peak RSS would vary from run to run.
class MemPageFile final : public PageFile {
 public:
  Result<PageId> Allocate() override {
    if (page_count_ == chunks_.size() * kChunkPages) {
      void* chunk = mmap(nullptr, kChunkBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (chunk == MAP_FAILED) {
        return Status::IOError("cannot map memory pages: " +
                               SafeStrError(errno));
      }
      chunks_.emplace_back(static_cast<Page*>(chunk));
    }
    new (&page(page_count_)) Page();
    return page_count_++;
  }

  Status Read(PageId page_id, Page* out) const override {
    if (page_id >= page_count_) {
      return Status::OutOfRange("read of unallocated page " +
                                std::to_string(page_id));
    }
    *out = page(page_id);
    return Status::OK();
  }

  Status Write(PageId page_id, const Page& page_data) override {
    if (page_id >= page_count_) {
      return Status::OutOfRange("write of unallocated page " +
                                std::to_string(page_id));
    }
    page(page_id) = page_data;
    return Status::OK();
  }

  uint32_t page_count() const override { return page_count_; }

  Status Sync() override { return Status::OK(); }

 private:
  static constexpr size_t kChunkPages = 256;
  static constexpr size_t kChunkBytes = kChunkPages * sizeof(Page);
  struct Unmap {
    void operator()(Page* chunk) const { munmap(chunk, kChunkBytes); }
  };

  Page& page(PageId id) const {
    return chunks_[id / kChunkPages].get()[id % kChunkPages];
  }

  std::vector<std::unique_ptr<Page, Unmap>> chunks_;
  uint32_t page_count_ = 0;
};

class DiskPageFile final : public PageFile {
 public:
  DiskPageFile(int fd, std::string path, uint32_t page_count)
      : fd_(fd), path_(std::move(path)), page_count_(page_count) {}

  ~DiskPageFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Result<PageId> Allocate() override {
    static const Page kZeroPage{};
    PageId page = page_count_;
    XRANK_RETURN_NOT_OK(WriteWithRetry(page, kZeroPage));
    ++page_count_;
    return page;
  }

  Status Read(PageId page, Page* out) const override {
    if (page >= page_count_) {
      return Status::OutOfRange("read of unallocated page " +
                                std::to_string(page));
    }
    return RetryWithBackoff(retry_, [&] { return ReadOnce(page, out); });
  }

  Status Write(PageId page, const Page& page_data) override {
    if (page >= page_count_) {
      return Status::OutOfRange("write of unallocated page " +
                                std::to_string(page));
    }
    return WriteWithRetry(page, page_data);
  }

  uint32_t page_count() const override { return page_count_; }

  Status Sync() override {
    return RetryWithBackoff(retry_, [&] { return SyncOnce(); });
  }

  const std::string& path() const override { return path_; }

 private:
  Status ReadOnce(PageId page, Page* out) const {
    if (auto hit = fail::FailPoints::Instance().Evaluate("page_file.read")) {
      (void)hit;
      return Status::IOError("injected read error on page " +
                             std::to_string(page) + " of '" + path_ + "'");
    }
    char record[kRecordSize];
    ssize_t n = ::pread(fd_, record, kRecordSize,
                        static_cast<off_t>(page) * kRecordSize);
    if (n != static_cast<ssize_t>(kRecordSize)) {
      return Status::IOError(
          IoErrorMessage("pread", path_, page, n, kRecordSize));
    }
    XRANK_RETURN_NOT_OK(VerifyRecord(page, record));
    std::memcpy(out->data.data(), record + kDiskPageHeaderSize, kPageSize);
    return Status::OK();
  }

  Status VerifyRecord(PageId page, const char* record) const {
    uint32_t magic, stored_page, stored_crc;
    uint16_t version;
    std::memcpy(&magic, record + kMagicOffset, sizeof(magic));
    std::memcpy(&version, record + kVersionOffset, sizeof(version));
    std::memcpy(&stored_page, record + kPageIdOffset, sizeof(stored_page));
    std::memcpy(&stored_crc, record + kCrcOffset, sizeof(stored_crc));
    std::string where = "page " + std::to_string(page) + " of '" + path_ + "'";
    if (magic != kDiskPageMagic) {
      return Status::Corruption("bad page magic on " + where +
                                " (torn or foreign write)");
    }
    if (version != kDiskFormatVersion) {
      return Status::Corruption("unsupported page format version " +
                                std::to_string(version) + " on " + where);
    }
    if (stored_page != page) {
      return Status::Corruption("misdirected page: " + where + " claims id " +
                                std::to_string(stored_page));
    }
    uint32_t computed = Crc32c(record + kDiskPageHeaderSize, kPageSize);
    if (computed != stored_crc) {
      return Status::Corruption("checksum mismatch on " + where);
    }
    return Status::OK();
  }

  Status WriteWithRetry(PageId page, const Page& page_data) {
    return RetryWithBackoff(retry_, [&] { return WriteOnce(page, page_data); });
  }

  Status WriteOnce(PageId page, const Page& page_data) {
    auto& failpoints = fail::FailPoints::Instance();
    if (failpoints.Evaluate("page_file.write")) {
      return Status::IOError("injected write error on page " +
                             std::to_string(page) + " of '" + path_ + "'");
    }
    char record[kRecordSize];
    uint32_t crc = Crc32c(page_data.data.data(), kPageSize);
    std::memcpy(record + kMagicOffset, &kDiskPageMagic, sizeof(uint32_t));
    std::memcpy(record + kVersionOffset, &kDiskFormatVersion,
                sizeof(uint16_t));
    uint16_t reserved = 0;
    std::memcpy(record + kVersionOffset + sizeof(uint16_t), &reserved,
                sizeof(uint16_t));
    std::memcpy(record + kPageIdOffset, &page, sizeof(uint32_t));
    std::memcpy(record + kCrcOffset, &crc, sizeof(uint32_t));
    std::memcpy(record + kDiskPageHeaderSize, page_data.data.data(),
                kPageSize);

    size_t write_len = kRecordSize;
    if (auto hit = failpoints.Evaluate("page_file.torn_write")) {
      // A crash mid-write: only a prefix of the record reaches the medium.
      // The header's CRC no longer matches the stored payload, which is
      // exactly what the read-side verification exists to catch.
      write_len = kDiskPageHeaderSize +
                  static_cast<size_t>(hit->random % (kPageSize - 1));
    } else if (auto flip = failpoints.Evaluate("page_file.corrupt_write")) {
      // Silent media corruption: one payload bit flips after the CRC was
      // computed. The write "succeeds"; the damage is caught on read.
      size_t bit = flip->random % (kPageSize * 8);
      record[kDiskPageHeaderSize + bit / 8] ^= static_cast<char>(1u << (bit % 8));
    }
    ssize_t n = ::pwrite(fd_, record, write_len,
                         static_cast<off_t>(page) * kRecordSize);
    if (n != static_cast<ssize_t>(write_len)) {
      return Status::IOError(
          IoErrorMessage("pwrite", path_, page, n, write_len));
    }
    if (write_len != kRecordSize) {
      // The torn write is not retryable by design — the simulated process
      // died; Corruption is deterministic so the retry loop stops here.
      return Status::Corruption("injected torn write on page " +
                                std::to_string(page) + " of '" + path_ + "'");
    }
    return Status::OK();
  }

  Status SyncOnce() {
    if (fail::FailPoints::Instance().Evaluate("page_file.sync")) {
      return Status::IOError("injected fsync error on '" + path_ + "'");
    }
    if (::fsync(fd_) != 0) {
      return Status::IOError("fsync failed on '" + path_ +
                             "': " + SafeStrError(errno));
    }
    return Status::OK();
  }

  int fd_;
  std::string path_;
  uint32_t page_count_;
  BackoffPolicy retry_;
};

}  // namespace

const std::string& PageFile::path() const {
  static const std::string kEmpty;
  return kEmpty;
}

std::unique_ptr<PageFile> PageFile::CreateInMemory() {
  return std::make_unique<MemPageFile>();
}

Result<std::unique_ptr<PageFile>> PageFile::CreateOnDisk(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create '" + path +
                           "': " + SafeStrError(errno));
  }
  return std::unique_ptr<PageFile>(new DiskPageFile(fd, path, 0));
}

Result<std::unique_ptr<PageFile>> PageFile::OpenOnDisk(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "': " + SafeStrError(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0 || size % static_cast<off_t>(kRecordSize) != 0) {
    ::close(fd);
    return Status::Corruption(
        "'" + path + "' is not page-aligned (size " + std::to_string(size) +
        ", record size " + std::to_string(kRecordSize) + ")");
  }
  return std::unique_ptr<PageFile>(new DiskPageFile(
      fd, path, static_cast<uint32_t>(size / static_cast<off_t>(kRecordSize))));
}

}  // namespace xrank::storage

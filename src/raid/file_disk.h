// FileDisk: a persistent BlockDevice over one file.
//
// Each disk is a regular file accessed with pread/pwrite (preadv/pwritev
// on the vectored paths); flush() is fsync, so a FileDisk array survives
// process crashes and Raid6Array::restart() the way a real JBOD does —
// the write-hole tests prove a write → power loss → restart →
// journal_recover round-trip against real files on disk.
//
// Construction creates (or truncates to size, see Options::reuse) the
// file; `unlink_on_close` turns the disk into a self-cleaning temp file,
// which is how the DCODE_DISK_BACKEND=file test legs run.
//
// The file is advised random access (POSIX_FADV_RANDOM), fresh or reused.
// The engine already sizes and coalesces every transfer, so readahead
// would only speculate, and on a page-cache filesystem it builds large
// folios (up to 2 MiB) around the elements it reads; every later small
// overwrite into one pays for the folio's size (on ext4, kernel 6.18, a
// 4 KiB pwrite costs ~8 µs in a 2 MiB folio, ~0.8 µs with the advice).
// The price falls on cold passes that read in small steps: a cold
// scrub_report() of a 512-stripe D-Code p=7 array takes ~3× as long
// (214 vs 75 ms), while a cold full-capacity read, whose per-disk
// transfers are large, does not slow.
#pragma once

#include <string>

#include "raid/block_device.h"

namespace dcode::raid {

// FileDisk construction knobs. Namespace-level (not nested) so it can
// serve as a defaulted constructor argument.
struct FileDiskOptions {
  bool reuse = false;            // keep existing file contents (reopen)
  bool unlink_on_close = false;  // delete the file in the destructor
};

class FileDisk : public BlockDevice {
 public:
  using Options = FileDiskOptions;

  // Throws std::runtime_error if the file cannot be opened or sized.
  FileDisk(int id, size_t size, std::string path, Options opts = {});
  ~FileDisk() override;

  const std::string& path() const { return path_; }

  std::string_view backend_name() const override { return "file"; }
  // kDeviceReopened when `reuse` kept a non-empty file.
  uint32_t capabilities() const override {
    return kDevicePersistent | kDeviceFlush | kDeviceDiscard |
           (reopened_ ? kDeviceReopened : 0u);
  }

 protected:
  IoResult do_read(uint64_t offset, std::span<uint8_t> out) override;
  IoResult do_write(uint64_t offset, std::span<const uint8_t> in) override;
  IoResult do_readv(uint64_t offset, std::span<const IoVec> iov) override;
  IoResult do_writev(uint64_t offset,
                     std::span<const ConstIoVec> iov) override;
  IoResult do_flush() override;
  IoResult do_discard(uint64_t offset, size_t len) override;

 private:
  std::string path_;
  int fd_ = -1;
  bool unlink_on_close_ = false;
  bool reopened_ = false;
};

}  // namespace dcode::raid

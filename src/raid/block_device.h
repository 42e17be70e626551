// BlockDevice: the abstract disk the RAID stack runs on.
//
// The array layer used to BE the disk (a hard-wired in-memory byte
// buffer); this interface splits the two so the same coding/policy code
// can run over RAM (MemDisk), real files (FileDisk), or any future
// backend (io_uring, network) without touching the layers above. The
// contract is deliberately narrow and status-code based — a device
// reports failure, it does not decide what the array should do about it:
//
//  * read/write     — one contiguous range.
//  * readv/writev   — one contiguous *device* range scattered to /
//                     gathered from multiple memory buffers (preadv
//                     semantics). This is what the StripeIoEngine's
//                     coalescer emits: many same-disk element accesses
//                     become one ranged transfer.
//  * flush          — make previously acknowledged writes durable.
//  * discard        — hint that a range's contents are dead.
//
// Offsets/lengths are bounds-checked with DCODE_CHECK (a caller bug, not
// a device condition); device conditions travel in IoResult. Op/byte
// accounting lives here in the base class (non-virtual entry points
// around protected do_*() hooks) so every implementation counts the same
// way and the engine can report device-level op counts next to its
// element-granular counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/check.h"

namespace dcode::raid {

// Why an I/O completed the way it did. kFailed is fail-stop (the device
// is gone until replaced); kTransient is a retryable error (the engine
// retries within its budget before escalating to failed).
enum class IoStatus { kOk, kFailed, kTransient };

struct IoResult {
  IoStatus status = IoStatus::kOk;
  size_t bytes = 0;  // bytes actually transferred

  bool ok() const { return status == IoStatus::kOk; }
  static IoResult success(size_t n) { return IoResult{IoStatus::kOk, n}; }
  static IoResult failed() { return IoResult{IoStatus::kFailed, 0}; }
  static IoResult transient() { return IoResult{IoStatus::kTransient, 0}; }
};

// Scatter/gather segments for the vectored calls.
struct IoVec {
  uint8_t* data = nullptr;
  size_t len = 0;
};
struct ConstIoVec {
  const uint8_t* data = nullptr;
  size_t len = 0;
};

// Capability flags, OR-ed into capabilities().
enum DeviceCaps : uint32_t {
  kDevicePersistent = 1u << 0,  // contents survive process restart
  kDeviceFlush = 1u << 1,       // flush() is meaningful (not a no-op)
  kDeviceDiscard = 1u << 2,     // discard() actually releases storage
  kDeviceReopened = 1u << 3,    // holds contents from before this open
};

// Thrown by the engine when a device is (or becomes) fail-stop.
class DiskFailedError : public std::runtime_error {
 public:
  explicit DiskFailedError(int disk)
      : std::runtime_error("disk " + std::to_string(disk) + " has failed"),
        disk_(disk) {}
  int disk() const { return disk_; }

 private:
  int disk_;
};

class BlockDevice {
 public:
  BlockDevice(int id, size_t size) : id_(id), size_(size) {}
  virtual ~BlockDevice() = default;

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  int id() const { return id_; }
  size_t size() const { return size_; }

  virtual std::string_view backend_name() const = 0;
  virtual uint32_t capabilities() const = 0;

  IoResult read(uint64_t offset, std::span<uint8_t> out) {
    DCODE_CHECK(offset + out.size() <= size_, "read past end of device");
    IoResult r = do_read(offset, out);
    account_read(r);
    return r;
  }

  IoResult write(uint64_t offset, std::span<const uint8_t> in) {
    DCODE_CHECK(offset + in.size() <= size_, "write past end of device");
    IoResult r = do_write(offset, in);
    account_write(r);
    return r;
  }

  // Reads one contiguous device range starting at `offset`, filling each
  // segment of `iov` in turn (preadv semantics). One device op.
  IoResult readv(uint64_t offset, std::span<const IoVec> iov) {
    DCODE_CHECK(offset + total_len(iov) <= size_, "readv past end of device");
    IoResult r = do_readv(offset, iov);
    account_read(r);
    return r;
  }

  // Writes the concatenation of `iov` to one contiguous device range
  // starting at `offset` (pwritev semantics). One device op.
  IoResult writev(uint64_t offset, std::span<const ConstIoVec> iov) {
    DCODE_CHECK(offset + total_len(iov) <= size_, "writev past end of device");
    IoResult r = do_writev(offset, iov);
    account_write(r);
    return r;
  }

  IoResult flush() { return do_flush(); }

  IoResult discard(uint64_t offset, size_t len) {
    DCODE_CHECK(offset + len <= size_, "discard past end of device");
    return do_discard(offset, len);
  }

  // Device-level op accounting: one readv/writev counts one op however
  // many elements it carries — the visible payoff of coalescing.
  int64_t read_ops() const { return read_ops_.load(std::memory_order_relaxed); }
  int64_t write_ops() const {
    return write_ops_.load(std::memory_order_relaxed);
  }
  int64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  int64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  void reset_op_stats() {
    read_ops_.store(0, std::memory_order_relaxed);
    write_ops_.store(0, std::memory_order_relaxed);
    bytes_read_.store(0, std::memory_order_relaxed);
    bytes_written_.store(0, std::memory_order_relaxed);
  }

 protected:
  virtual IoResult do_read(uint64_t offset, std::span<uint8_t> out) = 0;
  virtual IoResult do_write(uint64_t offset,
                            std::span<const uint8_t> in) = 0;
  // Default vectored paths degrade to one ranged op per segment walk; a
  // backend with native scatter/gather (FileDisk's preadv) overrides.
  virtual IoResult do_readv(uint64_t offset, std::span<const IoVec> iov) {
    size_t total = 0;
    for (const IoVec& v : iov) {
      IoResult r = do_read(offset + total, {v.data, v.len});
      if (!r.ok()) return r;
      total += v.len;
    }
    return IoResult::success(total);
  }
  virtual IoResult do_writev(uint64_t offset,
                             std::span<const ConstIoVec> iov) {
    size_t total = 0;
    for (const ConstIoVec& v : iov) {
      IoResult r = do_write(offset + total, {v.data, v.len});
      if (!r.ok()) return r;
      total += v.len;
    }
    return IoResult::success(total);
  }
  virtual IoResult do_flush() { return IoResult::success(0); }
  virtual IoResult do_discard(uint64_t, size_t) { return IoResult::success(0); }

  static size_t total_len(std::span<const IoVec> iov) {
    size_t n = 0;
    for (const IoVec& v : iov) n += v.len;
    return n;
  }
  static size_t total_len(std::span<const ConstIoVec> iov) {
    size_t n = 0;
    for (const ConstIoVec& v : iov) n += v.len;
    return n;
  }

 private:
  void account_read(const IoResult& r) {
    read_ops_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(static_cast<int64_t>(r.bytes),
                          std::memory_order_relaxed);
  }
  void account_write(const IoResult& r) {
    write_ops_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(static_cast<int64_t>(r.bytes),
                             std::memory_order_relaxed);
  }

  int id_;
  size_t size_;
  // Relaxed atomics: the engine drives devices from pool workers.
  std::atomic<int64_t> read_ops_{0};
  std::atomic<int64_t> write_ops_{0};
  std::atomic<int64_t> bytes_read_{0};
  std::atomic<int64_t> bytes_written_{0};
};

// How the engine materializes a backend for disk `id` of `size` bytes
// (construction and replace-with-blank both go through this).
using DeviceFactory =
    std::function<std::unique_ptr<BlockDevice>(int id, size_t size)>;

// The process-default factory: MemDisk, unless DCODE_DISK_BACKEND=file
// selects temp-file-backed FileDisks (in DCODE_DISK_DIR, else TMPDIR,
// else /tmp; the files are deleted on close). Defined in file_disk.cc so
// the env handling lives next to the backend it selects.
DeviceFactory default_device_factory();

}  // namespace dcode::raid

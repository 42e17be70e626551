// MemDisk: the RAM-backed BlockDevice.
//
// Substitute for the paper's 16-disk SAS array (see DESIGN.md §4): a
// byte range of memory behind the BlockDevice contract. Pure storage —
// failure injection, silent corruption, and latency all live in the
// composable FaultInjectingDevice decorator (raid/fault_injection.h),
// and access accounting lives in the BlockDevice base plus the
// StripeIoEngine's element-granular counters.
//
// The storage is a private anonymous mapping, so the kernel supplies
// zeroed pages on first touch: building a device touches none of its
// pages, and an array's fill writes each page once rather than after a
// zeroing pass.
#pragma once

#include <sys/mman.h>

#include <cstring>
#include <new>

#include "raid/block_device.h"

namespace dcode::raid {

class MemDisk : public BlockDevice {
 public:
  MemDisk(int id, size_t size) : BlockDevice(id, size), storage_(map(size)) {}
  ~MemDisk() override {
    if (storage_ != nullptr) ::munmap(storage_, size());
  }

  std::string_view backend_name() const override { return "mem"; }
  uint32_t capabilities() const override { return kDeviceDiscard; }

 protected:
  IoResult do_read(uint64_t offset, std::span<uint8_t> out) override {
    std::memcpy(out.data(), storage_ + offset, out.size());
    return IoResult::success(out.size());
  }

  IoResult do_write(uint64_t offset, std::span<const uint8_t> in) override {
    std::memcpy(storage_ + offset, in.data(), in.size());
    return IoResult::success(in.size());
  }

  IoResult do_readv(uint64_t offset, std::span<const IoVec> iov) override {
    uint64_t at = offset;
    for (const IoVec& v : iov) {
      std::memcpy(v.data, storage_ + at, v.len);
      at += v.len;
    }
    return IoResult::success(static_cast<size_t>(at - offset));
  }

  IoResult do_writev(uint64_t offset,
                     std::span<const ConstIoVec> iov) override {
    uint64_t at = offset;
    for (const ConstIoVec& v : iov) {
      std::memcpy(storage_ + at, v.data, v.len);
      at += v.len;
    }
    return IoResult::success(static_cast<size_t>(at - offset));
  }

  IoResult do_discard(uint64_t offset, size_t len) override {
    std::memset(storage_ + offset, 0, len);
    return IoResult::success(len);
  }

 private:
  // Page-aligned, so 64-byte aligned as the XOR kernels prefer.
  static uint8_t* map(size_t size) {
    if (size == 0) return nullptr;
    void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<uint8_t*>(p);
  }

  uint8_t* storage_;
};

}  // namespace dcode::raid

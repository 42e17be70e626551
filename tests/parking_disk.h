// ParkingDisk: a BlockDevice decorator that stops device writes issued
// by chosen threads until the test releases them, so a client write can
// be held between the element writes of one stripe update while another
// thread runs against the same array.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>

#include "raid/block_device.h"

namespace dcode::raid {

// Shared between the test and every ParkingDisk it wires up.
struct WriteParking {
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;    // a write has reached a parking disk
  bool released = false;  // set by the test: parked writes may proceed
};

// Only writes from a thread that sets this park.
inline thread_local bool park_my_writes = false;

class ParkingDisk : public BlockDevice {
 public:
  // A null `parking` forwards every call unchanged.
  ParkingDisk(std::unique_ptr<BlockDevice> inner, WriteParking* parking)
      : BlockDevice(inner->id(), inner->size()),
        inner_(std::move(inner)),
        parking_(parking) {}
  std::string_view backend_name() const override {
    return inner_->backend_name();
  }
  uint32_t capabilities() const override { return inner_->capabilities(); }

 protected:
  IoResult do_read(uint64_t offset, std::span<uint8_t> out) override {
    return inner_->read(offset, out);
  }
  IoResult do_write(uint64_t offset, std::span<const uint8_t> in) override {
    park();
    return inner_->write(offset, in);
  }
  IoResult do_readv(uint64_t offset, std::span<const IoVec> iov) override {
    return inner_->readv(offset, iov);
  }
  IoResult do_writev(uint64_t offset,
                     std::span<const ConstIoVec> iov) override {
    park();
    return inner_->writev(offset, iov);
  }
  IoResult do_flush() override { return inner_->flush(); }

 private:
  void park() {
    if (parking_ == nullptr || !park_my_writes) return;
    std::unique_lock<std::mutex> lock(parking_->mu);
    parking_->parked = true;
    parking_->cv.notify_all();
    parking_->cv.wait(lock, [&] { return parking_->released; });
  }

  std::unique_ptr<BlockDevice> inner_;
  WriteParking* parking_;
};

}  // namespace dcode::raid

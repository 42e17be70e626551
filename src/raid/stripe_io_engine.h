// StripeIoEngine: the batched stripe I/O executor between the array's
// policy layer and the BlockDevice layer.
//
// The array describes WHAT to transfer as batches of element-granular
// accesses (the planner's unit); the engine decides HOW:
//
//  * grouping — one index sort orders a batch by (disk, device offset),
//    so each disk's accesses form one group in ascending offset order
//    and the groups follow in ascending disk order. The indices live in
//    per-thread storage that keeps its capacity between batches;
//  * coalescing — same-disk accesses to adjacent device offsets merge
//    into one ranged vectored transfer (readv/writev), so a full-stripe
//    read costs a handful of device ops instead of rows × cols memcpys;
//    each run's iovec array is per-thread storage;
//  * parallelism — per-disk groups fan out across the ThreadPool, so
//    independent disks (and therefore independent stripes) transfer
//    concurrently for user reads/writes, not just rebuild (a one-worker
//    pool runs them inline on the calling thread);
//  * accounting — element-granular per-disk counters are maintained
//    exactly as if every element were its own access, so
//    per_disk_element_accesses() still equals the planner's IoPlan
//    predictions no matter how transfers were merged;
//  * fault handling — transient device errors are retried within a
//    budget, fail-stop devices surface as DiskFailedError, and every
//    element write is admitted through the array's WriteGate so
//    power-loss injection sees the same write stream it always did.
//
// The engine owns the disks (each backend wrapped in a
// FaultInjectingDevice) and materializes replacements through the
// array's ArrayOptions::device_factory.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "raid/array_metrics.h"
#include "raid/array_options.h"
#include "raid/fault_injection.h"
#include "raid/health_monitor.h"
#include "raid/integrity.h"
#include "util/thread_pool.h"

namespace dcode::raid {

// The array's power-loss injection hook: every element write is admitted
// through the gate before it reaches a device. armed() lets the engine
// skip the serial admission path entirely when no injection is active.
class WriteGate {
 public:
  virtual ~WriteGate() = default;
  virtual bool armed() const = 0;
  // Consumes one unit of write budget; throws PowerLossError when the
  // injected budget is exhausted.
  virtual void admit() = 0;
};

// One array disk as the upper layers see it: the decorated device, its
// checksum sidecar, and the element-granular accounting the experiments
// are built on.
class DiskHandle {
 public:
  DiskHandle(std::unique_ptr<BlockDevice> backend, size_t element_size,
             obs::Counter* element_reads, obs::Counter* element_writes,
             std::unique_ptr<ChecksumStore> integrity)
      : device_(std::make_unique<FaultInjectingDevice>(std::move(backend))),
        integrity_(std::move(integrity)),
        element_size_(static_cast<int64_t>(element_size)),
        obs_reads_(element_reads),
        obs_writes_(element_writes) {}

  int id() const { return device_->id(); }
  size_t size() const { return device_->size(); }
  bool failed() const { return device_->failed(); }
  std::string_view backend_name() const { return device_->backend_name(); }

  // Element-granular accounting (one count per element read/written via
  // the engine, however the transfers were coalesced) — the runtime twin
  // of sim::IoStats. The engine moves whole elements only, so the byte
  // counts follow from the element counts.
  int64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  int64_t writes() const { return writes_.load(std::memory_order_relaxed); }
  int64_t bytes_read() const { return reads() * element_size_; }
  int64_t bytes_written() const { return writes() * element_size_; }
  void reset_stats() {
    reads_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
    device_->reset_op_stats();
  }

  // Device-level op counts (one per ranged transfer): the coalescing
  // ratio is reads()/device_read_ops().
  int64_t device_read_ops() const { return device_->read_ops(); }
  int64_t device_write_ops() const { return device_->write_ops(); }

  // Rebuild watermark: stripes [0, readable_stripes) hold valid data on
  // this device. A freshly promoted (blank) spare starts at 0 and the
  // background rebuild worker advances the watermark stripe by stripe;
  // engine reads at/above it throw DiskFailedError so a stale healthy
  // plan can never silently return blank bytes. Writes are always
  // allowed: below the watermark they update rebuilt data, above it they
  // pre-populate elements the worker will overwrite consistently.
  int64_t readable_stripes() const {
    return readable_stripes_.load(std::memory_order_acquire);
  }
  void set_readable_stripes(int64_t stripes) {
    readable_stripes_.store(stripes, std::memory_order_release);
  }
  // Advance `expected` -> `expected + 1`; fails (returns false) when the
  // watermark moved underneath us — i.e. the device was re-promoted mid
  // rebuild pass and the pass's progress no longer applies.
  bool advance_readable_stripes(int64_t expected) {
    return readable_stripes_.compare_exchange_strong(
        expected, expected + 1, std::memory_order_acq_rel);
  }
  // `expected` -> fully readable; same CAS protection against a racing
  // re-promotion that reset the watermark to 0.
  bool mark_fully_readable(int64_t expected) {
    return readable_stripes_.compare_exchange_strong(
        expected, std::numeric_limits<int64_t>::max(),
        std::memory_order_acq_rel);
  }

  // This disk's integrity records.
  ChecksumStore& integrity() { return *integrity_; }
  const ChecksumStore& integrity() const { return *integrity_; }

  // Fault injection (decorator passthrough).
  FaultInjectingDevice& faults() { return *device_; }
  void corrupt(uint64_t offset, size_t len, Pcg32& rng) {
    device_->corrupt(offset, len, rng);
  }

  // Direct unaccounted device access — the test backdoor for planting
  // bytes behind the array's back. Throws DiskFailedError on a failed
  // device, like any other access.
  void read(uint64_t offset, std::span<uint8_t> out) const {
    if (!device_->read(offset, out).ok()) throw DiskFailedError(id());
  }
  void write(uint64_t offset, std::span<const uint8_t> in) {
    if (!device_->write(offset, in).ok()) throw DiskFailedError(id());
  }

 private:
  friend class StripeIoEngine;

  void account_reads(int64_t elements) {
    reads_.fetch_add(elements, std::memory_order_relaxed);
    if (obs_reads_ != nullptr) obs_reads_->inc(elements);
  }
  void account_writes(int64_t elements) {
    writes_.fetch_add(elements, std::memory_order_relaxed);
    if (obs_writes_ != nullptr) obs_writes_->inc(elements);
  }

  std::unique_ptr<FaultInjectingDevice> device_;
  std::unique_ptr<ChecksumStore> integrity_;
  std::atomic<int64_t> readable_stripes_{
      std::numeric_limits<int64_t>::max()};
  int64_t element_size_;
  obs::Counter* obs_reads_;
  obs::Counter* obs_writes_;
  mutable std::atomic<int64_t> reads_{0};
  mutable std::atomic<int64_t> writes_{0};
};

class StripeIoEngine {
 public:
  // One element access. `dst`/`src` must stay valid until the batch call
  // returns; element length is the engine-wide element_size.
  struct ReadOp {
    int disk;
    int64_t stripe;
    int row;
    uint8_t* dst;
  };
  struct WriteOp {
    int disk;
    int64_t stripe;
    int row;
    const uint8_t* src;
  };

  // Resolves an element's coding role for the write-identity tag:
  // (disk, stripe, row) -> 0 for data, 1 + family index for parity.
  using ElementRole = std::function<int(int, int64_t, int)>;

  // The engine reads `options` (its owner's; it must outlive the engine)
  // for the device backend, coalescing, fan-out and integrity settings.
  // A null `element_role` records every element as role 0.
  StripeIoEngine(int disks, size_t disk_size, size_t element_size, int rows,
                 ThreadPool& pool, ArrayMetrics* metrics, WriteGate* gate,
                 const ArrayOptions& options,
                 ElementRole element_role = nullptr);

  int disk_count() const { return static_cast<int>(disks_.size()); }
  size_t element_size() const { return element_size_; }

  DiskHandle& disk(int d) { return *disks_[static_cast<size_t>(d)]; }
  const DiskHandle& disk(int d) const {
    return *disks_[static_cast<size_t>(d)];
  }
  // Every disk's fault decorator, by disk id: what the health monitor
  // watches (each lives as long as the engine).
  std::vector<const FaultInjectingDevice*> devices() const {
    std::vector<const FaultInjectingDevice*> out;
    for (const auto& h : disks_) out.push_back(h->device_.get());
    return out;
  }

  // Batched element I/O: coalesced into ranged vectored transfers per
  // disk and fanned across the pool (per ArrayOptions::coalesce and
  // parallel_user_io). Ops may arrive in any order; reads of a failed
  // device throw DiskFailedError. With `verify` (the default, when
  // ArrayOptions::verify_reads is on) every element payload is
  // checksum-verified after the transfer; a condemned element throws
  // ElementIntegrityError. Scrub and journal replay pass verify = false —
  // they read raw precisely to judge the bytes themselves.
  void read_batch(std::span<const ReadOp> ops) { read_batch(ops, true); }
  void read_batch(std::span<const ReadOp> ops, bool verify);
  // Element writes. When the WriteGate is armed, ops execute serially in
  // batch order, one gate admission per element, so injected power loss
  // lands between exactly the same element writes as before batching.
  void write_batch(std::span<const WriteOp> ops);

  // Single-element conveniences.
  void read_element(int disk, int64_t stripe, int row, uint8_t* dst,
                    bool verify = true);
  void write_element(int disk, int64_t stripe, int row, const uint8_t* src);

  // --- integrity --------------------------------------------------------
  // Classifies raw payload bytes against disk `d`'s records.
  IntegrityVerdict classify_element(int d, int64_t stripe, int row,
                                    const uint8_t* data) const;
  // Re-derives checksum + identity tag from known-good content (journal
  // replay, scrub repair, reconstruction).
  void resync_element_integrity(int d, int64_t stripe, int row,
                                const uint8_t* data);
  // Linear element index on one device (ChecksumStore addressing).
  int64_t element_index(int64_t stripe, int row) const {
    return stripe * static_cast<int64_t>(rows_) + row;
  }

  // Fail-stop injection and blank-replacement (new backend from the
  // factory), mirroring a controller pulling and reseating a drive.
  void fail_disk(int d) { disk(d).faults().fail(); }
  void replace_disk(int d);

  // Routes per-op outcomes (transients, checksum mismatches, fail-stops)
  // into the health monitor. Optional; set once right after
  // construction, before any I/O.
  void set_health_monitor(HealthMonitor* monitor) { monitor_ = monitor; }

  // Flushes every non-failed device (fsync for FileDisk). Returns the
  // number of devices flushed.
  int flush();

  std::vector<int64_t> per_disk_element_accesses() const;
  void reset_stats();

  ThreadPool& pool() { return *pool_; }

 private:
  uint64_t element_offset(int64_t stripe, int row) const {
    return (static_cast<uint64_t>(stripe) * static_cast<uint64_t>(rows_) +
            static_cast<uint64_t>(row)) *
           element_size_;
  }
  // Issues the coalesced runs for `disk`; `idx` indexes into the batch.
  // `trace_span` attributes the emitted disk.read/disk.write events (0 =
  // the calling thread's current span); `op_id` stamps flight-recorder
  // events with the originating array op.
  void run_read(int d, std::span<const ReadOp> ops,
                std::span<const size_t> idx, uint64_t trace_span,
                uint64_t op_id, bool verify);
  // Verifies one coalesced run's payloads; throws ElementIntegrityError
  // (after one defensive re-read) on a condemned element.
  void verify_run(int d, std::span<const ReadOp> ops,
                  std::span<const size_t> idx, size_t first, size_t run,
                  uint64_t gen, uint64_t trace_span, uint64_t op_id);
  int element_role(int d, int64_t stripe, int row) const {
    return element_role_ ? element_role_(d, stripe, row) : 0;
  }
  // A fresh backend for disk `d` from the configured factory.
  std::unique_ptr<BlockDevice> new_device(int d) const;
  void run_write(int d, std::span<const WriteOp> ops,
                 std::span<const size_t> idx, uint64_t trace_span,
                 uint64_t op_id);
  // Groups a batch by disk and calls run(disk, indices) once per disk:
  // in ascending disk order, each group's indices in ascending device
  // offset. Groups go through the pool's parallel_for when
  // parallel_user_io is on, and run inline on this thread otherwise.
  template <typename Op, typename Run>
  void run_disk_groups(std::span<const Op> ops, Run&& run);
  // Runs the transfer `io` (a callable returning IoResult), retrying
  // transients within the budget. A success costs the health monitor
  // nothing (its window reads the device's op count); a fail-stop is
  // reported with the device generation the attempt ran on.
  template <typename Io>
  IoResult with_retries(FaultInjectingDevice& dev, uint64_t op_id,
                        Io&& io) const;
  // One transient outcome of attempt `attempt`, which ran on the device
  // of generation `gen`: counts it, then either sleeps the backoff and
  // returns true (retry) or, past the budget, fail-stops that device and
  // returns false.
  bool retry_transient(FaultInjectingDevice& dev, uint64_t op_id,
                       int attempt, uint64_t gen) const;
  void backoff_sleep(int disk, int attempt) const;

  size_t disk_size_;
  size_t element_size_;
  int rows_;
  ThreadPool* pool_;
  ArrayMetrics* metrics_;
  WriteGate* gate_;
  HealthMonitor* monitor_ = nullptr;
  const ArrayOptions& options_;
  ElementRole element_role_;
  std::vector<std::unique_ptr<DiskHandle>> disks_;
  // Distinguishes concurrent backoff jitter streams deterministically.
  mutable std::atomic<uint64_t> backoff_serial_{0};
};

}  // namespace dcode::raid

#include "raid/stripe_io_engine.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/op_context.h"
#include "obs/trace.h"
#include "raid/journal.h"
#include "xorops/checksum.h"

namespace dcode::raid {

namespace {

// Upper bound on elements per ranged transfer: keeps iovec arrays small
// and each pool task's critical section bounded. FileDisk additionally
// chunks at the syscall layer (IOV_MAX).
constexpr size_t kMaxRunElements = 1024;

// kTransient retries per transfer before the engine escalates the device
// to fail-stop.
constexpr int kTransientRetryLimit = 3;
// Exponential backoff between transient retries: sleep roughly
// base * 2^attempt, capped at kRetryBackoffMaxNs and jittered into
// [delay/2, delay).
constexpr int64_t kRetryBackoffBaseNs = 20'000;
constexpr int64_t kRetryBackoffMaxNs = 5'000'000;
// Seeds the deterministic backoff jitter stream (per disk x attempt x
// serial).
constexpr uint64_t kBackoffSeed = 0x5EEDBACCu;

// splitmix64: hashes the (seed, disk, attempt, serial) tuple into the
// jitter fraction — stateless, so concurrent retry loops never contend
// on a shared RNG and the same tuple always jitters the same way.
uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// This thread's iovec array for one coalesced run. A run holds at most
// kMaxRunElements elements, so the array stops growing after warm-up.
template <typename Vec>
std::span<Vec> run_iovecs(size_t n) {
  thread_local std::vector<Vec> iov;
  if (iov.size() < n) iov.resize(n);
  return {iov.data(), n};
}

// This thread's index array for grouping one batch. The dispatching
// thread blocks until the batch's groups finish and runs no other task
// meanwhile, so one array per thread serves every batch.
std::span<size_t> batch_indices(size_t n) {
  thread_local std::vector<size_t> idx;
  if (idx.size() < n) idx.resize(n);
  return {idx.data(), n};
}

}  // namespace

StripeIoEngine::StripeIoEngine(int disks, size_t disk_size,
                               size_t element_size, int rows,
                               ThreadPool& pool, ArrayMetrics* metrics,
                               WriteGate* gate, const ArrayOptions& options,
                               ElementRole element_role)
    : disk_size_(disk_size),
      element_size_(element_size),
      rows_(rows),
      pool_(&pool),
      metrics_(metrics),
      gate_(gate),
      options_(options),
      element_role_(std::move(element_role)) {
  DCODE_CHECK(disks > 0, "engine needs at least one disk");
  DCODE_CHECK(element_size_ > 0, "element size must be positive");
  DCODE_CHECK(rows_ > 0, "rows must be positive");
  const auto stripes = static_cast<int64_t>(
      disk_size_ / (element_size_ * static_cast<size_t>(rows_)));
  DCODE_CHECK(stripes <= kMaxTaggedStripes,
              "integrity tags address at most " +
                  std::to_string(kMaxTaggedStripes) + " stripes, got " +
                  std::to_string(stripes));
  disks_.reserve(static_cast<size_t>(disks));
  for (int d = 0; d < disks; ++d) {
    obs::Counter* er = nullptr;
    obs::Counter* ew = nullptr;
    if (metrics_ != nullptr) {
      er = metrics_->disk_element_reads[static_cast<size_t>(d)];
      ew = metrics_->disk_element_writes[static_cast<size_t>(d)];
    }
    std::unique_ptr<BlockDevice> device = new_device(d);
    auto store = std::make_unique<ChecksumStore>(
        static_cast<int64_t>(disk_size_ / element_size_));
    if (!options_.integrity_sidecar_dir.empty()) {
      const std::string path = options_.integrity_sidecar_dir + "/disk" +
                               std::to_string(d) + ".sum";
      // A sidecar's records describe the contents of the device it was
      // written beside: only a device that kept those contents may adopt
      // them. Over a blank device they would condemn every first read.
      if ((device->capabilities() & kDeviceReopened) == 0) {
        std::error_code ignored;
        std::filesystem::remove(path, ignored);
      }
      store->attach_file(path);
    }
    disks_.push_back(std::make_unique<DiskHandle>(
        std::move(device), element_size_, er, ew, std::move(store)));
  }
}

std::unique_ptr<BlockDevice> StripeIoEngine::new_device(int d) const {
  return options_.device_factory ? options_.device_factory(d, disk_size_)
                                 : default_device_factory()(d, disk_size_);
}

void StripeIoEngine::replace_disk(int d) {
  disk(d).faults().replace(new_device(d));
  // A blank replacement has no history: forget every record so rebuilt
  // elements re-register as they are written rather than reading as
  // corrupt against the dead disk's sums.
  disk(d).integrity().invalidate_all();
}

int StripeIoEngine::flush() {
  int flushed = 0;
  for (auto& h : disks_) {
    if (h->failed()) continue;
    DCODE_CHECK(h->faults().flush().ok(), "device flush failed");
    h->integrity().flush();
    ++flushed;
  }
  return flushed;
}

void StripeIoEngine::backoff_sleep(int disk, int attempt) const {
  int64_t delay = std::min(kRetryBackoffBaseNs << std::min(attempt, 20),
                           kRetryBackoffMaxNs);
  // Jitter into [delay/2, delay) so synchronized retry loops desynchronize
  // but the delay stays deterministic for a given (seed, disk, attempt,
  // serial) tuple.
  const uint64_t serial =
      backoff_serial_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t h =
      mix64(kBackoffSeed ^ (static_cast<uint64_t>(disk) << 32) ^
            (static_cast<uint64_t>(attempt) << 48) ^ serial);
  const int64_t half = delay / 2;
  delay = half + static_cast<int64_t>(h % static_cast<uint64_t>(half));
  if (metrics_ != nullptr) metrics_->engine_retry_backoff_ns->observe(delay);
  std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
}

bool StripeIoEngine::retry_transient(FaultInjectingDevice& dev,
                                     uint64_t op_id, int attempt,
                                     uint64_t gen) const {
  const int d = dev.id();
  if (monitor_ != nullptr) monitor_->record_transient(d);
  obs::FlightRecorder::global().record(
      obs::FlightEventKind::kRetry, op_id, d, attempt,
      static_cast<int64_t>(IoStatus::kTransient));
  if (attempt >= kTransientRetryLimit) {
    // Retry budget exhausted: escalate to fail-stop, the way a
    // controller offlines a drive that keeps erroring — but leave a
    // telemetry trail, a silent fail-stop is indistinguishable from a
    // pulled drive. Only the device the attempt ran on is failed.
    dev.fail_if_generation(gen);
    if (metrics_ != nullptr) metrics_->engine_retry_exhausted->inc();
    obs::FlightRecorder::global().record(obs::FlightEventKind::kFailStop,
                                         op_id, d, attempt, 0);
    obs::Span span(obs::TraceLog::global(), "engine.retry_exhausted",
                   {{"disk", d}, {"attempts", attempt}});
    if (monitor_ != nullptr) monitor_->report_fail_stop(d, gen);
    return false;
  }
  if (metrics_ != nullptr) metrics_->engine_transient_retries->inc();
  backoff_sleep(d, attempt);
  return true;
}

template <typename Io>
IoResult StripeIoEngine::with_retries(FaultInjectingDevice& dev,
                                      uint64_t op_id, Io&& io) const {
  for (int attempt = 0;; ++attempt) {
    const uint64_t gen = dev.generation();
    const IoResult r = io();
    if (r.status == IoStatus::kFailed && monitor_ != nullptr) {
      // The device fail-stopped on its own (injected or real): the
      // monitor still owns the escalation decision.
      monitor_->report_fail_stop(dev.id(), gen);
    }
    if (r.status != IoStatus::kTransient) return r;
    if (!retry_transient(dev, op_id, attempt, gen)) return IoResult::failed();
  }
}

void StripeIoEngine::verify_run(int d, std::span<const ReadOp> ops,
                                std::span<const size_t> idx, size_t first,
                                size_t run, uint64_t gen, uint64_t trace_span,
                                uint64_t op_id) {
  DiskHandle& h = disk(d);
  const ChecksumStore& store = h.integrity();
  for (size_t k = 0; k < run; ++k) {
    const ReadOp& op = ops[idx[first + k]];
    const int64_t elem = element_index(op.stripe, op.row);
    uint64_t sum = xorops::checksum64(op.dst, element_size_);
    IntegrityVerdict v = store.classify(elem, sum);
    if (v == IntegrityVerdict::kOk || v == IntegrityVerdict::kUntracked) {
      continue;
    }
    // One defensive re-read before condemning: a coalesced run can race
    // a concurrent writer to a *neighboring* element's stripe, and media
    // may return a one-off flipped read; fetching just this element
    // settles both.
    const uint64_t base = element_offset(op.stripe, op.row);
    IoResult r = with_retries(h.faults(), op_id, [&] {
      return h.faults().read(base, {op.dst, element_size_});
    });
    if (!r.ok() || h.faults().generation() != gen) throw DiskFailedError(d);
    sum = xorops::checksum64(op.dst, element_size_);
    v = store.classify(elem, sum);
    if (v == IntegrityVerdict::kOk || v == IntegrityVerdict::kUntracked) {
      continue;
    }
    if (metrics_ != nullptr) {
      switch (v) {
        case IntegrityVerdict::kMisdirected:
          metrics_->integrity_mismatch_misdirected->inc();
          break;
        case IntegrityVerdict::kStale:
          metrics_->integrity_mismatch_stale->inc();
          break;
        default:
          metrics_->integrity_mismatch_corrupt->inc();
          break;
      }
    }
    obs::FlightRecorder::global().record(
        obs::FlightEventKind::kIntegrityMismatch, op_id, d, elem,
        static_cast<int64_t>(v));
    if (auto& tlog = obs::TraceLog::global(); tlog.enabled()) {
      tlog.event_in_span(trace_span, "integrity.mismatch",
                         {{"disk", d},
                          {"stripe", op.stripe},
                          {"row", op.row},
                          {"verdict", to_string(v)}});
    }
    if (monitor_ != nullptr) monitor_->record_checksum_mismatch(d);
    throw ElementIntegrityError(d, op.stripe, op.row, v);
  }
  if (metrics_ != nullptr) {
    metrics_->integrity_elements_verified->inc(static_cast<int64_t>(run));
  }
}

void StripeIoEngine::run_read(int d, std::span<const ReadOp> ops,
                              std::span<const size_t> idx,
                              uint64_t trace_span, uint64_t op_id,
                              bool verify) {
  DiskHandle& h = disk(d);
  // Rebuild watermark: a promoted spare only holds valid data below its
  // readable-stripe floor; a plan that reaches above it raced a failure
  // and must re-plan degraded (same contract as a failed device).
  const int64_t readable = h.readable_stripes();
  if (readable != std::numeric_limits<int64_t>::max()) {
    for (size_t k : idx) {
      if (ops[k].stripe >= readable) throw DiskFailedError(d);
    }
  }
  // An automatic spare promotion can swap the device between this guard
  // and the reads below (or between the retries inside with_retries), in
  // which case an op "succeeds" against the blank replacement and returns
  // zeros. The generation check after the reads rejects anything that
  // straddled a swap.
  const uint64_t gen = h.faults().generation();
  size_t i = 0;
  while (i < idx.size()) {
    // Extend the run while device offsets stay adjacent.
    size_t run = 1;
    uint64_t base = element_offset(ops[idx[i]].stripe, ops[idx[i]].row);
    if (options_.coalesce) {
      while (i + run < idx.size() && run < kMaxRunElements &&
             element_offset(ops[idx[i + run]].stripe, ops[idx[i + run]].row) ==
                 base + run * element_size_) {
        ++run;
      }
    }
    IoResult r;
    if (run == 1) {
      r = with_retries(h.faults(), op_id, [&] {
        return h.faults().read(base,
                               {ops[idx[i]].dst, element_size_});
      });
    } else {
      const std::span<IoVec> iov = run_iovecs<IoVec>(run);
      for (size_t k = 0; k < run; ++k) {
        iov[k] = IoVec{ops[idx[i + k]].dst, element_size_};
      }
      r = with_retries(h.faults(), op_id,
                       [&] { return h.faults().readv(base, iov); });
    }
    if (!r.ok() || h.faults().generation() != gen) throw DiskFailedError(d);
    h.account_reads(static_cast<int64_t>(run));
    obs::FlightRecorder::global().record(
        obs::FlightEventKind::kDiskRead, op_id, d, static_cast<int64_t>(base),
        static_cast<int64_t>(run));
    // One leaf per coalesced run: the causal tree stays element-exact
    // because (offset, elements) expands back to per-element accesses.
    // Guarded here so attr construction is skipped when tracing is off.
    if (auto& tlog = obs::TraceLog::global(); tlog.enabled()) {
      tlog.event_in_span(trace_span, "disk.read",
                         {{"disk", d},
                          {"offset", static_cast<int64_t>(base)},
                          {"elements", static_cast<int64_t>(run)}});
    }
    if (verify && options_.verify_reads) {
      verify_run(d, ops, idx, i, run, gen, trace_span, op_id);
    }
    i += run;
  }
}

void StripeIoEngine::run_write(int d, std::span<const WriteOp> ops,
                               std::span<const size_t> idx,
                               uint64_t trace_span, uint64_t op_id) {
  DiskHandle& h = disk(d);
  size_t i = 0;
  while (i < idx.size()) {
    size_t run = 1;
    uint64_t base = element_offset(ops[idx[i]].stripe, ops[idx[i]].row);
    if (options_.coalesce) {
      while (i + run < idx.size() && run < kMaxRunElements &&
             element_offset(ops[idx[i + run]].stripe, ops[idx[i + run]].row) ==
                 base + run * element_size_) {
        ++run;
      }
    }
    IoResult r;
    if (run == 1) {
      r = with_retries(h.faults(), op_id, [&] {
        return h.faults().write(base, {ops[idx[i]].src, element_size_});
      });
    } else {
      const std::span<ConstIoVec> iov = run_iovecs<ConstIoVec>(run);
      for (size_t k = 0; k < run; ++k) {
        iov[k] = ConstIoVec{ops[idx[i + k]].src, element_size_};
      }
      r = with_retries(h.faults(), op_id,
                       [&] { return h.faults().writev(base, iov); });
    }
    if (!r.ok()) throw DiskFailedError(d);
    h.account_writes(static_cast<int64_t>(run));
    obs::FlightRecorder::global().record(
        obs::FlightEventKind::kDiskWrite, op_id, d,
        static_cast<int64_t>(base), static_cast<int64_t>(run));
    if (auto& tlog = obs::TraceLog::global(); tlog.enabled()) {
      tlog.event_in_span(trace_span, "disk.write",
                         {{"disk", d},
                          {"offset", static_cast<int64_t>(base)},
                          {"elements", static_cast<int64_t>(run)}});
    }
    // Record-after-write: the store only learns sums the device has
    // acknowledged. A device that acks and then drops the payload (lost
    // write) leaves the store ahead of the platter — which is exactly
    // what makes the loss detectable on the next read.
    for (size_t k = 0; k < run; ++k) {
      const WriteOp& op = ops[idx[i + k]];
      h.integrity().record(element_index(op.stripe, op.row),
                           xorops::checksum64(op.src, element_size_),
                           op.stripe, op.row,
                           element_role(d, op.stripe, op.row));
    }
    i += run;
  }
}

template <typename Op, typename Run>
void StripeIoEngine::run_disk_groups(std::span<const Op> ops, Run&& run) {
  // One index array sorted by (disk, device offset): each disk's ops form
  // one contiguous group, in offset order so adjacency is visible to the
  // coalescer, and the groups follow in disk order. Behind the indices,
  // the same storage holds each group's start.
  const size_t n = ops.size();
  const std::span<size_t> storage = batch_indices(2 * n + 1);
  const std::span<size_t> idx = storage.first(n);
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    if (ops[a].disk != ops[b].disk) return ops[a].disk < ops[b].disk;
    const int64_t ea = element_index(ops[a].stripe, ops[a].row);
    const int64_t eb = element_index(ops[b].stripe, ops[b].row);
    return ea != eb ? ea < eb : a < b;
  });
  const std::span<size_t> starts = storage.subspan(n);
  size_t groups = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || ops[idx[i]].disk != ops[idx[i - 1]].disk) {
      starts[groups++] = i;
    }
  }
  starts[groups] = n;
  auto run_group = [&](size_t g) {
    const size_t first = starts[g];
    run(ops[idx[first]].disk,
        std::span<const size_t>(idx).subspan(first, starts[g + 1] - first));
  };
  if (options_.parallel_user_io) {
    pool_->parallel_for(groups, run_group);
  } else {
    for (size_t g = 0; g < groups; ++g) run_group(g);
  }
}

void StripeIoEngine::read_batch(std::span<const ReadOp> ops, bool verify) {
  if (ops.empty()) return;
  // Capture the dispatching op's identity before fanning out: batch
  // calls block until every run finishes, so pool workers can safely
  // stamp the context's op id and hang their device events under this
  // span no matter which thread executes them.
  const obs::OpContext* ctx = obs::current_op_context();
  const uint64_t op_id = ctx != nullptr ? ctx->op_id : 0;
  obs::Span span(obs::TraceLog::global(), "engine.read_batch",
                 ctx != nullptr ? ctx->span_id : 0,
                 {{"ops", static_cast<int64_t>(ops.size())}});
  if (ops.size() == 1) {
    const ReadOp& op = ops.front();
    size_t one = 0;
    run_read(op.disk, ops, {&one, 1}, span.id(), op_id, verify);
    return;
  }
  run_disk_groups(ops, [&](int d, std::span<const size_t> group) {
    run_read(d, ops, group, span.id(), op_id, verify);
  });
}

void StripeIoEngine::write_batch(std::span<const WriteOp> ops) {
  if (ops.empty()) return;
  const obs::OpContext* ctx = obs::current_op_context();
  const uint64_t op_id = ctx != nullptr ? ctx->op_id : 0;
  obs::Span span(obs::TraceLog::global(), "engine.write_batch",
                 ctx != nullptr ? ctx->span_id : 0,
                 {{"ops", static_cast<int64_t>(ops.size())}});
  if (gate_ != nullptr && gate_->armed()) {
    // Power-loss injection active: execute strictly in batch order, one
    // admission per element, so the crash lands between the same element
    // writes it always did — and elements admitted before it persist.
    for (const WriteOp& op : ops) {
      gate_->admit();
      size_t idx_store = &op - ops.data();
      run_write(op.disk, ops, {&idx_store, 1}, span.id(), op_id);
    }
    return;
  }
  if (ops.size() == 1) {
    size_t one = 0;
    run_write(ops.front().disk, ops, {&one, 1}, span.id(), op_id);
    return;
  }
  run_disk_groups(ops, [&](int d, std::span<const size_t> group) {
    run_write(d, ops, group, span.id(), op_id);
  });
}

void StripeIoEngine::read_element(int d, int64_t stripe, int row,
                                  uint8_t* dst, bool verify) {
  // Single-element path runs on the caller's thread: trace_span 0 lets
  // the device event attach to whatever span is live there (the op root,
  // a degraded_read span, ...).
  const obs::OpContext* ctx = obs::current_op_context();
  ReadOp op{d, stripe, row, dst};
  size_t one = 0;
  run_read(d, {&op, 1}, {&one, 1}, 0, ctx != nullptr ? ctx->op_id : 0,
           verify);
}

void StripeIoEngine::write_element(int d, int64_t stripe, int row,
                                   const uint8_t* src) {
  if (gate_ != nullptr) gate_->admit();
  const obs::OpContext* ctx = obs::current_op_context();
  WriteOp op{d, stripe, row, src};
  size_t one = 0;
  run_write(d, {&op, 1}, {&one, 1}, 0, ctx != nullptr ? ctx->op_id : 0);
}

IntegrityVerdict StripeIoEngine::classify_element(int d, int64_t stripe,
                                                  int row,
                                                  const uint8_t* data) const {
  return disk(d).integrity().classify(element_index(stripe, row),
                                     xorops::checksum64(data, element_size_));
}

void StripeIoEngine::resync_element_integrity(int d, int64_t stripe, int row,
                                              const uint8_t* data) {
  disk(d).integrity().resync(element_index(stripe, row),
                             xorops::checksum64(data, element_size_), stripe,
                             row, element_role(d, stripe, row));
}

std::vector<int64_t> StripeIoEngine::per_disk_element_accesses() const {
  std::vector<int64_t> out;
  out.reserve(disks_.size());
  for (const auto& h : disks_) out.push_back(h->reads() + h->writes());
  return out;
}

void StripeIoEngine::reset_stats() {
  for (auto& h : disks_) h->reset_stats();
}

}  // namespace dcode::raid

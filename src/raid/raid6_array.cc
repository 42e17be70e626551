// Raid6Array core: construction, healthy-path read/write, fault
// injection and spare promotion, and observability. The write-hole
// machinery lives in array_journal.cc, the degraded-mode paths in
// degraded_path.cc, the rebuild pass in background_rebuild.cc, scrub and
// the write-path integrity repairs in scrub.cc, and the stripe-repair
// steps they share in stripe_repair.cc; batched element I/O is the
// StripeIoEngine's job.
#include "raid/raid6_array.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <new>
#include <mutex>
#include <optional>

#include "codes/encoder.h"
#include "codes/stripe.h"
#include "obs/flight_recorder.h"
#include "obs/op_context.h"
#include "obs/trace.h"
#include "xorops/xor_region.h"

namespace dcode::raid {

using codes::CodeLayout;
using codes::Element;
using codes::Equation;
using codes::Stripe;

using ReadOp = StripeIoEngine::ReadOp;
using WriteOp = StripeIoEngine::WriteOp;

namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-op envelope for read()/write(): binds an obs::OpContext to the
// calling thread (adopting one already bound by the caller — the load
// harness binds its own with enqueue_ns set to the op's intended
// arrival), opens the op's root trace span, stamps begin/end events into
// the flight recorder, and on scope exit (including unwinds) observes
// the op's latency histogram and runs the slow-op watchdog.
class OpGuard {
 public:
  OpGuard(bool is_write, int64_t offset, int64_t bytes, bool degraded,
          ArrayMetrics& metrics, const ArrayOptions& opts)
      : is_write_(is_write), metrics_(metrics), opts_(opts) {
    ctx_ = obs::current_op_context();
    if (ctx_ == nullptr) {
      local_.op_id = obs::next_op_id();
      local_.enqueue_ns = now_ns();
      ctx_ = &local_;
      scope_.emplace(&local_);
    }
    ctx_->start_ns = now_ns();
    if (auto& log = obs::TraceLog::global(); log.enabled()) {
      obs::TraceAttrs attrs = {
          {"op", ctx_->op_id},
          {"offset", offset},
          {"bytes", bytes},
          {"degraded", degraded},
          {"queue_ns", ctx_->start_ns - ctx_->enqueue_ns}};
      span_ = std::make_unique<obs::Span>(
          log, is_write ? "array.write" : "array.read", uint64_t{0}, attrs);
      ctx_->span_id = span_->id();
    }
    obs::FlightRecorder::global().record(
        is_write ? obs::FlightEventKind::kWriteBegin
                 : obs::FlightEventKind::kReadBegin,
        ctx_->op_id, -1, offset, bytes);
  }

  ~OpGuard() {
    // Latency from the *intended* arrival when the caller provided one:
    // an op that sat behind a queue was slow from the client's point of
    // view no matter how fast the array served it once started.
    const int64_t end = now_ns();
    const int64_t lat =
        end - (ctx_->enqueue_ns > 0 ? ctx_->enqueue_ns : ctx_->start_ns);
    (is_write_ ? metrics_.write_latency_ns : metrics_.read_latency_ns)
        ->observe(lat);
    obs::FlightRecorder::global().record(
        is_write_ ? obs::FlightEventKind::kWriteEnd
                  : obs::FlightEventKind::kReadEnd,
        ctx_->op_id, -1, lat, 0);
    if (opts_.slow_op_threshold_ns > 0 && lat >= opts_.slow_op_threshold_ns) {
      metrics_.slow_ops->inc();
      obs::FlightRecorder::global().record(obs::FlightEventKind::kSlowOp,
                                           ctx_->op_id, -1, lat,
                                           opts_.slow_op_threshold_ns);
      if (span_ != nullptr) {
        span_->note("array.slow_op",
                    {{"latency_ns", lat},
                     {"threshold_ns", opts_.slow_op_threshold_ns}});
      }
      obs::FlightRecorder::global().request_dump("slow_op");
    }
  }

  OpGuard(const OpGuard&) = delete;
  OpGuard& operator=(const OpGuard&) = delete;

 private:
  bool is_write_;
  ArrayMetrics& metrics_;
  const ArrayOptions& opts_;
  obs::OpContext local_{};
  obs::OpContext* ctx_ = nullptr;
  std::optional<obs::OpContextScope> scope_;
  std::unique_ptr<obs::Span> span_;  // destroyed after ~OpGuard's body,
                                     // so slow-op notes land inside it
};

size_t checked_disk_size(const CodeLayout& layout, size_t element_size,
                         int64_t stripes) {
  DCODE_CHECK(element_size > 0, "element size must be positive");
  DCODE_CHECK(stripes > 0, "array needs at least one stripe");
  return static_cast<size_t>(stripes) *
         static_cast<size_t>(layout.rows()) * element_size;
}

}  // namespace

uint8_t* Raid6Array::element_slots(size_t count) const {
  struct Slots {
    uint8_t* data = nullptr;
    size_t bytes = 0;
    ~Slots() { ::operator delete(data, std::align_val_t{64}); }
  };
  thread_local Slots slots;
  const size_t bytes = count * slot_bytes();
  if (bytes > slots.bytes) {
    ::operator delete(slots.data, std::align_val_t{64});
    slots.data = nullptr;
    slots.bytes = 0;
    slots.data =
        static_cast<uint8_t*>(::operator new(bytes, std::align_val_t{64}));
    slots.bytes = bytes;
  }
  return slots.data;
}

Raid6Array::OpTables& Raid6Array::op_tables() {
  thread_local OpTables tables;
  return tables;
}

Raid6Array::ScratchLease::ScratchLease(Raid6Array& array) : array_(array) {
  {
    std::lock_guard<std::mutex> lock(array_.scratch_mu_);
    if (!array_.scratch_free_.empty()) {
      w_ = std::move(array_.scratch_free_.back());
      array_.scratch_free_.pop_back();
      return;
    }
  }
  w_ = std::make_unique<StripeScratch>(*array_.layout_, array_.element_size_);
}

Raid6Array::ScratchLease::~ScratchLease() {
  std::lock_guard<std::mutex> lock(array_.scratch_mu_);
  array_.scratch_free_.push_back(std::move(w_));
}

void Raid6Array::overlay_range(int64_t g, int64_t offset, int64_t len,
                               int64_t esize, size_t* elem_begin,
                               size_t* src_begin, size_t* out_len) {
  int64_t elem_start = g * esize;
  int64_t lo = std::max<int64_t>(offset, elem_start);
  int64_t hi = std::min<int64_t>(offset + len, elem_start + esize);
  *elem_begin = static_cast<size_t>(lo - elem_start);
  *src_begin = static_cast<size_t>(lo - offset);
  *out_len = static_cast<size_t>(hi - lo);
}

Raid6Array::Raid6Array(std::unique_ptr<CodeLayout> layout,
                       size_t element_size, int64_t stripes, unsigned threads,
                       obs::Registry* registry, ArrayOptions options)
    : layout_(std::move(layout)),
      element_size_(element_size),
      stripes_(stripes),
      options_(std::move(options)),
      map_(*layout_),
      planner_(map_),
      pool_(threads),
      metrics_(registry != nullptr ? *registry : obs::Registry::global(),
               layout_->cols()),
      engine_(layout_->cols(),
              checked_disk_size(*layout_, element_size, stripes),
              element_size, layout_->rows(), pool_, &metrics_, this, options_,
              // Write-identity role for the sidecar tags: invert the
              // stripe rotation to the logical column, then ask the
              // layout. map_/layout_ are constructed above; the engine
              // only calls this from write paths, never during
              // construction.
              [this](int d, int64_t stripe, int row) {
                return layout_->is_parity(row,
                                          map_.logical_column(stripe, d))
                           ? 1
                           : 0;
              }),
      health_(engine_.devices(),
              registry != nullptr ? *registry : obs::Registry::global(),
              stripes),
      stripe_locks_(static_cast<int>(std::min(stripes, kMaxStripeLockSlots)),
                    metrics_.stripe_lock_wait_ns),
      rebuild_throttle_(options_.rebuild_rate_stripes_per_sec,
                        options_.rebuild_burst_stripes) {
  engine_.set_health_monitor(&health_);
  // next()'s actions, run under the monitor's lock. The moments before
  // an escalation are what a post-mortem wants, so the flight rings are
  // dumped before the promotion and rebuild flood them. A worker starts
  // only after the last one stood the pass down, so its join waits for
  // nothing but that thread's exit.
  health_.set_actions(
      {[this](int d) {
         engine_.disk(d).faults().fail();
         metrics_.disk_failures[static_cast<size_t>(d)]->inc();
         metrics_.disks_failed->add(1);
         obs::FlightRecorder::global().request_dump("disk_failure");
       },
       [this](int d) {
         engine_.replace_disk(d);
         metrics_.disks_failed->sub(1);
       },
       [this] {
         if (rebuild_thread_.joinable()) rebuild_thread_.join();
         rebuild_thread_ = std::thread([this] { background_rebuild_worker(); });
       }});
}

Raid6Array::~Raid6Array() {
  stop_rebuild_.store(true, std::memory_order_relaxed);
  health_.wait_for_pass();
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
}

int Raid6Array::failed_disk_count() const {
  int n = 0;
  for (int d = 0; d < layout_->cols(); ++d) n += engine_.disk(d).failed();
  return n;
}

void Raid6Array::reset_stats() { engine_.reset_stats(); }

void Raid6Array::add_hot_spares(int count) {
  DCODE_CHECK(count >= 0, "spare count must be non-negative");
  health_.add_spares(count);
}

void Raid6Array::fail_disk(int disk) {
  DCODE_CHECK(disk >= 0 && disk < layout_->cols(), "disk out of range");
  health_.fail(disk);
  if (!options_.background_rebuild && health_.watermark(disk) != kWhole) {
    // Synchronous behaviour: a promoted spare is rebuilt (by the worker
    // its promotion started) before fail_disk returns.
    wait_for_rebuild();
  }
}

void Raid6Array::replace_disk(int disk) {
  DCODE_CHECK(disk >= 0 && disk < layout_->cols(), "disk out of range");
  DCODE_CHECK(engine_.disk(disk).failed(),
              "only failed disks can be replaced");
  health_.replace(disk);
}

void Raid6Array::write_stripe_rmw(int64_t stripe, int64_t g,
                                  int64_t stripe_end, int64_t offset,
                                  std::span<const uint8_t> data) {
  const CodeLayout& layout = *layout_;
  const int64_t esize = static_cast<int64_t>(element_size_);
  const int64_t end = offset + static_cast<int64_t>(data.size());
  const size_t n = static_cast<size_t>(stripe_end - g + 1);
  OpTables& t = op_tables();
  t.locs.clear();
  t.written.clear();
  for (int64_t e = g; e <= stripe_end; ++e) {
    t.locs.push_back(map_.locate(e));
    t.written.push_back(t.locs.back().element);
  }
  dirty_parity_closure(layout, t.written, t.closure, t.closure_marks);
  const std::vector<int>& closure = t.closure;
  const size_t m = closure.size();
  // The disks degraded for this stripe, as of now: the caller holds its
  // lock, so only a disk failing mid-op changes the set.
  std::vector<int>& failed = t.failed;
  failed.clear();
  for (int d = 0; d < layout.cols(); ++d) {
    if (disk_degraded_for_stripe(d, stripe)) failed.push_back(d);
  }
  // A write that covers every data element of a healthy stripe needs none
  // of its old contents: its closure is every equation, and each parity is
  // encoded from the caller's bytes in encode order (reconstruct-write
  // with nothing to read), then data and parity go out in one batch.
  const bool encode =
      failed.empty() && n == static_cast<size_t>(layout.data_count()) &&
      m == layout.equations().size() && g * esize >= offset &&
      (stripe_end + 1) * esize <= end;
  // Per dirty parity: whether its value is captured in its parity slot
  // (kParityRead, kParityPlanned in a degraded stripe's first batch, or
  // kParityEncoded).
  std::vector<char>& parity_live = t.flags;
  parity_live.assign(m, encode ? kParityEncoded : 0);

  // One scratch region per call: n old-data slots (turned into deltas in
  // place), two partial-edge overlays, then m parity deltas and m parity
  // values (an encoded stripe uses only the parity values); a stripe with
  // a lost column adds a slot per other cell its plan reads or rebuilds.
  // Nothing is zero-filled: every slot is read into or assigned before it
  // is read.
  //
  // Phase 1: the old contents of every touched data element. A healthy
  // stripe batch-reads them (an encoded one needs none); a stripe with a
  // lost column takes them, and its live dirty parities, from the
  // planner's degraded write plan (read_old_values_degraded).
  std::vector<ReadOp>& rops = t.rops;
  uint8_t* base;
  if (failed.empty()) {
    base = element_slots(n + 2 + 2 * m);
    if (!encode) {
      rops.clear();
      for (size_t i = 0; i < n; ++i) {
        rops.push_back({t.locs[i].disk, stripe, t.locs[i].element.row,
                        base + i * slot_bytes()});
      }
      engine_.read_batch(rops);
    }
  } else {
    base = read_old_values_degraded(stripe, g, n);
  }
  auto slot = [&](size_t i) { return base + i * slot_bytes(); };
  auto pdelta = [&](size_t i) { return slot(n + 2 + i); };
  auto parity = [&](size_t i) { return slot(n + 2 + m + i); };

  // Phase 2 (computation only): the new payload of each element — a fully
  // covered one straight from the caller's buffer, a partial edge as the
  // old element with the user bytes overlaid — and the per-element
  // deltas, then the parity deltas of the dirty closure in topo order;
  // an encoded stripe runs the same pass over new values, so it yields
  // each parity's new value. No I/O happens here, so everything below
  // works from values captured while the stripe was still consistent.
  std::vector<const uint8_t*>& fresh = t.fresh;
  std::vector<const uint8_t*>& delta = t.delta;
  fresh.assign(n, nullptr);
  delta.assign(static_cast<size_t>(layout.rows() * layout.cols()), nullptr);
  auto cell = [&](const Element& e) {
    return static_cast<size_t>(e.row * layout.cols() + e.col);
  };
  uint8_t* overlay = slot(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t e = g + static_cast<int64_t>(i);
    uint8_t* old = slot(i);
    if (e * esize >= offset && (e + 1) * esize <= end) {
      fresh[i] = data.data() + (e * esize - offset);
    } else {
      size_t eb, sb, len;
      overlay_range(e, offset, static_cast<int64_t>(data.size()), esize, &eb,
                    &sb, &len);
      std::memcpy(overlay, old, element_size_);
      std::memcpy(overlay + eb, data.data() + sb, len);
      fresh[i] = overlay;
      overlay += slot_bytes();
    }
    if (encode) {
      delta[cell(t.locs[i].element)] = fresh[i];
      continue;
    }
    xorops::xor_into(old, fresh[i], element_size_);  // old ^ new
    delta[cell(t.locs[i].element)] = old;
  }
  std::vector<int>& pdisks = t.pdisks;
  std::vector<const uint8_t*>& members = t.members;
  pdisks.clear();
  for (size_t i = 0; i < m; ++i) {
    const Equation& q = layout.equations()[static_cast<size_t>(closure[i])];
    pdisks.push_back(map_.physical_disk(stripe, q.parity.col));
    members.clear();
    for (const Element& src : q.sources) {
      if (delta[cell(src)] != nullptr) members.push_back(delta[cell(src)]);
    }
    DCODE_ASSERT(!members.empty(), "a dirty equation has a changed source");
    DCODE_ASSERT(!encode || members.size() == q.sources.size(),
                 "an encoded parity has the new value of every source");
    uint8_t* out = encode ? parity(i) : pdelta(i);
    xorops::xor_many(out, members, element_size_);
    delta[cell(q.parity)] = out;
  }

  // Phase 3 (writes, with internal failover): once the first device write
  // lands the stripe is mid-update, and re-reading it would mix old and
  // new state — a degraded re-plan decoding through a stale parity would
  // manufacture consistent garbage. So a disk dying from here on is
  // handled by REPLAYING the captured target values (data writes and
  // parity old^delta or encoded are idempotent), skipping disks that have
  // died; the rebuild later reconstructs their elements from the
  // consistent survivors. Only the pre-write phases above may throw to
  // the caller. An encoded stripe writes its data and parity in one batch.
  std::vector<WriteOp>& wops = t.wops;
  bool parity_read = encode;  // old parity captured once (encoded: none)
  for (int attempt = 0;; ++attempt) {
    try {
      wops.clear();
      for (size_t i = 0; i < n; ++i) {
        if (disk_degraded_for_stripe(t.locs[i].disk, stripe)) continue;
        wops.push_back(
            {t.locs[i].disk, stripe, t.locs[i].element.row, fresh[i]});
      }
      if (!encode) {
        engine_.write_batch(wops);
        wops.clear();
      }
      if (!parity_read) {
        // Parity is still uniformly old (no parity write has happened in
        // any attempt), so reading it now is safe; after this point the
        // captured values are authoritative and are never re-read. A
        // stripe with a lost column read them in its first batch.
        rops.clear();
        for (size_t i = 0; i < m; ++i) {
          if (parity_live[i] == kParityPlanned) continue;
          const Equation& q =
              layout.equations()[static_cast<size_t>(closure[i])];
          parity_live[i] =
              disk_degraded_for_stripe(pdisks[i], stripe) ? 0 : kParityRead;
          if (parity_live[i] != 0) {
            rops.push_back({pdisks[i], stripe, q.parity.row, parity(i)});
          }
        }
        engine_.read_batch(rops);
        for (size_t i = 0; i < m; ++i) {
          if (parity_live[i] != 0) {
            xorops::xor_into(parity(i), pdelta(i), element_size_);
          }
        }
        parity_read = true;
      }
      for (size_t i = 0; i < m; ++i) {
        if (parity_live[i] == 0 ||
            disk_degraded_for_stripe(pdisks[i], stripe)) {
          continue;
        }
        const Equation& q =
            layout.equations()[static_cast<size_t>(closure[i])];
        wops.push_back({pdisks[i], stripe, q.parity.row, parity(i)});
      }
      engine_.write_batch(wops);
      return;
    } catch (const ElementIntegrityError&) {
      // A condemned parity pre-read: replaying won't help (the platter
      // holds a stale/foreign value) — surface to write()'s integrity
      // handler, which repairs the stripe in place and retries.
      throw;
    } catch (const DiskFailedError&) {
      // More failures than the code tolerates would loop forever; at that
      // point the array is lost anyway — surface the error.
      if (attempt >= kMaxFailoverAttempts) throw;
      metrics_.failovers->inc();
    }
  }
}

void Raid6Array::write(int64_t offset, std::span<const uint8_t> data) {
  ensure_online();
  DCODE_CHECK(offset >= 0 && offset + static_cast<int64_t>(data.size()) <=
                                 capacity(),
              "write outside the array's data space");
  if (data.empty()) return;
  const CodeLayout& layout = *layout_;
  const int64_t esize = static_cast<int64_t>(element_size_);
  const int64_t first = offset / esize;
  const int64_t last = (offset + static_cast<int64_t>(data.size()) - 1) / esize;

  bool degraded = false;
  for (int d = 0; d < layout.cols(); ++d) degraded |= disk_degraded(d);
  OpGuard op(/*is_write=*/true, offset, static_cast<int64_t>(data.size()),
             degraded, metrics_, options_);
  (degraded ? metrics_.degraded_writes : metrics_.writes)->inc();
  metrics_.bytes_written->inc(static_cast<int64_t>(data.size()));
  metrics_.write_bytes->observe(static_cast<int64_t>(data.size()));

  // Group the touched elements by stripe.
  int64_t g = first;
  while (g <= last) {
    const int64_t stripe = g / layout.data_count();
    const int64_t stripe_end =
        std::min(last, (stripe + 1) * layout.data_count() - 1);

    // The stripe lock serializes this update against the background
    // rebuild worker (and other writers); degradedness is decided
    // per stripe under the lock, so a stripe behind the rebuild
    // watermark reads its old values directly while stripes ahead of it
    // plan them around the rebuilding disk. A disk failing before the
    // first device write surfaces as DiskFailedError — re-plan and retry
    // (failover).
    std::unique_lock<std::mutex> lock = stripe_lock(stripe);
    // Write-ahead intent record: must be durable before the first element
    // write of this stripe (itself consumes write budget, so an injected
    // crash can land on either side of it — both sides are safe). Opened
    // and committed under the stripe lock, so an open intent belongs to
    // the one writer holding it.
    if (journal_) {
      admit();
      if (journal_->begin(stripe)) metrics_.journal_intents_opened->inc();
    }
    bool salvage = false;
    for (int attempt = 0;; ++attempt) {
      try {
        if (salvage) {
          salvage_stripe_rewrite(stripe, g, stripe_end, offset, data);
        } else {
          write_stripe_rmw(stripe, g, stripe_end, offset, data);
        }
        break;
      } catch (const ElementIntegrityError&) {
        // An RMW pre-read (old data or old parity) failed verification.
        // Folding a condemned old value into a parity delta would fold
        // the corruption INTO parity, so repair the stripe in place
        // (we hold its lock) and retry the update against clean state.
        // If the in-place repair cannot converge (a mid-update stripe
        // where the condemned column's equations hold pre-update
        // parity), escalate to the salvage rewrite, which uses the
        // caller's buffer instead of RMW deltas.
        if (attempt >= kMaxFailoverAttempts) throw;
        metrics_.failovers->inc();
        if (attempt == 0 && !salvage) {
          clean_stripe_integrity(stripe);
        } else {
          salvage = true;
        }
      } catch (const DiskFailedError&) {
        if (attempt >= kMaxFailoverAttempts) throw;
        metrics_.failovers->inc();
      }
    }

    if (journal_) {
      admit();
      journal_->commit(stripe);
      metrics_.journal_commits->inc();
    }
    g = stripe_end + 1;
  }
}

void Raid6Array::read_healthy(int64_t first, int64_t last, int64_t offset,
                              std::span<uint8_t> out) {
  const int64_t esize = static_cast<int64_t>(element_size_);
  const int64_t end = offset + static_cast<int64_t>(out.size());
  const bool head_partial = first * esize < offset;
  const bool tail_partial = (last + 1) * esize > end;
  // Fully covered elements land straight in the caller's buffer; the (at
  // most two) partially covered edge elements bounce through this
  // thread's element slots. A single element partial at either edge uses
  // `head`.
  uint8_t* head = nullptr;
  uint8_t* tail = nullptr;
  if (head_partial || tail_partial) {
    head = element_slots(2);
    tail = last == first ? head : head + slot_bytes();
  }
  std::vector<ReadOp>& rops = op_tables().rops;
  rops.clear();
  for (int64_t e = first; e <= last; ++e) {
    auto loc = map_.locate(e);
    const bool full = e * esize >= offset && (e + 1) * esize <= end;
    uint8_t* dst = full ? out.data() + (e * esize - offset)
                        : (e == first ? head : tail);
    rops.push_back({loc.disk, loc.stripe, loc.element.row, dst});
  }
  engine_.read_batch(rops);
  auto copy_out = [&](int64_t e, const uint8_t* elem) {
    size_t eb, sb, len;
    overlay_range(e, offset, static_cast<int64_t>(out.size()), esize, &eb,
                  &sb, &len);
    std::memcpy(out.data() + sb, elem + eb, len);
  };
  if (head_partial) copy_out(first, head);
  if (tail_partial) copy_out(last, tail);
}

void Raid6Array::read(int64_t offset, std::span<uint8_t> out) {
  ensure_online();
  DCODE_CHECK(offset >= 0 && offset + static_cast<int64_t>(out.size()) <=
                                 capacity(),
              "read outside the array's data space");
  if (out.empty()) return;
  const int64_t esize = static_cast<int64_t>(element_size_);
  const int64_t first = offset / esize;
  const int64_t last = (offset + static_cast<int64_t>(out.size()) - 1) / esize;

  const int64_t last_stripe = last / layout_->data_count();
  // Disks verify-on-read has condemned an element of during THIS op:
  // planned around like failed disks, so the data comes from parity
  // (which is correct — parity took the write the platter lost). The set
  // is op-local; scrub owns the durable repair.
  std::vector<int> suspects;
  std::vector<int>& failed = op_tables().failed;
  auto collect_failed = [&] {
    failed.clear();
    // Degraded for any stripe of the range: the watermark only rises, so
    // the last stripe decides.
    for (int d = 0; d < layout_->cols(); ++d) {
      if (disk_degraded_for_stripe(d, last_stripe)) failed.push_back(d);
    }
    for (int d : suspects) {
      if (std::find(failed.begin(), failed.end(), d) == failed.end()) {
        failed.push_back(d);
      }
    }
    std::sort(failed.begin(), failed.end());
  };
  collect_failed();
  OpGuard op(/*is_write=*/false, offset, static_cast<int64_t>(out.size()),
             !failed.empty(), metrics_, options_);
  (failed.empty() ? metrics_.reads : metrics_.degraded_reads)->inc();
  metrics_.bytes_read->inc(static_cast<int64_t>(out.size()));
  metrics_.read_bytes->observe(static_cast<int64_t>(out.size()));

  // Failover loop: a disk failing (or a spare being promoted) while this
  // read is in flight surfaces as DiskFailedError from the engine; the
  // failure set is recomputed and the read re-planned from the first
  // element not yet served, so user reads never fail for fault sequences
  // the code tolerates.
  int64_t g = first;
  for (int attempt = 0;; ++attempt) {
    try {
      if (failed.empty()) {
        read_healthy(first, last, offset, out);
        return;
      }
      // A lost element decodes through the other members of its
      // equations, which a write to a neighbouring element of the stripe
      // may be changing: each stripe is served under its lock, as write()
      // updates it.
      while (g <= last) {
        const int64_t stripe = g / layout_->data_count();
        const int64_t stripe_end =
            std::min(last, (stripe + 1) * layout_->data_count() - 1);
        std::unique_lock<std::mutex> lock = stripe_lock(stripe);
        read_stripe_degraded(stripe, g, stripe_end, offset, out, failed);
        g = stripe_end + 1;
      }
      return;
    } catch (const ElementIntegrityError& e) {
      // Must precede the DiskFailedError catch (it's a subclass). The
      // engine already counted/traced the mismatch; here we only
      // re-plan so the caller gets correct bytes.
      if (attempt >= kMaxFailoverAttempts) throw;
      metrics_.failovers->inc();
      metrics_.integrity_read_fallbacks->inc();
      if (std::find(suspects.begin(), suspects.end(), e.disk()) ==
          suspects.end()) {
        suspects.push_back(e.disk());
      }
      collect_failed();
    } catch (const DiskFailedError&) {
      if (attempt >= kMaxFailoverAttempts) throw;
      metrics_.failovers->inc();
      collect_failed();
    }
  }
}

std::vector<int64_t> Raid6Array::per_disk_element_accesses() const {
  return engine_.per_disk_element_accesses();
}

void Raid6Array::publish_disk_metrics(obs::Registry& registry) const {
  for (int d = 0; d < layout_->cols(); ++d) {
    const DiskHandle& h = engine_.disk(d);
    obs::Labels l = {{"disk", std::to_string(h.id())}};
    registry.gauge("raid.disk.reads", l).set(h.reads());
    registry.gauge("raid.disk.writes", l).set(h.writes());
    registry.gauge("raid.disk.bytes_read", l).set(h.bytes_read());
    registry.gauge("raid.disk.bytes_written", l).set(h.bytes_written());
    registry.gauge("raid.disk.failed", l).set(h.failed() ? 1 : 0);
    // Rebuild progress: stripes of this device currently readable
    // (clamped — a healthy device reports the stripe count).
    registry.gauge("raid.disk.readable_stripes", l)
        .set(std::min<int64_t>(h.readable_stripes(), stripes_));
    // Device-level op counts, labeled by backend: one count per ranged
    // transfer, so reads()/device_read_ops() is the coalescing ratio.
    obs::Labels lb = {{"backend", std::string(h.backend_name())},
                      {"disk", std::to_string(h.id())}};
    registry.gauge("raid.disk.device_read_ops", lb).set(h.device_read_ops());
    registry.gauge("raid.disk.device_write_ops", lb)
        .set(h.device_write_ops());
  }
}

}  // namespace dcode::raid

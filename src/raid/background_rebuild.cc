// Raid6Array's rebuild pass: the one way replaced disks are rebuilt,
// whether the background worker runs it behind foreground I/O after a
// hot spare is promoted or rebuild() runs it to completion on the
// calling thread. One pass runs at a time (the rebuild slot); promotions
// during a pass are picked up by its rescan under rebuild_mu_.
//
// The rebuild watermark: a replaced disk starts with readable_stripes ==
// 0, so every stripe is degraded on it — reads avoid it, writes skip it.
// The pass walks the stripes in ascending windows: it locks the window's
// stripes in order, rebuilds them, and CASes every target's watermark
// across the window *before* unlocking — the next writer of those
// stripes already sees them healthy and RMWs through the spare. Stripes
// below the watermark serve fast-path reads. A CAS fails only if the
// device was re-promoted mid-pass (watermark reset to 0); the
// between-pass rescan then starts it over.
//
// Every spare promotion starts the worker. Passes differ only in pacing:
//  * a paced pass (the worker under ArrayOptions::background_rebuild)
//    takes a window of one stripe and one token from the rebuild
//    throttle per stripe, so it holds one stripe lock at a time, like
//    any foreground writer;
//  * an unpaced pass (rebuild(), and the worker without
//    background_rebuild, which fail_disk() waits for) is not throttled.
//    Its window is up to kWindowStripes consecutive stripes (never more
//    than the lock table has slots, so each holds its own), split into
//    one chunk per pool worker, so the pool is woken once per window
//    rather than once per stripe. Pool tasks never take stripe locks
//    (the thread running the pass holds them), so a writer holding a
//    stripe lock while its own batch waits for pool workers cannot
//    deadlock against the pass.
//
// Per stripe: when the only lost column is a target, read just the
// elements its minimal-read recovery plan names (paper §III-D: 26 of
// the 42 survivors for D-Code p=7) and solve each lost element through
// the equation the plan chose; otherwise read every survivor and
// erasure-decode. A survivor that fails verification sends the stripe
// through the shared repair steps — raw re-read, classification, one
// decode of dead ∪ condemned with re-verification — and the repaired
// survivor is written back beside the rebuilt column. Only a failed
// decode or re-verification (or a crash) stands the pass down.
#include <algorithm>
#include <chrono>
#include <optional>

#include "codes/solve.h"
#include "codes/stripe.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "raid/raid6_array.h"

namespace dcode::raid {

using codes::CodeLayout;
using codes::Element;

using WriteOp = StripeIoEngine::WriteOp;

namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Observes wall time into a latency histogram on scope exit (including
// unwinds — a pass that stood down still took that long).
class LatencyTimer {
 public:
  explicit LatencyTimer(obs::Histogram* h) : h_(h), t0_(now_ns()) {}
  ~LatencyTimer() { h_->observe(now_ns() - t0_); }
  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

 private:
  obs::Histogram* h_;
  int64_t t0_;
};

// Retries of one stripe when another device dies under it; each retry
// re-reads the degraded set.
constexpr int kStripeRetries = 3;

// Most stripes rebuild() locks at once: enough that each pool worker
// rebuilds several stripes per dispatch, and under the 64 locks one
// thread may hold under TSan's deadlock detector (the same cap as
// StoragePool's chunk-lock windows).
constexpr int64_t kWindowStripes = 48;

}  // namespace

void Raid6Array::rebuild() {
  ensure_online();
  {
    // Claim the rebuild slot: wait out any background worker and any
    // in-flight escalation, so the pass below is the only one.
    std::unique_lock<std::mutex> lock(rebuild_mu_);
    rebuild_cv_.wait(lock, [&] {
      return !rebuild_running_ && escalations_in_flight_ == 0;
    });
    if (rebuild_thread_.joinable()) rebuild_thread_.join();
    int targets = 0;
    for (int d = 0; d < layout_->cols(); ++d) {
      if (!needs_rebuild(d)) continue;
      DCODE_CHECK(!engine_.disk(d).failed(), "replace_disk before rebuild");
      ++targets;
    }
    if (targets == 0) return;
    DCODE_CHECK(targets <= layout_->fault_tolerance(),
                "more failed disks than the code tolerates");
    rebuild_running_ = true;
    metrics_.rebuild_in_progress->set(1);
  }
  run_rebuild_passes(/*paced=*/false);
}

void Raid6Array::start_background_rebuild() {
  std::lock_guard<std::mutex> lock(rebuild_mu_);
  if (rebuild_running_) return;  // the running pass rescans for targets
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
  rebuild_running_ = true;
  metrics_.rebuild_in_progress->set(1);
  rebuild_thread_ = std::thread([this] { background_rebuild_worker(); });
}

void Raid6Array::background_rebuild_worker() {
  obs::Span span(obs::TraceLog::global(), "rebuild.background",
                 {{"stripes", stripes_}, {"code", layout_->name()}});
  try {
    run_rebuild_passes(options_.background_rebuild);
  } catch (const std::exception& e) {
    // Crash or unrecoverable loss: needs_rebuild stays set for a later
    // synchronous rebuild().
    span.note("rebuild.stood_down", {{"reason", e.what()}});
  }
}

void Raid6Array::run_rebuild_passes(bool paced) {
  auto release_slot = [this] {  // caller holds rebuild_mu_
    rebuild_running_ = false;
    metrics_.rebuild_in_progress->set(0);
    rebuild_cv_.notify_all();
  };
  for (;;) {
    std::vector<int> targets;
    {
      std::lock_guard<std::mutex> lock(rebuild_mu_);
      if (!stop_rebuild_.load(std::memory_order_relaxed)) {
        for (int d = 0; d < layout_->cols(); ++d) {
          if (needs_rebuild(d) && !engine_.disk(d).failed()) {
            targets.push_back(d);
          }
        }
      }
      if (targets.empty()) {
        // Exit decision under the same lock start_background_rebuild
        // takes: a promotion either lands in this rescan or sees the slot
        // free and spawns a worker — a new target is never stranded.
        release_slot();
        return;
      }
    }
    try {
      rebuild_pass(targets, paced);
    } catch (...) {
      std::lock_guard<std::mutex> lock(rebuild_mu_);
      release_slot();
      throw;
    }
    finish_rebuilt_targets(targets);
  }
}

void Raid6Array::rebuild_pass(const std::vector<int>& targets,
                              bool paced) {
  const CodeLayout& layout = *layout_;
  metrics_.rebuilds->inc();
  LatencyTimer timer(metrics_.rebuild_latency_ns);

  // Each target's device generation, read before its watermark: what
  // the pass rebuilds counts only for that device (see the advance below).
  std::vector<uint64_t> generations;
  int64_t start = stripes_;
  for (int d : targets) {
    generations.push_back(engine_.disk(d).faults().generation());
    start = std::min(start, engine_.disk(d).readable_stripes());
  }
  start = std::max<int64_t>(0, start);
  const int64_t window =
      paced ? 1
            : std::min<int64_t>(
                  kWindowStripes,
                  static_cast<int64_t>(stripe_locks_.slot_count()));
  const int64_t chunks = std::min<int64_t>(window, pool_.size());
  obs::Span span(obs::TraceLog::global(), "rebuild.pass",
                 {{"targets", static_cast<int64_t>(targets.size())},
                  {"start", start},
                  {"stripes", stripes_},
                  {"window", window},
                  {"paced", paced},
                  {"code", layout.name()}});

  // Minimal-read plans by logical column. The array never rotates
  // columns across disks, so each target's disk id is the column it holds.
  std::vector<RecoveryPlan> plans(static_cast<size_t>(layout.cols()));
  for (int d : targets) {
    plans[static_cast<size_t>(d)] = plan_single_disk_recovery(
        layout, d, RecoveryStrategy::kMinimalReads);
  }

  // One scratch per chunk, reused across windows; each is built by the
  // first worker to use it, so the zero-fill runs in parallel.
  std::vector<std::optional<StripeScratch>> scratch(
      static_cast<size_t>(chunks));
  std::vector<int64_t> reads(static_cast<size_t>(window), 0);
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(static_cast<size_t>(window));
  for (int64_t first = start; first < stripes_; first += window) {
    if (stop_rebuild_.load(std::memory_order_relaxed)) return;
    const int64_t n = std::min(window, stripes_ - first);
    if (paced) {
      const int64_t waited = rebuild_throttle_.acquire(1.0);
      if (waited > 0) metrics_.rebuild_throttle_wait_ns->observe(waited);
    }
    for (int64_t i = 0; i < n; ++i) locks.push_back(stripe_lock(first + i));
    const int64_t k = std::min(chunks, n);
    pool_.parallel_for(static_cast<size_t>(k), [&](size_t c) {
      std::optional<StripeScratch>& w = scratch[c];
      if (!w) w.emplace(layout, element_size_);
      const int64_t chunk = static_cast<int64_t>(c);
      for (int64_t i = n * chunk / k; i < n * (chunk + 1) / k; ++i) {
        for (int attempt = 0;; ++attempt) {
          try {
            reads[static_cast<size_t>(i)] =
                rebuild_stripe(first + i, plans, *w);
            break;
          } catch (const DiskFailedError&) {
            if (attempt >= kStripeRetries) throw;
          }
        }
      }
    });
    // Advance the watermark across the window before releasing its locks:
    // the next writer of these stripes must already see them healthy, or
    // its RMW would skip the device the pass just filled. Only a target
    // still on the pass's generation advances: a re-promotion resets the
    // watermark to 0, which the CAS cannot tell from a pass at stripe 0
    // that wrote the replaced device. promote_mu_ orders the check
    // against the reset and the swap.
    std::lock_guard<std::mutex> promote_lock(promote_mu_);
    for (int64_t i = 0; i < n; ++i) {
      for (size_t t = 0; t < targets.size(); ++t) {
        DiskHandle& h = engine_.disk(targets[t]);
        if (h.faults().generation() == generations[t]) {
          h.advance_readable_stripes(first + i);
        }
      }
      metrics_.rebuild_stripes->inc();
      obs::FlightRecorder::global().record(
          obs::FlightEventKind::kRebuildStripe, 0, targets.front(), first + i,
          reads[static_cast<size_t>(i)]);
    }
    locks.clear();
  }
}

int64_t Raid6Array::rebuild_stripe(int64_t stripe,
                                   const std::vector<RecoveryPlan>& plans,
                                   StripeScratch& w) {
  const CodeLayout& layout = *layout_;
  int lost_cols = 0;
  int lost = 0;
  for (int c = 0; c < layout.cols(); ++c) {
    if (disk_degraded_for_stripe(map_.physical_disk(stripe, c), stripe)) {
      ++lost_cols;
      lost = c;
    }
  }
  if (lost_cols == 0) return 0;
  // Writes every decoded column whose slot holds a live device (the
  // spares being rebuilt), plus the survivors a decode re-derived.
  auto write_back = [&] {
    std::vector<WriteOp> wops;
    int64_t decoded = static_cast<int64_t>(w.repaired.size());
    for (int c = 0; c < layout.cols(); ++c) {
      if (w.dead[static_cast<size_t>(c)] == 0) continue;
      decoded += layout.rows();
      const int pd = map_.physical_disk(stripe, c);
      if (engine_.disk(pd).failed()) continue;  // no spare in this slot yet
      for (int r = 0; r < layout.rows(); ++r) {
        wops.push_back({pd, stripe, r, w.s.at(r, c)});
      }
    }
    for (const Element& e : w.repaired) {
      wops.push_back({map_.physical_disk(stripe, e.col), stripe, e.row,
                      w.s.at(e)});
    }
    engine_.write_batch(wops);
    metrics_.elements_reconstructed->inc(decoded);
  };

  int64_t reads = 0;
  try {
    const RecoveryPlan& plan = plans[static_cast<size_t>(lost)];
    if (lost_cols == 1 && !plan.reads.empty()) {
      std::fill(w.dead.begin(), w.dead.end(), 0);
      w.dead[static_cast<size_t>(lost)] = 1;
      w.repaired.clear();
      w.rops.clear();
      for (const Element& e : plan.reads) {
        w.rops.push_back(
            {map_.physical_disk(stripe, e.col), stripe, e.row, w.s.at(e)});
      }
      reads = static_cast<int64_t>(w.rops.size());
      engine_.read_batch(w.rops);
      for (const Reconstruction& rec : plan.reconstructions) {
        codes::solve(layout.equations()[static_cast<size_t>(rec.equation)],
                     rec.target, w.s);
      }
    } else {
      reads = read_live_columns(stripe, w, /*verify=*/true);
      DCODE_CHECK(decode_erasures(stripe, w),
                  "stripe unrecoverable (more than two failures)");
    }
    write_back();
    return reads;
  } catch (const ElementIntegrityError&) {
    // A survivor failed verification: handled below.
  }
  // Re-read the stripe raw, let the sidecar name every condemned
  // survivor, and decode them as erasures alongside the lost columns;
  // the decode re-verifies each against the sidecar before anything is
  // written.
  reads += read_live_columns(stripe, w, /*verify=*/false);
  const int64_t condemned = classify_stripe(stripe, w);
  const bool decoded = decode_erasures(stripe, w);
  obs::Span span(obs::TraceLog::global(), "rebuild.condemned_survivors",
                 {{"stripe", stripe},
                  {"condemned", condemned},
                  {"repaired", static_cast<int64_t>(w.repaired.size())}});
  DCODE_CHECK(decoded,
              "stripe unrecoverable: condemned survivors did not re-verify");
  write_back();
  return reads;
}

void Raid6Array::finish_rebuilt_targets(const std::vector<int>& targets) {
  std::lock_guard<std::mutex> lock(promote_mu_);
  for (int d : targets) {
    DiskHandle& h = engine_.disk(d);
    if (h.failed() || !needs_rebuild(d)) continue;
    // CAS from the exact stripe count: a re-promotion that reset the
    // watermark mid-pass loses nothing — the flag stays set and the next
    // pass starts over from stripe 0.
    if (h.mark_fully_readable(stripes_)) {
      needs_rebuild_[static_cast<size_t>(d)].store(
          false, std::memory_order_release);
      health_.mark_healthy(d);
    }
  }
}

bool Raid6Array::wait_for_rebuild() {
  {
    std::unique_lock<std::mutex> lock(rebuild_mu_);
    rebuild_cv_.wait(lock, [&] {
      return !rebuild_running_ && escalations_in_flight_ == 0;
    });
    if (rebuild_thread_.joinable()) rebuild_thread_.join();
  }
  for (int d = 0; d < layout_->cols(); ++d) {
    if (needs_rebuild(d)) return false;
  }
  return true;
}

bool Raid6Array::rebuild_in_progress() const {
  std::lock_guard<std::mutex> lock(rebuild_mu_);
  return rebuild_running_;
}

void Raid6Array::set_rebuild_rate(double stripes_per_sec, double burst) {
  rebuild_throttle_.set_rate(stripes_per_sec, burst);
}

}  // namespace dcode::raid

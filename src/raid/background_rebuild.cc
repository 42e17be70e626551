// Raid6Array's background rebuild worker: the rate-limited reconstruction
// that runs behind foreground I/O after a hot spare is promoted.
//
// Protocol (the rebuild watermark):
//  * a promoted spare starts with readable_stripes == 0 — every stripe is
//    degraded-for-stripe on it, so reads avoid it and writes skip it;
//  * the worker walks stripes in order under the per-stripe lock:
//    reconstruct the lost columns from the live ones, write them to the
//    rebuilding devices, then CAS the watermark s -> s+1 *inside the
//    lock* — a foreground writer that grabs the lock next already sees
//    the stripe as healthy and RMWs through the spare;
//  * stripes below the watermark serve normal (fast-path) reads, stripes
//    at/above it serve degraded reads — foreground I/O never blocks on
//    the whole rebuild, only on the single stripe the worker holds;
//  * the CAS fails if the device re-failed and was re-promoted mid-pass
//    (watermark reset to 0): the pass keeps going but stops advancing
//    that device, and the between-pass rescan starts it over.
//
// One worker thread at a time; promotions during a pass are picked up by
// the rescan under rebuild_mu_. The token bucket paces the walk so
// rebuild bandwidth can be capped below foreground throughput.
#include <algorithm>
#include <limits>

#include "codes/decoder.h"
#include "codes/stripe.h"
#include "obs/trace.h"
#include "raid/raid6_array.h"

namespace dcode::raid {

using codes::CodeLayout;
using codes::Element;
using codes::Stripe;

using ReadOp = StripeIoEngine::ReadOp;
using WriteOp = StripeIoEngine::WriteOp;

void Raid6Array::start_background_rebuild() {
  std::lock_guard<std::mutex> lock(rebuild_mu_);
  if (rebuild_running_) return;  // the worker rescans between passes
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
  rebuild_running_ = true;
  metrics_.rebuild_in_progress->set(1);
  rebuild_thread_ = std::thread([this] { background_rebuild_worker(); });
}

void Raid6Array::background_rebuild_worker() {
  obs::Span span(obs::TraceLog::global(), "rebuild.background",
                 {{"stripes", stripes_}, {"code", layout_->name()}});
  for (;;) {
    std::vector<int> targets;
    {
      std::lock_guard<std::mutex> lock(rebuild_mu_);
      if (!stop_rebuild_.load(std::memory_order_relaxed)) {
        for (int d = 0; d < layout_->cols(); ++d) {
          if (needs_rebuild(d) && !engine_.disk(d).failed() &&
              engine_.disk(d).readable_stripes() < stripes_) {
            targets.push_back(d);
          }
        }
      }
      if (targets.empty()) {
        // Exit decision under the same lock start_background_rebuild
        // takes: a promotion either sees rebuild_running_ still true (we
        // will rescan) or false (it spawns a fresh worker) — a new
        // target can never be stranded.
        rebuild_running_ = false;
        metrics_.rebuild_in_progress->set(0);
        rebuild_cv_.notify_all();
        return;
      }
    }
    span.note("rebuild.pass",
              {{"targets", static_cast<int64_t>(targets.size())}});
    if (!rebuild_pass(targets)) {
      // Crash or unrecoverable loss: leave needs_rebuild set for a later
      // synchronous rebuild() and stand down.
      std::lock_guard<std::mutex> lock(rebuild_mu_);
      rebuild_running_ = false;
      metrics_.rebuild_in_progress->set(0);
      rebuild_cv_.notify_all();
      return;
    }
    finish_rebuilt_targets(targets);
  }
}

bool Raid6Array::rebuild_pass(const std::vector<int>& targets) {
  const CodeLayout& layout = *layout_;
  metrics_.rebuilds->inc();

  int64_t start = stripes_;
  for (int d : targets) {
    start = std::min(start, engine_.disk(d).readable_stripes());
  }
  for (int64_t s = std::max<int64_t>(0, start); s < stripes_; ++s) {
    if (stop_rebuild_.load(std::memory_order_relaxed)) return false;
    const int64_t waited = rebuild_throttle_.acquire(1.0);
    if (waited > 0) metrics_.rebuild_throttle_wait_ns->observe(waited);

    for (int attempt = 0;; ++attempt) {
      std::unique_lock<std::mutex> lock = stripe_lock(s);
      try {
        Stripe buf(layout, element_size_);
        std::vector<Element> lost;
        std::vector<ReadOp> rops;
        for (int c = 0; c < layout.cols(); ++c) {
          const int pd = map_.physical_disk(s, c);
          if (disk_degraded_for_stripe(pd, s)) {
            for (int r = 0; r < layout.rows(); ++r) {
              lost.push_back(codes::make_element(r, c));
            }
          } else {
            for (int r = 0; r < layout.rows(); ++r) {
              rops.push_back({pd, s, r, buf.at(r, c)});
            }
          }
        }
        if (!lost.empty()) {
          engine_.read_batch(rops);
          auto res = codes::hybrid_decode(buf, lost);
          if (!res.success) return false;  // beyond tolerance; stand down
          std::vector<WriteOp> wops;
          for (const Element& e : lost) {
            const int pd = map_.physical_disk(s, e.col);
            if (engine_.disk(pd).failed()) continue;  // no spare yet
            wops.push_back({pd, s, e.row, buf.at(e)});
          }
          engine_.write_batch(wops);
          metrics_.elements_reconstructed->inc(
              static_cast<int64_t>(lost.size()));
        }
        // Advance the watermark before releasing the stripe lock: the
        // next writer of this stripe must already see it healthy, or its
        // RMW would skip the device the worker just filled.
        for (int d : targets) {
          engine_.disk(d).advance_readable_stripes(s);
        }
        metrics_.rebuild_stripes->inc();
        break;
      } catch (const PowerLossError&) {
        return false;
      } catch (const DiskFailedError&) {
        // Another device died mid-stripe; the refreshed degraded set on
        // retry folds it into `lost` (or the pass aborts at decode).
        if (attempt >= 3) return false;
      }
    }
  }
  return true;
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

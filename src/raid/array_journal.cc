// Raid6Array's write-hole machinery: the WriteGate the StripeIoEngine
// admits every element write through (power-loss injection), and the
// write-ahead intent journal's recovery pass. Split from raid6_array.cc
// so the core policy file stays readable.
#include <vector>

#include "codes/encoder.h"
#include "codes/stripe.h"
#include "obs/trace.h"
#include "raid/raid6_array.h"

namespace dcode::raid {

using codes::CodeLayout;
using codes::Equation;

void Raid6Array::ensure_online() const {
  if (crashed_.load(std::memory_order_relaxed)) throw PowerLossError();
}

bool Raid6Array::armed() const {
  // Crashed counts as armed so every post-crash write still funnels into
  // admit() and throws, exactly as the monolith's write_element did.
  return crash_countdown_.load(std::memory_order_relaxed) >= 0 ||
         crashed_.load(std::memory_order_relaxed);
}

void Raid6Array::admit() {
  ensure_online();
  if (crash_countdown_.load(std::memory_order_relaxed) >= 0) {
    if (crash_countdown_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
      crashed_.store(true, std::memory_order_relaxed);
      throw PowerLossError();
    }
  }
}

void Raid6Array::enable_journal(int slots) {
  DCODE_CHECK(!journal_, "journal already enabled");
  journal_.emplace(slots);
}

void Raid6Array::inject_power_loss_after(int64_t element_writes) {
  DCODE_CHECK(element_writes >= 0, "write budget must be non-negative");
  crash_countdown_.store(element_writes, std::memory_order_relaxed);
}

void Raid6Array::restart() {
  crashed_.store(false, std::memory_order_relaxed);
  crash_countdown_.store(-1, std::memory_order_relaxed);
}

std::vector<int64_t> Raid6Array::journal_open_stripes() const {
  DCODE_CHECK(journal_.has_value(), "journal not enabled");
  return journal_->open_stripes();
}

int64_t Raid6Array::journal_recover() {
  ensure_online();
  DCODE_CHECK(journal_.has_value(), "journal not enabled");
  const CodeLayout& layout = *layout_;
  const std::vector<int64_t> open = journal_->open_stripes();
  obs::Span span(obs::TraceLog::global(), "journal.recover",
                 {{"open_intents", static_cast<int64_t>(open.size())}});
  metrics_.journal_recoveries->inc();
  int64_t repaired = 0;
  StripeScratch w(layout, element_size_);
  for (int64_t stripe : open) {
    // Re-encode parity from whatever data survived the crash: every data
    // element is individually consistent (element writes are atomic), so
    // a fresh encode restores the stripe invariant. On a degraded array
    // the lost columns are decoded first (a crash can race a disk
    // failure), and only live-for-this-stripe devices are rewritten.
    std::unique_lock<std::mutex> lock = stripe_lock(stripe);
    // Raw reads: a crash can strand sidecar records ahead of the platter
    // (the write was admitted but never landed), and replay's whole job
    // is to rebuild consistency from the bytes that DID survive —
    // verify-on-read vetoing them would deadlock recovery.
    load_stripe_degraded(stripe, w, /*verify=*/false);
    codes::encode_stripe(w.s);
    std::vector<StripeIoEngine::WriteOp> wops;
    for (const Equation& q : layout.equations()) {
      const int pd = map_.physical_disk(stripe, q.parity.col);
      if (disk_degraded_for_stripe(pd, stripe)) continue;
      wops.push_back({pd, stripe, q.parity.row, w.s.at(q.parity)});
    }
    engine_.write_batch(wops);
    // The stripe invariant is restored: re-derive every live element's
    // checksum + identity tag from the now-authoritative content, so
    // records stranded by the crash (or torn sidecar slots on reopen)
    // stop condemning replayed data.
    for (int c = 0; c < layout.cols(); ++c) {
      const int pd = map_.physical_disk(stripe, c);
      if (disk_degraded_for_stripe(pd, stripe)) continue;
      for (int r = 0; r < layout.rows(); ++r) {
        engine_.resync_element_integrity(pd, stripe, r, w.s.at(r, c));
      }
    }
    journal_->commit(stripe);
    span.note("journal.replayed_stripe", {{"stripe", stripe}});
    ++repaired;
  }
  metrics_.journal_replayed_stripes->inc(repaired);
  return repaired;
}

}  // namespace dcode::raid

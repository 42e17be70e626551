// Raid6Array's degraded-mode paths: the stripe-rewrite write policy and
// planner-driven degraded reads (whole-stripe loads are the shared
// load_stripe_degraded step in stripe_repair.cc). Split from
// raid6_array.cc so the core policy file stays readable.
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "codes/encoder.h"
#include "codes/stripe.h"
#include "obs/trace.h"
#include "raid/raid6_array.h"
#include "xorops/xor_region.h"

namespace dcode::raid {

using codes::CodeLayout;
using codes::Element;
using codes::Equation;
using codes::Stripe;

using ReadOp = StripeIoEngine::ReadOp;
using WriteOp = StripeIoEngine::WriteOp;

void Raid6Array::write_stripe_degraded(int64_t stripe, int64_t g,
                                       int64_t stripe_end, int64_t offset,
                                       std::span<const uint8_t> data) {
  // Stripe-rewrite policy: reconstruct, modify, re-encode, then write
  // back only the touched surviving data elements plus every surviving
  // parity (untouched data is already on disk).
  const CodeLayout& layout = *layout_;
  StripeScratch w(layout, element_size_);
  load_stripe_degraded(stripe, w);
  Stripe& s = w.s;
  std::set<Element> touched;
  for (int64_t e = g; e <= stripe_end; ++e) {
    auto loc = map_.locate(e);
    size_t eb, sb, len;
    overlay_range(e, offset, static_cast<int64_t>(data.size()),
                  static_cast<int64_t>(element_size_), &eb, &sb, &len);
    std::memcpy(s.at(loc.element) + eb, data.data() + sb, len);
    touched.insert(loc.element);
  }
  codes::encode_stripe(s);
  // Write phase with internal failover: once the first write lands the
  // on-disk stripe mixes old and new state, so another disk dying here
  // must NOT trigger a re-load (decoding through half-updated parity
  // would manufacture consistent garbage). Replay the captured target
  // values instead — they are idempotent — skipping disks that have died
  // since; rebuild reconstructs their elements from the survivors.
  for (int attempt = 0;; ++attempt) {
    try {
      std::vector<WriteOp> wops;
      for (int r = 0; r < layout.rows(); ++r) {
        for (int c = 0; c < layout.cols(); ++c) {
          int pdisk = map_.physical_disk(stripe, c);
          if (disk_degraded_for_stripe(pdisk, stripe)) continue;
          Element e = codes::make_element(r, c);
          if (layout.is_parity(r, c) || touched.count(e)) {
            wops.push_back({pdisk, stripe, r, s.at(r, c)});
          }
        }
      }
      engine_.write_batch(wops);
      return;
    } catch (const DiskFailedError&) {
      if (attempt >= kMaxFailoverAttempts) throw;
      metrics_.failovers->inc();
    }
  }
}

void Raid6Array::read_degraded(int64_t first, int64_t last, int64_t offset,
                               std::span<uint8_t> out,
                               const std::vector<int>& failed) {
  const CodeLayout& layout = *layout_;
  const int64_t esize = static_cast<int64_t>(element_size_);
  // Follow the planner's per-element equation choices.
  IoPlan plan = planner_.plan_degraded_read(first,
                                            static_cast<int>(last - first + 1),
                                            failed);
  obs::Span span(
      obs::TraceLog::global(), "degraded_read",
      {{"offset", offset}, {"bytes", static_cast<int64_t>(out.size())},
       {"failed_disks", static_cast<int64_t>(failed.size())},
       {"plan_reads", plan.reads()},
       {"reconstructions", static_cast<int64_t>(plan.reconstructions.size())}});
  // Scratch cache of element buffers per (stripe, element).
  struct Key {
    int64_t stripe;
    Element e;
    bool operator<(const Key& o) const {
      return stripe != o.stripe ? stripe < o.stripe : e < o.e;
    }
  };
  std::map<Key, AlignedBuffer> cache;

  std::vector<ReadOp> rops;
  rops.reserve(plan.accesses.size());
  for (const IoAccess& a : plan.accesses) {
    DCODE_ASSERT(!a.is_write, "degraded read plan must not write");
    auto [it, fresh] =
        cache.emplace(Key{a.stripe, a.element}, AlignedBuffer(element_size_));
    (void)fresh;  // duplicate plan reads share a buffer but still count
    rops.push_back({a.disk, a.stripe, a.element.row, it->second.data()});
  }
  engine_.read_batch(rops);

  for (const Reconstruction& rec : plan.reconstructions) {
    AlignedBuffer buf(element_size_);
    if (rec.equation >= 0) {
      const Equation& q = layout.equations()[static_cast<size_t>(rec.equation)];
      auto fold = [&](const Element& m) {
        if (m == rec.target) return;
        auto it = cache.find(Key{rec.stripe, m});
        DCODE_CHECK(it != cache.end(),
                    "planner promised this member was read");
        xorops::xor_into(buf.data(), it->second.data(), element_size_);
      };
      fold(q.parity);
      for (const Element& m : q.sources) fold(m);
    } else {
      // Full-stripe chained decode fallback (two failed disks crossing
      // every equation of the target).
      span.note("full_stripe_decode", {{"stripe", rec.stripe}});
      StripeScratch w(layout, element_size_);
      load_stripe_degraded(rec.stripe, w);
      std::memcpy(buf.data(), w.s.at(rec.target), element_size_);
    }
    cache.emplace(Key{rec.stripe, rec.target}, std::move(buf));
  }
  // Equation-based reconstructions (the fallback already counted its own
  // rebuilt elements inside load_stripe_degraded).
  int64_t eq_recs = 0;
  for (const Reconstruction& rec : plan.reconstructions) {
    if (rec.equation >= 0) ++eq_recs;
  }
  metrics_.elements_reconstructed->inc(eq_recs);

  for (int64_t e = first; e <= last; ++e) {
    auto loc = map_.locate(e);
    auto it = cache.find(Key{loc.stripe, loc.element});
    DCODE_CHECK(it != cache.end(), "requested element missing from plan");
    size_t eb, sb, len;
    overlay_range(e, offset, static_cast<int64_t>(out.size()), esize, &eb,
                  &sb, &len);
    std::memcpy(out.data() + sb, it->second.data() + eb, len);
  }
}

}  // namespace dcode::raid

// Raid6Array's degraded-mode paths: the stripe-rewrite write policy and
// planner-driven degraded reads (whole-stripe loads are the shared
// load_stripe_degraded step in stripe_repair.cc). Split from
// raid6_array.cc so the core policy file stays readable.
#include <cstring>
#include <optional>
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
  // parity (untouched data is already on disk). The scratch stripe is
  // reused as is: load_stripe_degraded assigns every element.
  const CodeLayout& layout = *layout_;
  ScratchLease w(*this);
  load_stripe_degraded(stripe, *w);
  Stripe& s = w->s;
  OpTables& t = op_tables();
  std::vector<char>& touched = t.flags;
  touched.assign(static_cast<size_t>(layout.rows() * layout.cols()), 0);
  for (int64_t e = g; e <= stripe_end; ++e) {
    auto loc = map_.locate(e);
    size_t eb, sb, len;
    overlay_range(e, offset, static_cast<int64_t>(data.size()),
                  static_cast<int64_t>(element_size_), &eb, &sb, &len);
    std::memcpy(s.at(loc.element) + eb, data.data() + sb, len);
    touched[static_cast<size_t>(loc.element.row * layout.cols() +
                                loc.element.col)] = 1;
  }
  codes::encode_stripe(s);
  // Write phase with internal failover: once the first write lands the
  // on-disk stripe mixes old and new state, so another disk dying here
  // must NOT trigger a re-load (decoding through half-updated parity
  // would manufacture consistent garbage). Replay the captured target
  // values instead — they are idempotent — skipping disks that have died
  // since; rebuild reconstructs their elements from the survivors.
  std::vector<WriteOp>& wops = t.wops;
  for (int attempt = 0;; ++attempt) {
    try {
      wops.clear();
      for (int r = 0; r < layout.rows(); ++r) {
        for (int c = 0; c < layout.cols(); ++c) {
          int pdisk = map_.physical_disk(stripe, c);
          if (disk_degraded_for_stripe(pdisk, stripe)) continue;
          if (layout.is_parity(r, c) ||
              touched[static_cast<size_t>(r * layout.cols() + c)] != 0) {
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

void Raid6Array::read_stripe_degraded(int64_t stripe, int64_t g,
                                      int64_t stripe_end, int64_t offset,
                                      std::span<uint8_t> out,
                                      const std::vector<int>& failed) {
  const CodeLayout& layout = *layout_;
  const int64_t esize = static_cast<int64_t>(element_size_);
  const int64_t end = offset + static_cast<int64_t>(out.size());
  // Follow the planner's per-element equation choices.
  IoPlan plan = planner_.plan_degraded_read(
      g, static_cast<int>(stripe_end - g + 1), failed);
  obs::Span span(
      obs::TraceLog::global(), "degraded_read",
      {{"stripe", stripe},
       {"elements", stripe_end - g + 1},
       {"failed_disks", static_cast<int64_t>(failed.size())},
       {"plan_reads", plan.reads()},
       {"reconstructions", static_cast<int64_t>(plan.reconstructions.size())}});

  // Where each element of the stripe lives: a fully covered requested
  // element in the caller's buffer, as read_healthy does; anything else
  // the plan touches (extra equation members, chain intermediates,
  // partial edges) in a per-thread slot. `filled` marks what a plan read
  // or a reconstruction has produced.
  using Cell = OpTables::Cell;
  OpTables& t = op_tables();
  std::vector<Cell>& cells = t.cells;
  cells.assign(static_cast<size_t>(layout.rows() * layout.cols()), Cell{});
  auto at = [&](const Element& e) -> Cell& {
    return cells[static_cast<size_t>(e.row * layout.cols() + e.col)];
  };
  for (int64_t e = g; e <= stripe_end; ++e) {
    if (e * esize >= offset && (e + 1) * esize <= end) {
      at(map_.locate(e).element).p = out.data() + (e * esize - offset);
    }
  }
  int slots = 0;
  auto number = [&](Cell& c) {
    if (c.p == nullptr && c.slot < 0) c.slot = slots++;
  };
  for (const IoAccess& a : plan.accesses) {
    DCODE_ASSERT(a.stripe == stripe, "a one-stripe plan stays in its stripe");
    number(at(a.element));
  }
  for (const Reconstruction& rec : plan.reconstructions) {
    number(at(rec.target));
  }
  uint8_t* const base = element_slots(static_cast<size_t>(slots));
  for (Cell& c : cells) {
    if (c.slot >= 0) c.p = base + static_cast<size_t>(c.slot) * slot_bytes();
  }

  std::vector<ReadOp>& rops = t.rops;
  rops.clear();
  for (const IoAccess& a : plan.accesses) {
    DCODE_ASSERT(!a.is_write, "degraded read plan must not write");
    // A duplicate plan read lands twice in one place but still counts.
    Cell& c = at(a.element);
    c.filled = true;
    rops.push_back({a.disk, stripe, a.element.row, c.p});
  }
  engine_.read_batch(rops);

  std::optional<ScratchLease> whole;  // the full-stripe fallback's stripe
  std::vector<const uint8_t*>& members = t.members;
  int64_t eq_recs = 0;
  for (const Reconstruction& rec : plan.reconstructions) {
    Cell& dst = at(rec.target);
    if (rec.equation >= 0) {
      const Equation& q = layout.equations()[static_cast<size_t>(rec.equation)];
      members.clear();
      auto fold = [&](const Element& m) {
        if (m == rec.target) return;
        const Cell& c = at(m);
        DCODE_CHECK(c.filled, "planner promised this member was read");
        members.push_back(c.p);
      };
      fold(q.parity);
      for (const Element& m : q.sources) fold(m);
      xorops::xor_many(dst.p, members, element_size_);
      ++eq_recs;
    } else {
      // Full-stripe chained decode fallback (two failed disks crossing
      // every equation of the target). It loads the stripe once and
      // counts its own rebuilt elements.
      span.note("full_stripe_decode", {{"stripe", stripe}});
      if (!whole) {
        whole.emplace(*this);
        load_stripe_degraded(stripe, **whole);
      }
      std::memcpy(dst.p, (*whole)->s.at(rec.target), element_size_);
    }
    dst.filled = true;
  }
  metrics_.elements_reconstructed->inc(eq_recs);

  for (int64_t e = g; e <= stripe_end; ++e) {
    const Cell& c = at(map_.locate(e).element);
    DCODE_CHECK(c.filled, "requested element missing from plan");
    if (c.slot < 0) continue;  // already in place in the caller's buffer
    size_t eb, sb, len;
    overlay_range(e, offset, static_cast<int64_t>(out.size()), esize, &eb,
                  &sb, &len);
    std::memcpy(out.data() + sb, c.p + eb, len);
  }
}

}  // namespace dcode::raid

// Raid6Array's degraded-mode paths: the old values of a write to a
// stripe with a lost column (write_stripe_rmw's first phase there) and
// planner-driven degraded reads (whole-stripe loads are the shared
// load_stripe_degraded step in stripe_repair.cc). Split from
// raid6_array.cc so the core policy file stays readable.
#include <algorithm>
#include <cstring>
#include <vector>

#include "codes/solve.h"
#include "codes/stripe.h"
#include "obs/trace.h"
#include "raid/raid6_array.h"

namespace dcode::raid {

using codes::CodeLayout;
using codes::Element;

using ReadOp = StripeIoEngine::ReadOp;

uint8_t* Raid6Array::run_degraded_plan(int64_t stripe,
                                       const std::vector<int>& failed,
                                       int slots) {
  const CodeLayout& layout = *layout_;
  OpTables& t = op_tables();
  const IoPlan& plan = t.plan;
  using Cell = OpTables::Cell;
  std::vector<Cell>& cells = t.cells;
  auto at = [&](const Element& e) -> Cell& {
    return cells[static_cast<size_t>(e.row * layout.cols() + e.col)];
  };
  auto number = [&](Cell& c) {
    if (c.p == nullptr && c.slot < 0) c.slot = slots++;
  };
  for (const IoAccess& a : plan.accesses) {
    DCODE_ASSERT(a.stripe == stripe, "a one-stripe plan stays in its stripe");
    DCODE_ASSERT(!a.is_write, "degraded read plan must not write");
    number(at(a.element));
  }
  for (const Reconstruction& rec : plan.reconstructions) {
    number(at(rec.target));
  }
  uint8_t* const base = element_slots(static_cast<size_t>(slots));
  for (Cell& c : cells) {
    if (c.slot >= 0) c.p = base + static_cast<size_t>(c.slot) * slot_bytes();
  }

  if (std::any_of(plan.reconstructions.begin(), plan.reconstructions.end(),
                  [](const Reconstruction& r) { return r.equation < 0; })) {
    // Full-stripe chained decode fallback (EVENODD and liberation with
    // two failed disks crossing every equation of a target). Such a plan
    // reads every live cell, which is what one load_stripe_degraded
    // reads; it counts its own rebuilt elements.
    ScratchLease whole(*this);
    load_stripe_degraded(stripe, *whole);
    for (int r = 0; r < layout.rows(); ++r) {
      for (int c = 0; c < layout.cols(); ++c) {
        Cell& x = at(codes::make_element(r, c));
        if (x.p == nullptr) continue;
        std::memcpy(x.p, whole->s.at(r, c), element_size_);
        x.filled = true;
      }
    }
    return base;
  }

  // One verified batch: the plan's reads (a duplicate lands twice in one
  // place but still counts), then every other live cell the caller
  // placed. A placed cell on a failed disk is one the plan rebuilds.
  std::vector<ReadOp>& rops = t.rops;
  rops.clear();
  for (const IoAccess& a : plan.accesses) {
    Cell& c = at(a.element);
    c.filled = true;
    rops.push_back({a.disk, stripe, a.element.row, c.p});
  }
  for (int r = 0; r < layout.rows(); ++r) {
    for (int c = 0; c < layout.cols(); ++c) {
      Cell& x = at(codes::make_element(r, c));
      const int disk = map_.physical_disk(stripe, c);
      if (x.p == nullptr || x.filled ||
          std::find(failed.begin(), failed.end(), disk) != failed.end()) {
        continue;
      }
      x.filled = true;
      rops.push_back({disk, stripe, r, x.p});
    }
  }
  engine_.read_batch(rops);

  for (const Reconstruction& rec : plan.reconstructions) {
    auto member = [&](const Element& m) {
      const Cell& c = at(m);
      DCODE_CHECK(c.filled || m == rec.target,
                  "planner promised this member was read");
      return c.p;
    };
    codes::solve(layout.equations()[static_cast<size_t>(rec.equation)],
                 rec.target, member, element_size_);
    at(rec.target).filled = true;
  }
  metrics_.elements_reconstructed->inc(
      static_cast<int64_t>(plan.reconstructions.size()));
  return base;
}

uint8_t* Raid6Array::read_old_values_degraded(int64_t stripe, int64_t g,
                                              size_t n) {
  // The first half of plan_degraded_write: the degraded read of the
  // written range gives every written element's old value, reading live
  // ones and rebuilding lost ones through the planner's equation choice.
  const CodeLayout& layout = *layout_;
  OpTables& t = op_tables();
  const size_t m = t.closure.size();
  planner_.plan_degraded_read(g, static_cast<int>(n), t.failed, t.plan,
                              t.plan_cells, t.plan_lost);

  // The cells the update needs, placed in write_stripe_rmw's slot
  // region: written element i in old-data slot i, each live dirty parity
  // in its parity slot, where the update uses its old value as it is.
  // run_degraded_plan reads the live dirty parities the plan does not in
  // the same verified batch, so every pre-read lands before the first
  // device write: an integrity error then reaches write()'s clean and
  // salvage handler with the stripe still pre-update, where its lost
  // columns still decode (a mid-update stripe with a lost column does
  // not).
  using Cell = OpTables::Cell;
  std::vector<Cell>& cells = t.cells;
  cells.assign(static_cast<size_t>(layout.rows() * layout.cols()), Cell{});
  auto at = [&](const Element& e) -> Cell& {
    return cells[static_cast<size_t>(e.row * layout.cols() + e.col)];
  };
  for (size_t i = 0; i < n; ++i) at(t.written[i]).slot = static_cast<int>(i);
  for (size_t i = 0; i < m; ++i) {
    const Element& p =
        layout.equations()[static_cast<size_t>(t.closure[i])].parity;
    if (std::find(t.failed.begin(), t.failed.end(),
                  map_.physical_disk(stripe, p.col)) != t.failed.end()) {
      continue;
    }
    at(p).slot = static_cast<int>(n + 2 + m + i);
    t.flags[i] = kParityPlanned;
  }
  uint8_t* const base =
      run_degraded_plan(stripe, t.failed, static_cast<int>(n + 2 + 2 * m));
  for (size_t i = 0; i < n; ++i) {
    DCODE_CHECK(at(t.written[i]).filled, "written element missing from plan");
  }
  return base;
}

void Raid6Array::read_stripe_degraded(int64_t stripe, int64_t g,
                                      int64_t stripe_end, int64_t offset,
                                      std::span<uint8_t> out,
                                      const std::vector<int>& failed) {
  const CodeLayout& layout = *layout_;
  const int64_t esize = static_cast<int64_t>(element_size_);
  const int64_t end = offset + static_cast<int64_t>(out.size());
  // Follow the planner's per-element equation choices.
  OpTables& t = op_tables();
  const IoPlan& plan = t.plan;
  planner_.plan_degraded_read(g, static_cast<int>(stripe_end - g + 1), failed,
                              t.plan, t.plan_cells, t.plan_lost);
  obs::Span span(
      obs::TraceLog::global(), "degraded_read",
      {{"stripe", stripe},
       {"elements", stripe_end - g + 1},
       {"failed_disks", static_cast<int64_t>(failed.size())},
       {"plan_reads", plan.reads()},
       {"reconstructions", static_cast<int64_t>(plan.reconstructions.size())}});
  if (std::any_of(plan.reconstructions.begin(), plan.reconstructions.end(),
                  [](const Reconstruction& r) { return r.equation < 0; })) {
    span.note("full_stripe_decode", {{"stripe", stripe}});
  }

  // Where each element of the stripe lives: a fully covered requested
  // element in the caller's buffer, as read_healthy does; anything else
  // the plan touches (extra equation members, chain intermediates,
  // partial edges) in a per-thread slot.
  using Cell = OpTables::Cell;
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
  run_degraded_plan(stripe, failed, 0);

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

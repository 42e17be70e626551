#include "raid/planner.h"

#include <algorithm>
#include <set>

#include "codes/solve.h"

namespace dcode::raid {

namespace {

using codes::CodeLayout;
using codes::Element;
using codes::Equation;
using codes::make_element;

// Requested logical range grouped by stripe, preserving logical order.
struct StripeSlice {
  int64_t stripe;
  std::vector<Element> elements;
};

std::vector<StripeSlice> slice_by_stripe(const AddressMap& map, int64_t start,
                                         int len) {
  DCODE_CHECK(start >= 0 && len > 0, "invalid logical range");
  const int64_t per_stripe = map.data_per_stripe();
  const int64_t end = start + len;
  std::vector<StripeSlice> slices;
  slices.reserve(
      static_cast<size_t>((end - 1) / per_stripe - start / per_stripe + 1));
  for (int64_t g = start; g < end; ++g) {
    auto loc = map.locate(g);
    if (slices.empty() || slices.back().stripe != loc.stripe) {
      slices.push_back(StripeSlice{loc.stripe, {}});
      slices.back().elements.reserve(static_cast<size_t>(
          std::min(end, (loc.stripe + 1) * per_stripe) - g));
    }
    slices.back().elements.push_back(loc.element);
  }
  return slices;
}

}  // namespace

void dirty_parity_closure(const CodeLayout& layout,
                          std::span<const Element> written,
                          std::vector<int>& dirty, std::vector<char>& marked) {
  const auto& eqs = layout.equations();
  marked.assign(eqs.size(), 0);
  dirty.clear();
  // `dirty` doubles as the work list: each newly dirty equation's parity
  // is itself a changed element whose other equations it dirties.
  auto dirty_equations_of = [&](const Element& x) {
    for (int qi : layout.equations_containing(x.row, x.col)) {
      const auto q = static_cast<size_t>(qi);
      if (eqs[q].parity == x) continue;  // x *stores* this equation
      if (marked[q] == 0) {
        marked[q] = 1;
        dirty.push_back(qi);
      }
    }
  };
  for (const Element& x : written) dirty_equations_of(x);
  for (size_t k = 0; k < dirty.size(); ++k) {
    dirty_equations_of(eqs[static_cast<size_t>(dirty[k])].parity);
  }
  // Topological order: the layout's encode order restricted to the
  // dirty set.
  DCODE_ASSERT(layout.encode_order().size() == eqs.size(),
               "every equation has an encode rank");
  dirty.clear();
  for (int qi : layout.encode_order()) {
    if (marked[static_cast<size_t>(qi)] != 0) dirty.push_back(qi);
  }
}

std::vector<int> dirty_parity_closure(const CodeLayout& layout,
                                      std::span<const Element> written) {
  std::vector<int> dirty;
  std::vector<char> marked;
  dirty_parity_closure(layout, written, dirty, marked);
  return dirty;
}

IoPlan IoPlanner::plan_read(int64_t start, int len) const {
  IoPlan plan;
  plan.accesses.reserve(static_cast<size_t>(len));
  for (int64_t g = start; g < start + len; ++g) {
    auto loc = map_->locate(g);
    plan.accesses.push_back(
        IoAccess{loc.stripe, loc.element, loc.disk, /*is_write=*/false});
  }
  return plan;
}

IoPlan IoPlanner::plan_write(int64_t start, int len,
                             WritePolicy policy) const {
  const CodeLayout& layout = map_->layout();
  IoPlan plan;

  for (const StripeSlice& slice : slice_by_stripe(*map_, start, len)) {
    std::set<Element> written(slice.elements.begin(), slice.elements.end());
    std::vector<int> dirty = dirty_parity_closure(layout, slice.elements);

    std::set<Element> dirty_parities;
    for (int qi : dirty)
      dirty_parities.insert(layout.equations()[static_cast<size_t>(qi)].parity);

    // RCW read set: untouched sources of every dirty equation.
    std::set<Element> rcw_reads;
    for (int qi : dirty) {
      for (const Element& e :
           layout.equations()[static_cast<size_t>(qi)].sources) {
        if (!written.count(e) && !dirty_parities.count(e)) rcw_reads.insert(e);
      }
    }

    const size_t rmw_cost = 2 * (written.size() + dirty_parities.size());
    const size_t rcw_cost =
        rcw_reads.size() + written.size() + dirty_parities.size();

    bool use_rmw = policy == WritePolicy::kReadModifyWrite ||
                   (policy == WritePolicy::kAuto && rmw_cost <= rcw_cost);

    auto emit = [&](const Element& e, bool is_write) {
      plan.accesses.push_back(IoAccess{
          slice.stripe, e, map_->physical_disk(slice.stripe, e.col),
          is_write});
    };

    if (use_rmw) {
      for (const Element& e : written) emit(e, false);
      for (const Element& e : dirty_parities) emit(e, false);
    } else {
      for (const Element& e : rcw_reads) emit(e, false);
    }
    for (const Element& e : written) emit(e, true);
    for (const Element& e : dirty_parities) emit(e, true);
  }
  return plan;
}

IoPlan IoPlanner::plan_degraded_write(int64_t start, int len,
                                      std::span<const int> failed_disks) const {
  DCODE_CHECK(start >= 0 && len > 0, "invalid logical range");
  const CodeLayout& layout = map_->layout();
  const auto& eqs = layout.equations();
  const int64_t per_stripe = map_->data_per_stripe();
  IoPlan plan;
  IoPlan old_values;
  std::vector<char> has;
  std::vector<Element> lost;
  std::vector<Element> written;
  std::vector<int> dirty;
  std::vector<char> marked;

  auto is_failed = [&](int disk) {
    return std::find(failed_disks.begin(), failed_disks.end(), disk) !=
           failed_disks.end();
  };

  const int64_t end = start + len;
  for (int64_t s = start / per_stripe; s * per_stripe < end; ++s) {
    const int64_t first = std::max(start, s * per_stripe);
    const int64_t stripe_end = std::min(end, (s + 1) * per_stripe);
    const int n = static_cast<int>(stripe_end - first);
    auto disk_of = [&](const Element& e) {
      return map_->physical_disk(s, e.col);
    };
    // Does this stripe have a column on a failed disk? If not, it plans
    // the healthy write the array runs: the encode of a stripe the range
    // covers whole, RMW otherwise.
    bool stripe_degraded = false;
    for (int c = 0; c < layout.cols() && !stripe_degraded; ++c) {
      stripe_degraded = is_failed(map_->physical_disk(s, c));
    }
    if (!stripe_degraded) {
      IoPlan sub = plan_write(first, n,
                              n == per_stripe ? WritePolicy::kReconstructWrite
                                              : WritePolicy::kReadModifyWrite);
      plan.accesses.insert(plan.accesses.end(), sub.accesses.begin(),
                           sub.accesses.end());
      continue;
    }

    // The delta update around the lost columns. The old value of every
    // written element comes from the degraded read of the written range:
    // live ones read directly, lost ones rebuilt through its cheapest
    // equation or recovery chain. Each live dirty parity it has not read
    // yet is read too (the array reads them in the same batch, before any
    // write). Then the live written data and the live dirty parities are
    // written; a lost dirty parity is neither read nor written, but its
    // delta still folds into any equation holding it.
    plan_degraded_read(first, n, failed_disks, old_values, has, lost);
    plan.accesses.insert(plan.accesses.end(), old_values.accesses.begin(),
                         old_values.accesses.end());
    plan.reconstructions.insert(plan.reconstructions.end(),
                                old_values.reconstructions.begin(),
                                old_values.reconstructions.end());
    written.clear();
    for (int64_t x = first; x < stripe_end; ++x) {
      written.push_back(
          layout.data_element(static_cast<int>(x - s * per_stripe)));
    }
    dirty_parity_closure(layout, written, dirty, marked);
    for (int qi : dirty) {
      const Element& p = eqs[static_cast<size_t>(qi)].parity;
      const size_t cell = static_cast<size_t>(p.row) * layout.cols() + p.col;
      if (!is_failed(disk_of(p)) && has[cell] == 0) {
        plan.accesses.push_back(IoAccess{s, p, disk_of(p), false});
      }
    }
    for (const Element& e : written) {
      if (!is_failed(disk_of(e))) {
        plan.accesses.push_back(IoAccess{s, e, disk_of(e), true});
      }
    }
    for (int qi : dirty) {
      const Element& p = eqs[static_cast<size_t>(qi)].parity;
      if (!is_failed(disk_of(p))) {
        plan.accesses.push_back(IoAccess{s, p, disk_of(p), true});
      }
    }
  }
  return plan;
}

IoPlan IoPlanner::plan_degraded_read(int64_t start, int len,
                                     std::span<const int> failed_disks) const {
  IoPlan plan;
  std::vector<char> has;
  std::vector<Element> lost;
  plan_degraded_read(start, len, failed_disks, plan, has, lost);
  return plan;
}

void IoPlanner::plan_degraded_read(int64_t start, int len,
                                   std::span<const int> failed_disks,
                                   IoPlan& plan, std::vector<char>& has,
                                   std::vector<Element>& lost) const {
  DCODE_CHECK(start >= 0 && len > 0, "invalid logical range");
  const CodeLayout& layout = map_->layout();
  const int64_t per_stripe = map_->data_per_stripe();
  plan.accesses.clear();
  plan.reconstructions.clear();

  auto is_failed = [&](int disk) {
    return std::find(failed_disks.begin(), failed_disks.end(), disk) !=
           failed_disks.end();
  };

  auto cell_of = [&](Element x) {
    return static_cast<size_t>(x.row) * layout.cols() + x.col;
  };
  // `has`: per cell of the current stripe, whether the plan already has
  // its bytes (read or reconstructed). `lost`: the current stripe's
  // requested elements on failed disks, in logical order.
  auto available = [&](const Element& x) { return has[cell_of(x)] != 0; };
  // Marks `x` available; false if it already was.
  auto make_available = [&](const Element& x) {
    char& h = has[cell_of(x)];
    const bool fresh = h == 0;
    h = 1;
    return fresh;
  };
  const int64_t end = start + len;
  for (int64_t s = start / per_stripe; s * per_stripe < end; ++s) {
    const int64_t first = std::max(start, s * per_stripe);
    const int64_t stripe_end = std::min(end, (s + 1) * per_stripe);
    auto disk_of = [&](const Element& e) {
      return map_->physical_disk(s, e.col);
    };

    has.assign(static_cast<size_t>(layout.rows()) * layout.cols(), 0);
    lost.clear();
    for (int64_t x = first; x < stripe_end; ++x) {
      const Element e =
          layout.data_element(static_cast<int>(x - s * per_stripe));
      if (is_failed(disk_of(e))) {
        lost.push_back(e);
      } else if (make_available(e)) {
        plan.accesses.push_back(IoAccess{s, e, disk_of(e), false});
      }
    }

    // This stripe's peel schedule, built on first use (only a lost
    // element whose every equation crosses another failed disk needs it)
    // from the failed columns' cells. Both are per-thread storage, so a
    // warm plan allocates nothing.
    const codes::PeelSchedule* sched = nullptr;
    auto schedule = [&]() -> const codes::PeelSchedule& {
      if (sched == nullptr) {
        thread_local std::vector<Element> dead;
        dead.clear();
        for (int c = 0; c < layout.cols(); ++c) {
          if (!is_failed(map_->physical_disk(s, c))) continue;
          for (int r = 0; r < layout.rows(); ++r) {
            dead.push_back(make_element(r, c));
          }
        }
        sched = &codes::peel_schedule(layout, dead);
      }
      return *sched;
    };

    // Chain resolution: read the survivors an equation needs, recursing
    // into lost members first (their schedule steps precede ours).
    auto resolve_chain = [&](auto&& self, Element x) -> void {
      if (available(x)) return;
      int qi = schedule().equation[cell_of(x)];
      DCODE_ASSERT(qi >= 0, "chain resolution on an unpeelable element");
      const Equation& q = layout.equations()[static_cast<size_t>(qi)];
      auto need = [&](const Element& m) {
        if (m == x || available(m)) return;
        if (is_failed(disk_of(m))) {
          self(self, m);
        } else {
          make_available(m);
          plan.accesses.push_back(IoAccess{s, m, disk_of(m), false});
        }
      };
      need(q.parity);
      for (const Element& m : q.sources) need(m);
      plan.reconstructions.push_back(Reconstruction{s, x, qi});
      make_available(x);
    };

    bool full_decode_done = false;
    for (const Element& e : lost) {
      if (full_decode_done) break;
      if (available(e)) continue;  // already rebuilt en passant

      // Candidate equations: `e` must be their only member on a failed disk.
      int best_eq = -1;
      size_t best_extra = SIZE_MAX;
      for (int qi : layout.equations_containing(e.row, e.col)) {
        const Equation& q = layout.equations()[static_cast<size_t>(qi)];
        bool usable = true;
        size_t extra = 0;
        auto consider = [&](const Element& m) {
          if (m == e) return;
          if (is_failed(disk_of(m)) && !available(m)) {
            usable = false;
          } else if (!available(m)) {
            ++extra;
          }
        };
        consider(q.parity);
        for (const Element& m : q.sources) consider(m);
        if (usable && extra < best_extra) {
          best_extra = extra;
          best_eq = qi;
        }
      }

      if (best_eq < 0) {
        // Every equation of `e` crosses another failed disk. If the code
        // peels, rebuild exactly the recovery-chain prefix `e` depends on.
        if (schedule().equation[cell_of(e)] >= 0) {
          resolve_chain(resolve_chain, e);
          continue;
        }
        // Unpeelable (EVENODD / liberation coupling): fall back to a full
        // stripe decode — read all surviving elements not yet in the
        // plan; everything lost becomes available.
        for (int r = 0; r < layout.rows(); ++r) {
          for (int c = 0; c < layout.cols(); ++c) {
            Element m = codes::make_element(r, c);
            if (is_failed(disk_of(m))) continue;
            if (make_available(m)) {
              plan.accesses.push_back(IoAccess{s, m, disk_of(m), false});
            }
          }
        }
        for (const Element& l : lost) {
          if (make_available(l)) {
            plan.reconstructions.push_back(Reconstruction{s, l, -1});
          }
        }
        full_decode_done = true;
        continue;
      }

      const Equation& q = layout.equations()[static_cast<size_t>(best_eq)];
      auto pull = [&](const Element& m) {
        if (m == e || !make_available(m)) return;
        plan.accesses.push_back(IoAccess{s, m, disk_of(m), false});
      };
      pull(q.parity);
      for (const Element& m : q.sources) pull(m);
      plan.reconstructions.push_back(Reconstruction{s, e, best_eq});
      make_available(e);
    }
  }
}

}  // namespace dcode::raid

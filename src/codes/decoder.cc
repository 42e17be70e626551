#include "codes/decoder.h"

#include <algorithm>
#include <cstring>

#include "codes/solve.h"
#include "xorops/xor_region.h"

namespace dcode::codes {
namespace {

// Maps each lost element to a dense unknown index; -1 = known.
std::vector<int> unknown_map(const CodeLayout& layout,
                             std::span<const Element> lost) {
  std::vector<int> map(static_cast<size_t>(layout.rows()) * layout.cols(), -1);
  int next = 0;
  for (const Element& e : lost) {
    size_t idx = static_cast<size_t>(e.row) * layout.cols() + e.col;
    DCODE_CHECK(map[idx] == -1, "duplicate lost element");
    map[idx] = next++;
  }
  return map;
}

inline int unknown_of(const std::vector<int>& map, const CodeLayout& layout,
                      Element e) {
  return map[static_cast<size_t>(e.row) * layout.cols() + e.col];
}

// All members of an equation: parity + sources.
template <typename Fn>
void for_each_member(const Equation& q, Fn&& fn) {
  fn(q.parity);
  for (const Element& e : q.sources) fn(e);
}

// Runs a peel schedule on `stripe`, one solve per step; succeeds when the
// steps reach every lost element.
DecodeResult peel(Stripe& stripe, const PeelSchedule& sched) {
  const auto& eqs = stripe.layout().equations();
  DecodeResult result;
  for (const PeelStep& step : sched.steps) {
    const Equation& q = eqs[static_cast<size_t>(step.equation)];
    result.xor_ops += solve(q, step.target, stripe) - 1;
    ++result.steps;
  }
  result.success = sched.unreached.empty();
  return result;
}

}  // namespace

std::vector<Element> elements_of_disks(const CodeLayout& layout,
                                       std::span<const int> disks) {
  std::vector<Element> out;
  out.reserve(static_cast<size_t>(layout.rows()) * disks.size());
  for (int d : disks) {
    for (int r = 0; r < layout.rows(); ++r) out.push_back(make_element(r, d));
  }
  return out;
}

DecodeResult peel_decode(Stripe& stripe, std::span<const Element> lost) {
  return peel(stripe, peel_schedule(stripe.layout(), lost));
}

DecodeResult ge_decode(Stripe& stripe, std::span<const Element> lost) {
  const CodeLayout& layout = stripe.layout();
  const size_t esize = stripe.element_size();
  const int nunknown = static_cast<int>(lost.size());
  DecodeResult result;
  if (nunknown == 0) {
    result.success = true;
    return result;
  }
  std::vector<int> unknown = unknown_map(layout, lost);

  // Build the system: one row per equation that touches an unknown.
  // Row = bitset over unknowns; RHS = XOR of the equation's known members.
  struct Row {
    std::vector<uint8_t> coeff;  // 0/1 per unknown
    AlignedBuffer rhs;
  };
  std::vector<Row> rows;
  const auto& eqs = layout.equations();
  for (const Equation& q : eqs) {
    bool touches = false;
    for_each_member(q, [&](Element e) {
      if (unknown_of(unknown, layout, e) >= 0) touches = true;
    });
    if (!touches) continue;

    Row row;
    row.coeff.assign(static_cast<size_t>(nunknown), 0);
    row.rhs = AlignedBuffer(esize);
    for_each_member(q, [&](Element e) {
      int u = unknown_of(unknown, layout, e);
      if (u >= 0) {
        row.coeff[static_cast<size_t>(u)] ^= 1;
      } else {
        xorops::xor_into(row.rhs.data(), stripe.at(e), esize);
        ++result.xor_ops;
      }
    });
    rows.push_back(std::move(row));
  }

  // Forward elimination with partial pivoting over GF(2).
  std::vector<int> pivot_row(static_cast<size_t>(nunknown), -1);
  size_t next_row = 0;
  for (int col = 0; col < nunknown && next_row < rows.size(); ++col) {
    size_t pr = next_row;
    while (pr < rows.size() && rows[pr].coeff[static_cast<size_t>(col)] == 0)
      ++pr;
    if (pr == rows.size()) continue;  // free column (for now)
    std::swap(rows[next_row], rows[pr]);
    for (size_t r = 0; r < rows.size(); ++r) {
      if (r == next_row) continue;
      if (rows[r].coeff[static_cast<size_t>(col)]) {
        for (int c2 = 0; c2 < nunknown; ++c2)
          rows[r].coeff[static_cast<size_t>(c2)] ^=
              rows[next_row].coeff[static_cast<size_t>(c2)];
        xorops::xor_into(rows[r].rhs.data(), rows[next_row].rhs.data(), esize);
        ++result.xor_ops;
      }
    }
    pivot_row[static_cast<size_t>(col)] = static_cast<int>(next_row);
    ++next_row;
    ++result.steps;
  }

  // Solvable only if every unknown got a pivot.
  for (int u = 0; u < nunknown; ++u) {
    if (pivot_row[static_cast<size_t>(u)] < 0) {
      result.success = false;
      return result;
    }
  }

  // After full Gauss–Jordan style elimination each pivot row is a unit
  // vector: copy its RHS into the unknown's buffer.
  for (int u = 0; u < nunknown; ++u) {
    const Row& row = rows[static_cast<size_t>(pivot_row[static_cast<size_t>(u)])];
    DCODE_ASSERT(row.coeff[static_cast<size_t>(u)] == 1,
                 "pivot bookkeeping out of sync");
    std::memcpy(stripe.at(lost[static_cast<size_t>(u)]), row.rhs.data(),
                esize);
  }
  result.success = true;
  return result;
}

DecodeResult hybrid_decode(Stripe& stripe, std::span<const Element> lost) {
  const PeelSchedule& sched = peel_schedule(stripe.layout(), lost);
  const DecodeResult peeled = peel(stripe, sched);
  if (peeled.success) return peeled;
  // The peeled elements are valid now; GE solves only the rest.
  DecodeResult ge = ge_decode(stripe, sched.unreached);
  ge.xor_ops += peeled.xor_ops;
  ge.steps += peeled.steps;
  return ge;
}

bool is_recoverable(const CodeLayout& layout, std::span<const Element> lost) {
  // Rank test over GF(2) on the coefficient matrix only (no buffers).
  const int nunknown = static_cast<int>(lost.size());
  if (nunknown == 0) return true;
  std::vector<int> unknown = unknown_map(layout, lost);

  std::vector<std::vector<uint8_t>> rows;
  for (const Equation& q : layout.equations()) {
    std::vector<uint8_t> coeff(static_cast<size_t>(nunknown), 0);
    bool touches = false;
    for_each_member(q, [&](Element e) {
      int u = unknown_of(unknown, layout, e);
      if (u >= 0) {
        coeff[static_cast<size_t>(u)] ^= 1;
        touches = true;
      }
    });
    if (touches) rows.push_back(std::move(coeff));
  }

  size_t next_row = 0;
  int rank = 0;
  for (int col = 0; col < nunknown && next_row < rows.size(); ++col) {
    size_t pr = next_row;
    while (pr < rows.size() && rows[pr][static_cast<size_t>(col)] == 0) ++pr;
    if (pr == rows.size()) return false;  // free unknown: unrecoverable
    std::swap(rows[next_row], rows[pr]);
    for (size_t r = next_row + 1; r < rows.size(); ++r) {
      if (rows[r][static_cast<size_t>(col)]) {
        for (int c2 = col; c2 < nunknown; ++c2)
          rows[r][static_cast<size_t>(c2)] ^=
              rows[next_row][static_cast<size_t>(c2)];
      }
    }
    ++next_row;
    ++rank;
  }
  return rank == nunknown;
}

}  // namespace dcode::codes

#include "codes/solve.h"

namespace dcode::codes {

std::vector<const uint8_t*>& solve_members() {
  thread_local std::vector<const uint8_t*> members;
  return members;
}

const PeelSchedule& peel_schedule(const CodeLayout& layout,
                                  std::span<const Element> lost) {
  thread_local PeelSchedule sched;
  // Per equation: members not yet known; a count of 1 means solvable.
  thread_local std::vector<int> missing;
  constexpr int kUnknown = -2;  // a lost cell no step has reached yet
  auto cell = [&](Element e) -> int& {
    return sched.equation[static_cast<size_t>(e.row) * layout.cols() + e.col];
  };
  sched.steps.clear();
  sched.unreached.clear();
  sched.equation.assign(static_cast<size_t>(layout.rows()) * layout.cols(),
                        -1);
  for (const Element& e : lost) {
    DCODE_CHECK(cell(e) == -1, "duplicate lost element");
    cell(e) = kUnknown;
  }

  const auto& eqs = layout.equations();
  missing.assign(eqs.size(), 0);
  for (size_t qi = 0; qi < eqs.size(); ++qi) {
    if (cell(eqs[qi].parity) == kUnknown) ++missing[qi];
    for (const Element& e : eqs[qi].sources) {
      if (cell(e) == kUnknown) ++missing[qi];
    }
  }

  size_t remaining = lost.size();
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (size_t qi = 0; qi < eqs.size(); ++qi) {
      if (missing[qi] != 1) continue;
      const Equation& q = eqs[qi];
      Element target = q.parity;
      if (cell(target) != kUnknown) {
        for (const Element& e : q.sources) {
          if (cell(e) == kUnknown) {
            target = e;
            break;
          }
        }
      }
      cell(target) = static_cast<int>(qi);
      sched.steps.push_back(PeelStep{target, static_cast<int>(qi)});
      for (int mq : layout.equations_containing(target.row, target.col)) {
        --missing[static_cast<size_t>(mq)];
      }
      --remaining;
      progress = true;
    }
  }
  for (const Element& e : lost) {
    if (cell(e) != kUnknown) continue;
    cell(e) = -1;
    sched.unreached.push_back(e);
  }
  return sched;
}

}  // namespace dcode::codes

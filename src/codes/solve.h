// Solving parity equations: the one step every encode and repair takes,
// and the order in which a set of lost elements peels.
//
//  * solve() sets one member of an equation to the XOR of the others in
//    one xor_many pass. Encoding a parity, rebuilding a lost element and
//    re-deriving a condemned one are all this step. It is a template over
//    the element accessor, so a Stripe or a table of cell pointers into
//    slot buffers inline into the same loop.
//  * peel_schedule() is the dry run of peeling (paper §III-C, Fig. 3:
//    D-Code's recovery chains are its steps). It keeps solving any
//    equation with exactly one unknown member, scanning the equations in
//    index order, and returns the steps in the order it took them and the
//    lost elements no step reaches. The decoders apply the steps and hand
//    the rest to Gaussian elimination; the degraded-read planner reads
//    each chain's equations from it.
//
// Both work in per-thread storage reused across calls, so once warm they
// allocate nothing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "codes/code_layout.h"
#include "codes/stripe.h"
#include "xorops/xor_region.h"

namespace dcode::codes {

// The member pointers solve() gathers: per thread, reused by every call.
std::vector<const uint8_t*>& solve_members();

// Sets `target`, a member of `q`, to the XOR of q's other members, where
// `at(e)` returns element e's `len` bytes as a uint8_t*. Returns how many
// members it folded (one XOR operation fewer).
template <typename At>
size_t solve(const Equation& q, Element target, At&& at, size_t len) {
  std::vector<const uint8_t*>& members = solve_members();
  members.clear();
  if (q.parity != target) members.push_back(at(q.parity));
  for (const Element& e : q.sources) {
    if (e != target) members.push_back(at(e));
  }
  DCODE_ASSERT(members.size() == q.sources.size(),
               "solve target must be a member of its equation");
  xorops::xor_many(at(target), members, len);
  return members.size();
}

// solve() over the elements of a stripe.
inline size_t solve(const Equation& q, Element target, Stripe& stripe) {
  return solve(
      q, target, [&stripe](Element e) { return stripe.at(e); },
      stripe.element_size());
}

// One peel step: rebuild `target` through layout.equations()[equation].
struct PeelStep {
  Element target;
  int equation = -1;
};

struct PeelSchedule {
  // In peel order: every other member of a step's equation is a survivor
  // or the target of an earlier step.
  std::vector<PeelStep> steps;
  // The lost elements no step reaches, in the order `lost` listed them.
  std::vector<Element> unreached;
  // Per cell (row * cols + col): the equation of the step that rebuilds
  // it, or -1 for a survivor or an unreached element.
  std::vector<int> equation;
};

// Dry-runs peeling the `lost` elements (distinct; checked) of a stripe of
// `layout`; no buffers are touched. The schedule lives in this thread's
// storage and stays valid until the thread's next call.
const PeelSchedule& peel_schedule(const CodeLayout& layout,
                                  std::span<const Element> lost);

}  // namespace dcode::codes

// Single-disk failure recovery planning (paper §III-D's last feature).
//
// Conventional recovery rebuilds every lost element through its primary
// parity family, reading each equation's full source set. Because the two
// parity families overlap heavily in which elements they touch, choosing
// *per lost element* which family to use can shrink the union of elements
// read — Xu et al. (IEEE TC 2013) proved the optimum saves ~25% of disk
// reads for X-Code; the same holds for D-Code since it is a per-column
// reordering of X-Code.
//
// plan_single_disk_recovery() computes
//   * the conventional plan (first family only), and
//   * an optimized plan: exhaustive search over the 2^(lost data elements)
//     family choices when that is tractable (the RAID-scale primes the
//     paper uses give at most 2^15 states), greedy refinement otherwise.
//
// This file is only the planner. Raid6Array's rebuild pass
// (background_rebuild.cc) executes the minimal-read plan on every stripe
// whose only lost column is a rebuild target, and erasure-decodes every
// other stripe; the simulator and benches price plans without I/O.
#pragma once

#include <cstdint>
#include <vector>

#include "codes/code_layout.h"
#include "raid/io_plan.h"

namespace dcode::raid {

struct RecoveryPlan {
  // For each lost element, the equation used to rebuild it.
  std::vector<Reconstruction> reconstructions;
  // Union of surviving elements that must be read.
  std::vector<codes::Element> reads;
};

enum class RecoveryStrategy {
  kConventional,  // always the first equation of each lost element
  kMinimalReads,  // exhaustive / greedy hybrid choice
};

RecoveryPlan plan_single_disk_recovery(const codes::CodeLayout& layout,
                                       int failed_disk,
                                       RecoveryStrategy strategy);

}  // namespace dcode::raid

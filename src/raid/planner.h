// IoPlanner: logical operations -> element-level I/O plans.
//
// This is where the codes' I/O-load differences actually arise:
//
//  * plan_read — one read per requested element; parity disks contribute
//    nothing (the horizontal codes' normal-read weakness).
//  * plan_write — partial stripe write. Computes the *dirty parity
//    closure* (a data update dirties its parities; a dirty parity dirties
//    any parity whose equation contains it, e.g. RDP's diagonals covering
//    the row parities and HDP's anti-diagonals covering the horizontal
//    parities), then takes the cheaper of
//      RMW (read-modify-write): read old data + old dirty parities,
//          write new data + new parities;
//      RCW (reconstruct-write): read the untouched sources of every dirty
//          equation, recompute parities outright.
//    Sharing a horizontal parity across consecutive elements is exactly
//    what makes D-Code / RDP / H-Code cheap here and X-Code / HDP dear
//    (paper Figure 5). The byte-level array runs RCW on a stripe a write
//    covers whole, where it reads nothing (the dirty closure is every
//    equation), and RMW on every other healthy stripe write, whose
//    parity pre-read catches a misdirected write (raid6_array.h). So the
//    auto choice prices writes for the paper's experiments, and
//    kReconstructWrite per whole stripe plus kReadModifyWrite per partial
//    one is what the array does.
//  * plan_degraded_read — surviving requested elements are read directly;
//    each lost one picks the reconstruction equation with the smallest
//    number of *additional* reads given everything already in the plan
//    (greedy, in logical order). Consecutive lost elements sharing a
//    horizontal parity re-use each other's reads — D-Code's degraded-read
//    edge over X-Code (paper Figure 7).
//  * plan_degraded_write — the write the array executes: on a stripe with
//    a lost column, the same delta update as RMW around the lost columns
//    (the old values of the written elements come from
//    plan_degraded_read over the written range, and only live elements
//    are read and written), so a write to a degraded stripe costs what
//    it touches, not a stripe rewrite; on any other stripe, RCW if the
//    write covers it whole and RMW if not.
//
// Counting convention: one access = one element read or written, the
// papers' unit. `times` multipliers from <S, L, T> tuples are applied by
// the simulator when accumulating stats, not by expanding plans.
#pragma once

#include <span>
#include <vector>

#include "raid/address_map.h"
#include "raid/io_plan.h"

namespace dcode::raid {

enum class WritePolicy { kAuto, kReadModifyWrite, kReconstructWrite };

class IoPlanner {
 public:
  explicit IoPlanner(const AddressMap& map) : map_(&map) {}

  // Normal-mode read of `len` consecutive logical data elements.
  IoPlan plan_read(int64_t start, int len) const;

  // Healthy-mode partial stripe write of `len` consecutive elements.
  IoPlan plan_write(int64_t start, int len,
                    WritePolicy policy = WritePolicy::kAuto) const;

  // A write as the byte-level array executes it, around `failed_disks`
  // (which may be empty). A stripe with no column on a failed disk plans
  // the healthy write the array runs: plan_write's kReconstructWrite for
  // a stripe the range covers whole (the encode, which reads nothing) and
  // kReadModifyWrite otherwise — not the cheaper-of choice of kAuto. A
  // stripe with a lost column runs a delta update:
  //   reads  — plan_degraded_read over the written range (the old values
  //            of live written elements directly; lost ones and any
  //            chain intermediates through its equation choice), then
  //            each live dirty parity that plan has not read;
  //   reconstructions — that plan's;
  //   writes — each live written data element, then each live dirty
  //            parity.
  // A dirty parity on a lost column is neither read nor written; its
  // delta still folds into any equation that holds it (RDP, HDP,
  // H-Code). Every read is a distinct live cell and the writes are a
  // subset of a stripe rewrite's, so the plan never costs more than
  // rewriting the stripe, and equals it for a full-stripe write. (The
  // paper evaluates degraded *reads* only; this extends the load
  // experiments to degraded writes.)
  IoPlan plan_degraded_write(int64_t start, int len,
                             std::span<const int> failed_disks) const;

  // Read under failed disks. Single-disk failures use per-element greedy
  // equation selection. With two failed disks, elements whose every
  // equation also crosses the other failed disk are rebuilt through
  // *recovery chains* (the §III-C structure): the planner takes the
  // stripe's codes::peel_schedule and pulls in exactly the chain prefix
  // the requested elements depend on — far less I/O than decoding the
  // whole stripe. Codes whose double failures do not peel (EVENODD,
  // liberation) fall back to a full-stripe decode.
  IoPlan plan_degraded_read(int64_t start, int len,
                            std::span<const int> failed_disks) const;
  // The same plan into `plan`, with `has` and `lost` as its per-cell
  // flags and its list of lost requested elements. All three are
  // overwritten and keep their capacity, and a recovery chain's peel
  // schedule is per-thread storage, so a caller that reuses them (the
  // array's degraded reads and writes) allocates nothing once warm, with
  // one lost column or two. On return, `has` flags the cells of the
  // range's last stripe that the plan reads or rebuilds.
  void plan_degraded_read(int64_t start, int len,
                          std::span<const int> failed_disks, IoPlan& plan,
                          std::vector<char>& has,
                          std::vector<codes::Element>& lost) const;

 private:
  const AddressMap* map_;
};

// The set of parity equations a write to `written` data elements must
// refresh, in topological order (closure over parity-in-parity coverage).
// Exposed for tests and the update-complexity bench.
std::vector<int> dirty_parity_closure(const codes::CodeLayout& layout,
                                      std::span<const codes::Element> written);
// The same closure into `dirty`, with `marked` as its per-equation work
// flags: both are overwritten and keep their capacity, so a caller that
// reuses them (the array's RMW write) allocates nothing once warm.
void dirty_parity_closure(const codes::CodeLayout& layout,
                          std::span<const codes::Element> written,
                          std::vector<int>& dirty, std::vector<char>& marked);

}  // namespace dcode::raid

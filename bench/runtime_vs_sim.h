// Runtime-vs-simulator cross-validation, shared by the Fig. 4 and Fig. 5
// benches: drive the same <S, L, T> workload through the live Raid6Array
// (with a private obs::Registry so global metrics stay clean) and through
// the planner-based simulator, then report the two per-disk element-access
// tallies side by side in the telemetry output.
//
// The simulator side plans each write as the byte-level array executes
// it in healthy mode — WritePolicy::kReconstructWrite for a stripe the
// write covers whole (encoded, nothing read), kReadModifyWrite for the
// rest — so the two tallies must agree element-for-element; any mismatch
// is a real divergence between planner predictions and array behaviour,
// not policy noise. (The Fig. 4/5 headline numbers themselves keep
// kAuto.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "codes/registry.h"
#include "obs/metrics.h"
#include "raid/planner.h"
#include "raid/raid6_array.h"
#include "sim/io_stats.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace dcode::bench {

struct RuntimeVsSimResult {
  sim::IoStats sim_stats;      // planner tallies under the array's policy
  sim::IoStats runtime_stats;  // live per_disk_element_accesses() deltas
  int64_t mismatch_elements;   // sum over disks of |runtime - sim|
};

inline RuntimeVsSimResult run_runtime_vs_sim(const std::string& code, int p,
                                             sim::WorkloadKind kind,
                                             int operations, uint64_t seed) {
  auto layout = codes::make_layout(code, p);
  const int64_t data_count = layout->data_count();

  sim::WorkloadParams params;
  params.operations = operations;
  params.seed = seed;
  params.start_space = data_count;
  std::vector<sim::Op> ops = sim::generate_workload(kind, params);

  // Simulator side: exactly run_load_experiment's tallying, with the
  // write policy pinned to the array's.
  raid::AddressMap map(*layout);
  raid::IoPlanner planner(map);
  sim::IoStats sim_stats(layout->cols());
  for (const sim::Op& op : ops) {
    if (!op.is_write) {
      sim_stats.accumulate(planner.plan_read(op.start, op.len), op.times);
      continue;
    }
    const int64_t end = op.start + op.len;
    for (int64_t s = op.start / data_count; s * data_count < end; ++s) {
      const int64_t first = std::max(op.start, s * data_count);
      const int len =
          static_cast<int>(std::min(end, (s + 1) * data_count) - first);
      sim_stats.accumulate(
          planner.plan_write(first, len,
                             len == data_count
                                 ? raid::WritePolicy::kReconstructWrite
                                 : raid::WritePolicy::kReadModifyWrite),
          op.times);
    }
  }

  // Runtime side: execute each op once against the live array and weight
  // the per-disk access delta by T — plans depend only on addresses, so
  // repeating the op T times would touch the same elements T times.
  constexpr size_t kElem = 64;
  const int64_t stripes =
      1 + (static_cast<int64_t>(params.max_len) + data_count - 1) / data_count;
  obs::Registry reg;
  raid::Raid6Array array(codes::make_layout(code, p), kElem, stripes,
                         /*threads=*/1, &reg);
  Pcg32 rng(seed ^ 0xA11A);
  std::vector<uint8_t> fill(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(fill.data(), fill.size());
  array.write(0, fill);
  array.reset_stats();

  sim::IoStats runtime_stats(layout->cols());
  std::vector<int64_t> prev(static_cast<size_t>(layout->cols()), 0);
  std::vector<uint8_t> buf(static_cast<size_t>(params.max_len) * kElem);
  for (const sim::Op& op : ops) {
    const size_t bytes = static_cast<size_t>(op.len) * kElem;
    const int64_t off = op.start * static_cast<int64_t>(kElem);
    if (op.is_write) {
      rng.fill_bytes(buf.data(), bytes);
      array.write(off, std::span<const uint8_t>(buf.data(), bytes));
    } else {
      array.read(off, std::span<uint8_t>(buf.data(), bytes));
    }
    std::vector<int64_t> now = array.per_disk_element_accesses();
    for (int d = 0; d < layout->cols(); ++d) {
      runtime_stats.add(d, (now[static_cast<size_t>(d)] -
                            prev[static_cast<size_t>(d)]) *
                               op.times);
    }
    prev = std::move(now);
  }

  int64_t mismatch = 0;
  for (int d = 0; d < layout->cols(); ++d) {
    int64_t diff = runtime_stats.accesses(d) - sim_stats.accesses(d);
    mismatch += diff < 0 ? -diff : diff;
  }
  return RuntimeVsSimResult{std::move(sim_stats), std::move(runtime_stats),
                            mismatch};
}

// Prints the cross-check table and emits per-disk telemetry rows. Kept
// small-scale (few hundred ops, p in {5, 7}) so it adds seconds, not
// minutes, to the figure benches it rides along with.
inline void report_runtime_vs_sim(Telemetry& telemetry,
                                  sim::WorkloadKind kind,
                                  const char* workload_label,
                                  int operations = 200,
                                  uint64_t seed = 0xCA11) {
  std::cout << "-- Runtime vs simulator cross-check (" << workload_label
            << ", " << operations << " ops, live Raid6Array) --\n";
  TablePrinter table({"code", "p", "sim_total", "runtime_total", "sim_lf",
                      "runtime_lf", "mismatch_elems"});
  for (const auto& name : codes::paper_comparison_codes()) {
    for (int p : {5, 7}) {
      RuntimeVsSimResult r =
          run_runtime_vs_sim(name, p, kind, operations, seed + p);
      table.add_row({name, std::to_string(p), std::to_string(r.sim_stats.total()),
                     std::to_string(r.runtime_stats.total()),
                     format_lf(r.sim_stats.load_balancing_factor()),
                     format_lf(r.runtime_stats.load_balancing_factor()),
                     std::to_string(r.mismatch_elements)});
      obs::Labels base = {{"code", name},
                          {"p", std::to_string(p)},
                          {"workload", workload_label}};
      for (int d = 0; d < r.sim_stats.disks(); ++d) {
        obs::Labels l = base;
        l.emplace_back("disk", std::to_string(d));
        telemetry.add("sim_per_disk_accesses",
                      static_cast<double>(r.sim_stats.accesses(d)), l);
        telemetry.add("runtime_per_disk_accesses",
                      static_cast<double>(r.runtime_stats.accesses(d)), l);
      }
      telemetry.add("runtime_sim_mismatch_elements",
                    static_cast<double>(r.mismatch_elements), base);
    }
  }
  table.print(std::cout);
  std::cout << "mismatch_elems of 0 means the live array touched exactly the "
               "elements the planner predicted, per disk.\n\n";
}

}  // namespace dcode::bench

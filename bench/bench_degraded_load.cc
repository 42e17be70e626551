// Extension experiment: I/O loads in DEGRADED mode. The paper's Figure
// 4/5 run healthy arrays; here the same mixed workload runs with one data
// disk failed (reads reconstruct through the planner's chains, writes run
// the delta update around the lost column), averaged over every failure
// case.
//
// Expected shape: degraded cost is dominated by reconstruction reads, so
// the codes whose continuous elements share parities (D-Code, RDP,
// H-Code) stay cheapest, and the LF of the horizontal codes *improves*
// (their idle parity disks finally serve reconstruction reads) while
// remaining worse than the verticals'.
#include <chrono>
#include <cstring>

#include "bench_common.h"
#include "raid/planner.h"
#include "raid/raid6_array.h"
#include "sim/io_stats.h"
#include "sim/workload.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace dcode;
using namespace dcode::bench;

namespace {

// Runtime counterpart: degraded-read throughput of a real Raid6Array
// (one data disk down, full sequential read reconstructing through the
// planner's equation chains) per device backend.
double measure_runtime_degraded_read_mb_s(const std::string& backend) {
  const size_t esize = 8 * 1024;
  const int64_t stripes = 32;
  raid::ArrayOptions opts;
  opts.device_factory = backend_device_factory(backend);
  raid::Raid6Array array(codes::make_layout("dcode", 11), esize, stripes, 0,
                         nullptr, std::move(opts));
  Pcg32 rng(0xDE64);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);
  array.fail_disk(2);

  std::vector<uint8_t> out(blob.size());
  array.read(0, out);  // warmup
  DCODE_CHECK(out == blob, "degraded read returned wrong data");
  const int iters = 3;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) array.read(0, out);
  auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(blob.size()) * iters / secs / (1024.0 * 1024.0);
}

// Verify-on-read A/B: healthy sequential read throughput with
// ArrayOptions::verify_reads on (the default) vs off, same array shape
// and content. The difference is the per-read cost of hashing every
// element against its sidecar record — the number pinned in
// docs/robustness.md's integrity section.
double measure_runtime_read_mb_s(bool verify) {
  const size_t esize = 8 * 1024;
  const int64_t stripes = 32;
  raid::ArrayOptions opts;
  opts.verify_reads = verify;
  raid::Raid6Array array(codes::make_layout("dcode", 11), esize, stripes, 0,
                         nullptr, std::move(opts));
  Pcg32 rng(0x1F0D);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  std::vector<uint8_t> out(blob.size());
  array.read(0, out);  // warmup
  DCODE_CHECK(out == blob, "healthy read returned wrong data");
  const int iters = 5;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) array.read(0, out);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(blob.size()) * iters / secs / (1024.0 * 1024.0);
}

// Repair-mode scrub wall time: corrupt one element in each of several
// stripes through the device backdoor, then time the syndrome-localizing
// scrub pass that finds and rewrites them all.
double measure_runtime_scrub_repair_ms() {
  const size_t esize = 8 * 1024;
  const int64_t stripes = 32;
  raid::Raid6Array array(codes::make_layout("dcode", 11), esize, stripes, 0);
  const int rows = 10;  // p - 1
  Pcg32 rng(0x5C4B);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  const int corruptions = 8;
  for (int i = 0; i < corruptions; ++i) {
    const int disk = i % 12;  // p + 1 columns
    const int64_t stripe = (i * 4) % stripes;
    const uint64_t off = (static_cast<uint64_t>(stripe) * rows +
                          static_cast<uint64_t>(i % rows)) *
                         esize;
    std::vector<uint8_t> buf(64);
    array.disk(disk).read(off, buf);
    for (auto& b : buf) b ^= 0x3C;
    array.disk(disk).write(off, buf);
  }

  const auto t0 = std::chrono::steady_clock::now();
  raid::ScrubReport rep = array.scrub_report({.repair = true});
  const auto t1 = std::chrono::steady_clock::now();
  DCODE_CHECK(rep.elements_repaired == corruptions,
              "scrub repair missed a corrupted element");
  DCODE_CHECK(array.scrub() == 0, "scrub repair did not converge");
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  DCODE_CHECK(out == blob, "scrub repair did not restore the content");
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Transient-burst tick: a burst of transient device errors against a full
// sequential read, absorbed entirely by the engine's backoff-retry loop
// (no escalation). Measures the latency cost of riding out the burst.
double measure_runtime_transient_burst_read_ms() {
  const size_t esize = 8 * 1024;
  const int64_t stripes = 32;
  raid::Raid6Array array(codes::make_layout("dcode", 11), esize, stripes, 0);
  Pcg32 rng(0x7B57);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  std::vector<uint8_t> out(blob.size());
  array.read(0, out);  // warmup, no faults
  array.disk(4).faults().inject_transient_errors(2);
  const auto t0 = std::chrono::steady_clock::now();
  array.read(0, out);
  const auto t1 = std::chrono::steady_clock::now();
  DCODE_CHECK(out == blob, "read through transient burst corrupted data");
  DCODE_CHECK(array.failed_disk_count() == 0,
              "a budget-sized burst must not escalate");
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  Telemetry telemetry("bench_degraded_load", argc, argv);
  print_header("Extension: degraded-mode I/O loads (mixed 1:1, p=11)",
               "one data disk failed, averaged over every failure case; "
               "500 ops per case.");

  TablePrinter table({"code", "LF-healthy", "LF-degraded", "cost-healthy",
                      "cost-degraded", "penalty"});
  for (const auto& name : codes::paper_comparison_codes()) {
    auto layout = codes::make_layout(name, 11);
    raid::AddressMap map(*layout);
    raid::IoPlanner planner(map);

    sim::WorkloadParams params;
    params.operations = 500;
    params.start_space = layout->data_count();
    params.seed = 0xDE62;
    auto ops = sim::generate_workload(sim::WorkloadKind::kMixed, params);

    // Healthy baseline.
    sim::IoStats healthy(layout->cols());
    for (const auto& op : ops) {
      auto plan = op.is_write ? planner.plan_write(op.start, op.len)
                              : planner.plan_read(op.start, op.len);
      healthy.accumulate(plan, op.times);
    }

    // Degraded, averaged over data-hosting failure cases.
    Accumulator lf_acc, cost_acc;
    for (int f = 0; f < layout->cols(); ++f) {
      if (layout->parity_elements_on_disk(f) == layout->rows()) continue;
      int fd[1] = {f};
      sim::IoStats stats(layout->cols());
      for (const auto& op : ops) {
        auto plan = op.is_write
                        ? planner.plan_degraded_write(op.start, op.len, fd)
                        : planner.plan_degraded_read(op.start, op.len, fd);
        stats.accumulate(plan, op.times);
      }
      // LF over the surviving disks only (the failed one serves nothing).
      int64_t lmax = 0, lmin = INT64_MAX;
      for (int d = 0; d < layout->cols(); ++d) {
        if (d == f) continue;
        lmax = std::max(lmax, stats.accesses(d));
        lmin = std::min(lmin, stats.accesses(d));
      }
      lf_acc.add(lmin > 0 ? static_cast<double>(lmax) /
                                static_cast<double>(lmin)
                          : 1e9);
      cost_acc.add(static_cast<double>(stats.total()));
    }

    double penalty = cost_acc.mean() / static_cast<double>(healthy.total());
    obs::Labels cell = {{"code", name}, {"p", "11"}, {"workload", "mixed"}};
    telemetry.add("load_balancing_factor_healthy",
                  healthy.load_balancing_factor(), cell);
    telemetry.add("load_balancing_factor_degraded", lf_acc.mean(), cell);
    telemetry.add("io_cost_healthy",
                  static_cast<double>(healthy.total()), cell);
    telemetry.add("io_cost_degraded", cost_acc.mean(), cell);
    telemetry.add("degraded_cost_penalty", penalty, cell);
    table.add_row({name, format_lf(healthy.load_balancing_factor()),
                   format_double(lf_acc.mean(), 2),
                   std::to_string(healthy.total()),
                   format_double(cost_acc.mean(), 0),
                   format_double(penalty, 2) + "x"});
  }
  table.print(std::cout);

  std::cout << "\nObservations: a degraded write updates only the live "
               "elements it touches, so its penalty is the reads that "
               "rebuild lost old values, offset by the lost data and "
               "parity it does not write (hdp can come out below its "
               "healthy cost); RDP's parity disks finally serve I/O, "
               "pulling its LF down toward the verticals'.\n";

  std::cout << "\n-- Runtime: degraded sequential read throughput per "
               "device backend (dcode, p=11, disk 2 failed) --\n";
  TablePrinter rt({"backend", "MB/s"});
  for (const std::string& backend : runtime_backends()) {
    double mb_s = measure_runtime_degraded_read_mb_s(backend);
    rt.add_row({backend, format_double(mb_s, 0)});
    telemetry.add("runtime_degraded_read_mb_s", mb_s,
                  {{"code", "dcode"}, {"p", "11"}, {"backend", backend}});
  }
  rt.print(std::cout);

  std::cout << "\n-- Runtime: self-healing costs (dcode, p=11, 32 "
               "stripes) --\n";
  TablePrinter heal({"scenario", "ms"});
  const double scrub_ms = measure_runtime_scrub_repair_ms();
  heal.add_row({"scrub-repair (8 corrupt elements)",
                format_double(scrub_ms, 1)});
  telemetry.add("runtime_scrub_repair_ms", scrub_ms,
                {{"code", "dcode"}, {"p", "11"}, {"corruptions", "8"}});
  const double burst_ms = measure_runtime_transient_burst_read_ms();
  heal.add_row({"full read through transient burst",
                format_double(burst_ms, 1)});
  telemetry.add("runtime_transient_burst_read_ms", burst_ms,
                {{"code", "dcode"}, {"p", "11"}, {"burst", "2"}});
  heal.print(std::cout);

  std::cout << "\n-- Runtime: verify-on-read overhead (dcode, p=11, "
               "healthy sequential read) --\n";
  const double off_mb_s = measure_runtime_read_mb_s(false);
  const double on_mb_s = measure_runtime_read_mb_s(true);
  const double overhead_pct = (off_mb_s / on_mb_s - 1.0) * 100.0;
  TablePrinter vr({"verify-on-read", "MB/s"});
  vr.add_row({"off", format_double(off_mb_s, 0)});
  vr.add_row({"on", format_double(on_mb_s, 0)});
  vr.print(std::cout);
  std::cout << "overhead: " << format_double(overhead_pct, 1) << "%\n";
  const obs::Labels vcell = {{"code", "dcode"}, {"p", "11"}};
  telemetry.add("runtime_read_mb_s_verify_off", off_mb_s, vcell);
  telemetry.add("runtime_read_mb_s_verify_on", on_mb_s, vcell);
  telemetry.add("verify_on_read_overhead_pct", overhead_pct, vcell);

  telemetry.finish();
  return 0;
}

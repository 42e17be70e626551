// Glue that gives the google-benchmark binaries the same `--json <path>`
// telemetry contract as the table-style benches: a reporter mirrors every
// finished run into a bench::Telemetry document and hands everything on
// to the display reporter google-benchmark would have chosen itself, so
// --benchmark_format and --benchmark_color keep working.
// run_gbench_with_telemetry() replaces BENCHMARK_MAIN().
#pragma once

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "xorops/isa.h"

namespace dcode::bench {

class TelemetryReporter : public benchmark::BenchmarkReporter {
 public:
  // Construct after benchmark::Initialize: the display reporter reads the
  // parsed flags.
  explicit TelemetryReporter(Telemetry* telemetry)
      : telemetry_(telemetry),
        display_(benchmark::CreateDefaultDisplayReporter()) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations <= 0) continue;
      obs::Labels labels = {
          {"name", run.benchmark_name()},
          {"isa", xorops::isa_name(xorops::active_isa())}};
      telemetry_->add(
          "real_time_s_per_iter",
          run.real_accumulated_time / static_cast<double>(run.iterations),
          labels);
      auto it = run.counters.find("bytes_per_second");
      if (it != run.counters.end()) {
        telemetry_->add("bytes_per_second", static_cast<double>(it->second),
                        labels);
      }
    }
    display_->ReportRuns(runs);
  }

  void Finalize() override { display_->Finalize(); }

 private:
  Telemetry* telemetry_;
  std::unique_ptr<benchmark::BenchmarkReporter> display_;
};

// Drop-in replacement for BENCHMARK_MAIN()'s body. Strips --json before
// benchmark::Initialize sees the argv, so the two flag namespaces never
// collide.
inline int run_gbench_with_telemetry(const std::string& bench_name, int argc,
                                     char** argv) {
  Telemetry telemetry(bench_name, argc, argv);
  benchmark::AddCustomContext("dcode_isa",
                              xorops::isa_name(xorops::active_isa()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  TelemetryReporter reporter(&telemetry);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  telemetry.finish();
  return 0;
}

}  // namespace dcode::bench

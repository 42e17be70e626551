// Open-loop tail-latency harness: Poisson arrivals against a live array.
//
// Closed-loop benches (issue, wait, issue) understate tail latency: a
// slow op delays the *submission* of every op behind it, so the stall is
// counted once instead of once per queued op (coordinated omission).
// This harness is open-loop: arrival times are drawn up front from an
// exponential inter-arrival distribution at a fixed offered rate, workers
// submit each op at its intended arrival regardless of how the previous
// op fared, and latency is measured from the INTENDED arrival — an op
// that waited behind a stall is charged its full queueing delay.
//
// The matrix swept: offered rates x workloads {uniform, zipfian, mixed
// (paper §IV-A 1:1)} x array states {healthy, degraded, rebuilding} x
// device backends. Each cell reports interpolated p50/p90/p99/p999/max
// from the log-linear latency ladder plus the achieved rate (a
// saturated cell achieves less than it offers — read its percentiles as
// "overloaded", not as service latency).
// A second section sweeps writer-thread counts through the async
// StripePipeline (submit_read/submit_write + completion futures) to
// measure how mixed 4K random IOPS scale with concurrency when every
// device transfer pays a fixed injected service latency — the
// acceptance gate for the request pipeline.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "obs/op_context.h"
#include "raid/pipeline.h"
#include "raid/raid6_array.h"
#include "sim/workload.h"
#include "util/rng.h"
#include "volume/storage_pool.h"

using namespace dcode;
using namespace dcode::bench;

namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct HarnessConfig {
  int ops = 1200;              // ops per cell
  int threads = 8;             // submitting workers
  std::vector<double> rates = {2000.0, 8000.0, 20000.0};  // offered ops/s
  std::vector<std::string> backends = {"mem", "file"};
  std::vector<std::string> workloads = {"uniform", "zipfian", "mixed"};
  std::vector<std::string> states = {"healthy", "degraded", "rebuilding"};
  // Pipelined writer-threads sweep (mem backend only).
  std::vector<int> writer_threads = {1, 4, 8};
  int writer_ops = 1600;             // total ops per sweep point
  int writer_disk_latency_us = 40;   // injected per-transfer service time
  // StoragePool shard sweep (mem backend only): shard counts drawn from
  // the fixed ~14-device budget (1x p13 = 13, 2x p7 = 14, 3x p5 = 15).
  std::vector<int> shards = {1, 2, 3};
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

HarnessConfig parse_flags(int argc, char** argv) {
  HarnessConfig cfg;
  for (int i = 1; i < argc; ++i) {
    std::string_view a(argv[i]);
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "flag " << a << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--ops") {
      cfg.ops = std::stoi(next());
    } else if (a == "--threads") {
      cfg.threads = std::stoi(next());
    } else if (a == "--rates") {
      cfg.rates.clear();
      for (const auto& r : split_csv(next())) cfg.rates.push_back(std::stod(r));
    } else if (a == "--backends") {
      cfg.backends = split_csv(next());
    } else if (a == "--workloads") {
      cfg.workloads = split_csv(next());
    } else if (a == "--states") {
      cfg.states = split_csv(next());
    } else if (a == "--writer-threads") {
      cfg.writer_threads.clear();
      for (const auto& n : split_csv(next())) {
        cfg.writer_threads.push_back(std::stoi(n));
      }
    } else if (a == "--writer-ops") {
      cfg.writer_ops = std::stoi(next());
    } else if (a == "--writer-disk-latency-us") {
      cfg.writer_disk_latency_us = std::stoi(next());
    } else if (a == "--shards") {
      cfg.shards.clear();
      for (const auto& n : split_csv(next())) {
        cfg.shards.push_back(std::stoi(n));
      }
    } else if (a.substr(0, 11) == "--benchmark") {
      // Tolerated so CI's generic bench smoke loop (which passes
      // google-benchmark flags to every binary) can run this one too.
    } else {
      std::cerr << "unknown flag: " << a
                << " (flags: --ops --threads --rates --backends --workloads "
                   "--states --writer-threads --writer-ops "
                   "--writer-disk-latency-us --shards --json)\n";
      std::exit(2);
    }
  }
  for (int n : cfg.writer_threads) {
    if (n < 1) {
      std::cerr << "--writer-threads entries must be >= 1\n";
      std::exit(2);
    }
  }
  for (int n : cfg.shards) {
    if (n < 1 || n > 3) {
      std::cerr << "--shards entries must be 1, 2, or 3 (the fixed "
                   "~14-device budget: 1x p13, 2x p7, 3x p5)\n";
      std::exit(2);
    }
  }
  if (cfg.ops < 1 || cfg.threads < 1 || cfg.rates.empty()) {
    std::cerr << "need at least one op, one thread, one rate\n";
    std::exit(2);
  }
  return cfg;
}

// One submitted operation with its intended arrival (ns after cell start).
struct LoadOp {
  bool is_write = false;
  int64_t offset = 0;
  size_t len = 0;
  int64_t arrival_ns = 0;
};

// Expands a sim workload into byte-addressed ops with Poisson arrivals.
std::vector<LoadOp> build_ops(const std::string& workload, int count,
                              double rate_ops_s, int64_t capacity,
                              size_t esize, uint64_t seed) {
  const int64_t total_elements = capacity / static_cast<int64_t>(esize);
  sim::WorkloadParams params;
  params.operations = count;
  params.start_space = total_elements;
  params.seed = seed;
  sim::WorkloadKind kind = sim::WorkloadKind::kReadIntensive;  // 7:3
  if (workload == "uniform") {
    params.max_len = 8;
  } else if (workload == "zipfian") {
    params.max_len = 8;
    params.zipf_theta = 0.99;  // YCSB's default hot-spot skew
  } else if (workload == "mixed") {
    kind = sim::WorkloadKind::kMixed;  // paper §IV-A evenly mixed, L in [1,20]
  } else {
    std::cerr << "unknown workload: " << workload << "\n";
    std::exit(2);
  }
  auto tuples = sim::generate_workload(kind, params);

  std::vector<LoadOp> ops;
  ops.reserve(tuples.size());
  Pcg32 arrivals(seed ^ 0xA221BA1ull);
  const double mean_gap_ns = 1e9 / rate_ops_s;
  double t = 0.0;
  for (const auto& tup : tuples) {
    LoadOp op;
    op.is_write = tup.is_write;
    op.offset = tup.start * static_cast<int64_t>(esize);
    op.len = static_cast<size_t>(
        std::min<int64_t>(tup.len * static_cast<int64_t>(esize),
                          capacity - op.offset));
    // Exponential inter-arrival: -ln(1-u) * mean.
    t += -std::log(1.0 - arrivals.next_double()) * mean_gap_ns;
    op.arrival_ns = static_cast<int64_t>(t);
    ops.push_back(op);
  }
  return ops;
}

struct CellResult {
  double p50 = 0, p90 = 0, p99 = 0, p999 = 0, max = 0, mean = 0;
  double achieved_ops_s = 0;
  int64_t errors = 0;
};

// Runs one cell: `threads` workers claim ops in arrival order and submit
// each at its intended time. Latency = finish - intended arrival, so an
// op delayed behind a stalled predecessor is charged the queueing it
// actually suffered (the OpContext hands the same intended-arrival
// timestamp to the array, so raid.*_latency_ns agrees).
CellResult run_cell(raid::Raid6Array& array, const std::vector<LoadOp>& ops,
                    int threads) {
  obs::Histogram hist(obs::latency_bounds_ns());
  std::atomic<size_t> next{0};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> last_finish_ns{0};
  size_t max_len = 0;
  for (const auto& op : ops) max_len = std::max(max_len, op.len);

  // Give every worker time to reach the claim loop before the clock
  // starts, so op 0's latency is not harness start-up.
  const int64_t start_ns = now_ns() + 5'000'000;

  auto worker = [&](int id) {
    std::vector<uint8_t> buf(max_len);
    Pcg32 rng(0xB0FF + static_cast<uint64_t>(id));
    rng.fill_bytes(buf.data(), buf.size());
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= ops.size()) break;
      const LoadOp& op = ops[i];
      const int64_t intended = start_ns + op.arrival_ns;
      // Coarse sleep to ~200us before the intended arrival, then spin on
      // the steady clock: sleep_until alone overshoots by tens of
      // microseconds, which would swamp mem-backend latencies.
      int64_t now = now_ns();
      if (intended - now > 250'000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(intended - now - 200'000));
      }
      while (now_ns() < intended) {
      }
      obs::OpContext ctx;
      ctx.op_id = obs::next_op_id();
      ctx.enqueue_ns = intended;
      obs::OpContextScope scope(&ctx);
      try {
        if (op.is_write) {
          array.write(op.offset, std::span<const uint8_t>(buf.data(), op.len));
        } else {
          array.read(op.offset, std::span<uint8_t>(buf.data(), op.len));
        }
      } catch (const std::exception&) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
      const int64_t finish = now_ns();
      hist.observe(finish - intended);
      int64_t prev = last_finish_ns.load(std::memory_order_relaxed);
      while (prev < finish && !last_finish_ns.compare_exchange_weak(
                                  prev, finish, std::memory_order_relaxed)) {
      }
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) workers.emplace_back(worker, t);
  for (auto& w : workers) w.join();

  CellResult r;
  r.p50 = hist.percentile(0.50);
  r.p90 = hist.percentile(0.90);
  r.p99 = hist.percentile(0.99);
  r.p999 = hist.percentile(0.999);
  r.max = static_cast<double>(hist.max_value());
  r.mean = hist.count() > 0
               ? static_cast<double>(hist.sum()) /
                     static_cast<double>(hist.count())
               : 0.0;
  const double wall_s =
      static_cast<double>(last_finish_ns.load() - start_ns) / 1e9;
  r.achieved_ops_s =
      wall_s > 0 ? static_cast<double>(ops.size()) / wall_s : 0.0;
  r.errors = errors.load();
  return r;
}

std::unique_ptr<raid::Raid6Array> make_array(const std::string& backend,
                                             const std::string& state) {
  const size_t esize = 4 * 1024;
  const int64_t stripes = 64;
  raid::ArrayOptions opts;
  opts.device_factory = backend_device_factory(backend);
  if (state == "rebuilding") {
    opts.background_rebuild = true;
    // Throttled so the rebuild stays active through the measured cell
    // instead of finishing during warmup.
    opts.rebuild_rate_stripes_per_sec = 24.0;
  }
  auto array = std::make_unique<raid::Raid6Array>(
      codes::make_layout("dcode", 7), esize, stripes, 0, nullptr,
      std::move(opts));

  Pcg32 rng(0x10AD);
  std::vector<uint8_t> blob(static_cast<size_t>(array->capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array->write(0, blob);

  if (state == "degraded") {
    array->fail_disk(2);  // no spares: stays degraded for the whole cell
  } else if (state == "rebuilding") {
    array->add_hot_spares(1);
    array->fail_disk(2);  // promotes the spare, background rebuild starts
  } else if (state != "healthy") {
    std::cerr << "unknown state: " << state << "\n";
    std::exit(2);
  }
  return array;
}

std::string format_us(double ns) { return format_double(ns / 1000.0, 1); }

// --- pipelined writer-threads sweep ---------------------------------------

// A fresh mem-backend array for one sweep point. Every device transfer
// pays a fixed injected service latency so the array behaves like real
// disks: one writer is bounded by serial device waits, and extra writers
// gain throughput only if the pipeline overlaps independent stripes.
// Intra-op fan-out is disabled so all measured concurrency belongs to
// the pipeline and the result does not depend on the host's core count.
std::unique_ptr<raid::Raid6Array> make_sweep_array(int latency_us) {
  const size_t esize = 4 * 1024;
  const int64_t stripes = 128;
  raid::ArrayOptions opts;
  opts.device_factory = backend_device_factory("mem");
  opts.parallel_user_io = false;
  auto array = std::make_unique<raid::Raid6Array>(
      codes::make_layout("dcode", 7), esize, stripes, 0, nullptr,
      std::move(opts));
  Pcg32 rng(0x51EE6);
  std::vector<uint8_t> blob(static_cast<size_t>(array->capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array->write(0, blob);
  for (int d = 0; d < array->layout().cols(); ++d) {
    array->disk(d).faults().set_latency_ns(latency_us * 1000LL);
  }
  return array;
}

struct SweepResult {
  double iops = 0, p50 = 0, p99 = 0;
  int64_t errors = 0;
};

// One sweep point: `n` submitter threads, each holding up to kInFlight
// async ops, issuing 1:1 random 4K-aligned reads and writes through a
// StripePipeline with `n` executor workers. Latency per op comes from
// its completion future (complete - enqueue, coordinated-omission-free
// for a closed per-submitter window); IOPS from wall clock over the
// whole burst.
SweepResult run_writer_sweep_point(const HarnessConfig& cfg, int n) {
  constexpr int kInFlight = 4;
  auto array = make_sweep_array(cfg.writer_disk_latency_us);
  const size_t esize = array->element_size();
  const int64_t slots = array->capacity() / static_cast<int64_t>(esize);
  const int per_thread = (cfg.writer_ops + n - 1) / n;

  obs::Histogram hist(obs::latency_bounds_ns());
  std::atomic<int64_t> errors{0};
  const int64_t t0 = now_ns();
  {
    raid::PipelineOptions popts;
    popts.workers = n;
    popts.queue_depth = static_cast<size_t>(n) * 2 * kInFlight;
    raid::StripePipeline pipeline(*array, popts);

    auto submitter = [&](int id) {
      Pcg32 rng(0xD15C0 + static_cast<uint64_t>(id));
      std::vector<uint8_t> wbuf(esize);
      rng.fill_bytes(wbuf.data(), wbuf.size());
      // Read destinations rotate through kInFlight slots; the settle
      // below guarantees op i - kInFlight completed before slot reuse.
      std::vector<std::vector<uint8_t>> rbufs(
          kInFlight, std::vector<uint8_t>(esize));
      std::deque<raid::OpFuture> inflight;
      auto settle = [&](size_t keep) {
        while (inflight.size() > keep) {
          raid::OpFuture f = std::move(inflight.front());
          inflight.pop_front();
          if (!f.wait()) errors.fetch_add(1, std::memory_order_relaxed);
          hist.observe(f.latency_ns());
        }
      };
      for (int i = 0; i < per_thread; ++i) {
        settle(kInFlight - 1);
        const int64_t off =
            static_cast<int64_t>(rng.next_below(static_cast<uint32_t>(slots))) *
            static_cast<int64_t>(esize);
        if (rng.next_below(2) == 0) {
          inflight.push_back(pipeline.submit_write(
              off, std::span<const uint8_t>(wbuf.data(), esize)));
        } else {
          auto& dst = rbufs[static_cast<size_t>(i % kInFlight)];
          inflight.push_back(
              pipeline.submit_read(off, std::span<uint8_t>(dst.data(), esize)));
        }
      }
      settle(0);
    };

    std::vector<std::thread> submitters;
    submitters.reserve(static_cast<size_t>(n));
    for (int id = 0; id < n; ++id) submitters.emplace_back(submitter, id);
    for (auto& s : submitters) s.join();
  }  // pipeline drains and joins its workers here
  const int64_t t1 = now_ns();

  SweepResult r;
  const double wall_s = static_cast<double>(t1 - t0) / 1e9;
  r.iops = wall_s > 0
               ? static_cast<double>(per_thread) * n / wall_s
               : 0.0;
  r.p50 = hist.percentile(0.50);
  r.p99 = hist.percentile(0.99);
  r.errors = errors.load();
  return r;
}

void run_writer_sweep(const HarnessConfig& cfg, Telemetry& telemetry) {
  if (cfg.writer_threads.empty()) return;

  print_header(
      "Pipelined writer scaling (async submit, mem backend, mixed 4K random)",
      "Each point: N submitters x 4 in-flight async ops through a "
      "StripePipeline with N workers; every device transfer pays " +
          std::to_string(cfg.writer_disk_latency_us) +
          "us injected service latency, intra-op fan-out off. Scaling "
          "beyond 1.0x is concurrency the pipeline created by "
          "overlapping independent stripes.");

  TablePrinter table(
      {"writers", "IOPS", "scaling", "p50(us)", "p99(us)", "errs"});
  double base_iops = 0.0;
  for (int n : cfg.writer_threads) {
    SweepResult r = run_writer_sweep_point(cfg, n);
    if (base_iops <= 0.0) base_iops = r.iops;
    const double scaling = base_iops > 0 ? r.iops / base_iops : 0.0;
    table.add_row({std::to_string(n), format_double(r.iops, 0),
                   format_double(scaling, 2) + "x", format_us(r.p50),
                   format_us(r.p99), std::to_string(r.errors)});

    obs::Labels cell = {{"writer_threads", std::to_string(n)}};
    telemetry.add("pipeline_mixed_4k_iops", r.iops, cell);
    telemetry.add("pipeline_p50_ns", r.p50, cell);
    telemetry.add("pipeline_p99_ns", r.p99, cell);
    telemetry.add("pipeline_iops_scaling_x", scaling, cell);
  }
  table.print(std::cout);

  std::cout << "\nReading the table: IOPS should rise close to linearly "
               "while injected device waits dominate; p50/p99 stay near "
               "flat because the per-submitter in-flight window is "
               "constant — each op queues behind the same ~4 "
               "predecessors regardless of writer count.\n";
}

// --- sharded StoragePool sweep ---------------------------------------------

// Device budget per shard count: every sweep point spends roughly the
// same number of devices, so throughput differences come from how the
// logical space is sharded, not from extra hardware.
int shard_sweep_prime(int shards) {
  switch (shards) {
    case 1: return 13;  // 13 devices
    case 2: return 7;   // 14 devices
    case 3: return 5;   // 15 devices
    default: return 0;
  }
}

// A seeded mem-backend pool for one sweep point, every device transfer
// paying the injected service latency. Same conditions as the writer
// sweep: intra-op fan-out off, so measured concurrency belongs to the
// submitter threads, the shards' stripe locks and the pool's routing —
// not the host's cores.
std::unique_ptr<volume::StoragePool> make_sweep_pool(int shards, int prime,
                                                     int latency_us) {
  volume::ShardSpec spec;
  spec.prime = prime;
  spec.element_size = 4 * 1024;
  spec.stripes = 32;
  spec.threads = 0;  // engine pool sized to the hardware concurrency
  spec.array.device_factory = backend_device_factory("mem");
  spec.array.parallel_user_io = false;  // no intra-op engine fan-out

  volume::PoolOptions popts;
  // One stripe per chunk: always divides the shard capacity, and 4K ops
  // land on a single shard while larger spans still fan out.
  popts.chunk_bytes = static_cast<int64_t>(
      codes::make_layout(spec.code, prime)->data_count() * spec.element_size);

  auto pool = std::make_unique<volume::StoragePool>(spec, shards, popts);
  Pcg32 rng(0x500113);
  std::vector<uint8_t> blob(static_cast<size_t>(pool->capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  pool->write(0, blob);
  for (int s = 0; s < pool->shard_count(); ++s) {
    raid::Raid6Array& a = pool->shard_array(s);
    for (int d = 0; d < a.layout().cols(); ++d) {
      a.disk(d).faults().set_latency_ns(latency_us * 1000LL);
    }
  }
  return pool;
}

// One sweep point: cfg.threads submitters issue 1:1 random 4K-aligned
// reads and writes synchronously through the pool's routed path; each op
// runs on its submitter's thread, and each shard's admission range-lock
// lets disjoint ops that land on it run concurrently.
SweepResult run_shard_sweep_point(const HarnessConfig& cfg, int shards,
                                  int prime, obs::Histogram& hist) {
  auto pool = make_sweep_pool(shards, prime, cfg.writer_disk_latency_us);
  const int64_t esize = 4 * 1024;
  const int64_t slots = pool->capacity() / esize;
  const int n = cfg.threads;
  const int per_thread = (cfg.writer_ops + n - 1) / n;

  std::atomic<int64_t> errors{0};
  const int64_t t0 = now_ns();
  {
    std::vector<std::thread> submitters;
    submitters.reserve(static_cast<size_t>(n));
    for (int id = 0; id < n; ++id) {
      submitters.emplace_back([&, id] {
        Pcg32 rng(0x5AADD + static_cast<uint64_t>(id));
        std::vector<uint8_t> buf(static_cast<size_t>(esize));
        rng.fill_bytes(buf.data(), buf.size());
        for (int i = 0; i < per_thread; ++i) {
          const int64_t off =
              static_cast<int64_t>(
                  rng.next_below(static_cast<uint32_t>(slots))) *
              esize;
          const int64_t s0 = now_ns();
          try {
            if (rng.next_below(2) == 0) {
              pool->write(off, buf);
            } else {
              pool->read(off, buf);
            }
          } catch (...) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          hist.observe(now_ns() - s0);
        }
      });
    }
    for (auto& s : submitters) s.join();
  }
  const int64_t t1 = now_ns();

  SweepResult r;
  const double wall_s = static_cast<double>(t1 - t0) / 1e9;
  r.iops = wall_s > 0 ? static_cast<double>(per_thread) * n / wall_s : 0.0;
  r.p50 = hist.percentile(0.50);
  r.p99 = hist.percentile(0.99);
  r.errors = errors.load();
  return r;
}

void run_shard_sweep(const HarnessConfig& cfg, Telemetry& telemetry) {
  if (cfg.shards.empty()) return;

  print_header(
      "Sharded StoragePool scaling (fixed ~14-device budget, mixed 4K "
      "random)",
      "Each point reshapes the same device budget: 1 shard x p13 (13 "
      "devices), 2 x p7 (14), 3 x p5 (15). " +
          std::to_string(cfg.threads) +
          " submitters issue synchronous routed ops; every device "
          "transfer pays " +
          std::to_string(cfg.writer_disk_latency_us) +
          "us injected service latency. Gains come from independent "
          "per-shard arrays (stripe locks, journals), not extra "
          "hardware.");

  TablePrinter table({"shards", "prime", "devices", "IOPS", "scaling",
                      "p50(us)", "p99(us)", "errs"});
  double base_iops = 0.0;
  for (int shards : cfg.shards) {
    const int prime = shard_sweep_prime(shards);
    const int devices = shards * prime;
    obs::Histogram hist(obs::latency_bounds_ns());
    SweepResult r = run_shard_sweep_point(cfg, shards, prime, hist);
    if (base_iops <= 0.0) base_iops = r.iops;
    const double scaling = base_iops > 0 ? r.iops / base_iops : 0.0;
    table.add_row({std::to_string(shards), std::to_string(prime),
                   std::to_string(devices), format_double(r.iops, 0),
                   format_double(scaling, 2) + "x", format_us(r.p50),
                   format_us(r.p99), std::to_string(r.errors)});

    obs::Labels cell = {{"shards", std::to_string(shards)},
                        {"prime", std::to_string(prime)},
                        {"devices", std::to_string(devices)}};
    telemetry.add("pool_mixed_4k_iops", r.iops, cell);
    telemetry.add("pool_p50_ns", r.p50, cell);
    telemetry.add("pool_p99_ns", r.p99, cell);
    telemetry.add("pool_iops_scaling_x", scaling, cell);
  }
  table.print(std::cout);

  // Online capacity add: restripe rate with no injected device latency —
  // the raw background-migration bandwidth of the chunk copier.
  {
    auto pool = make_sweep_pool(3, shard_sweep_prime(3), /*latency_us=*/0);
    const int64_t moved_bytes =
        pool->capacity();  // 3 shards' chunks re-placed across 4
    const int64_t t0 = now_ns();
    pool->add_shard();
    const bool ok = pool->wait_for_restripe();
    const int64_t t1 = now_ns();
    const double wall_s = static_cast<double>(t1 - t0) / 1e9;
    const double mb_s =
        ok && wall_s > 0
            ? static_cast<double>(moved_bytes) / (1024.0 * 1024.0) / wall_s
            : 0.0;
    obs::Labels cell = {{"shards_before", "3"},
                        {"shards_after", "4"},
                        {"prime", "5"}};
    telemetry.add("pool_restripe_mb_s", mb_s, cell);
    std::cout << "\nOnline capacity add (3 -> 4 shards, p5, mem backend, "
                 "no injected latency): restriped "
              << format_double(static_cast<double>(moved_bytes) /
                                   (1024.0 * 1024.0),
                               1)
              << " MiB at " << format_double(mb_s, 0) << " MiB/s\n";
  }

  std::cout << "\nReading the table: IOPS should rise with shard count "
               "while injected device waits dominate — the budget is "
               "flat, but each shard brings its own journal and stripe "
               "locks, so independent ops stop contending.\n";
}

}  // namespace

int main(int argc, char** argv) {
  Telemetry telemetry("bench_load_harness", argc, argv);
  HarnessConfig cfg = parse_flags(argc, argv);

  print_header(
      "Open-loop tail-latency harness (dcode p=7, 64 stripes, 4KiB elements)",
      "Poisson arrivals at fixed offered rates; latency measured from the "
      "intended arrival (coordinated-omission-free). Percentiles are "
      "interpolated from the log-linear latency ladder.");

  TablePrinter table({"backend", "workload", "state", "offered/s", "achieved/s",
                      "p50(us)", "p90(us)", "p99(us)", "p999(us)", "max(us)",
                      "errs"});
  uint64_t seed = 0x10AD5EED;
  for (const auto& backend : cfg.backends) {
    for (const auto& workload : cfg.workloads) {
      for (const auto& state : cfg.states) {
        for (double rate : cfg.rates) {
          auto array = make_array(backend, state);
          auto ops = build_ops(workload, cfg.ops, rate, array->capacity(),
                               array->element_size(), seed++);
          CellResult r = run_cell(*array, ops, cfg.threads);
          if (state == "rebuilding") {
            // Unthrottle so teardown doesn't wait out the throttle.
            array->set_rebuild_rate(0.0);
            array->wait_for_rebuild();
          }

          table.add_row({backend, workload, state, format_double(rate, 0),
                         format_double(r.achieved_ops_s, 0), format_us(r.p50),
                         format_us(r.p90), format_us(r.p99), format_us(r.p999),
                         format_us(r.max), std::to_string(r.errors)});

          obs::Labels cell = {{"backend", backend},
                              {"workload", workload},
                              {"state", state},
                              {"rate_ops_s", format_double(rate, 0)}};
          telemetry.add("latency_p50_ns", r.p50, cell);
          telemetry.add("latency_p90_ns", r.p90, cell);
          telemetry.add("latency_p99_ns", r.p99, cell);
          telemetry.add("latency_p999_ns", r.p999, cell);
          telemetry.add("latency_max_ns", r.max, cell);
          telemetry.add("latency_mean_ns", r.mean, cell);
          telemetry.add("offered_ops_per_s", rate, cell);
          telemetry.add("achieved_ops_per_s", r.achieved_ops_s, cell);
          telemetry.add("op_errors", static_cast<double>(r.errors), cell);
        }
      }
    }
  }
  table.print(std::cout);

  std::cout << "\nReading the table: a cell whose achieved/s falls short of "
               "offered/s is saturated — its percentiles measure queueing "
               "under overload, not service latency. Degraded cells pay "
               "reconstruction reads; rebuilding cells additionally contend "
               "with the background worker's stripe locks.\n";

  run_writer_sweep(cfg, telemetry);
  run_shard_sweep(cfg, telemetry);

  telemetry.finish();
  return 0;
}

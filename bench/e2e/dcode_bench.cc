// dcode_bench: the end-to-end benchmark of the pool -> pipeline -> array
// -> engine -> device stack, plus a traced mode that splits one op's cost
// by layer. See bench/e2e/README.md for the metrics, the workloads and
// why each exists.
//
// Deployment (identical for every workload): a volume::StoragePool of
// 2 shards x D-Code p=7 (14 devices), 4 KiB elements, chunk = one
// stripe's data (35 elements), 2 pipeline workers and 1 engine thread per
// shard, default ArrayOptions (integrity + verify-on-read on) with the
// background rebuild enabled so hot-spare promotion rebuilds online.
//
// Load: closed loop, each client thread issues its next op only after the
// previous one returned (queue depth 1 per client), all clients in this
// process. Ops are generated from --seed; the pool only ever sees the
// generated offsets, lengths and payloads.
//
// Correctness: every 4 KiB block written carries a self-describing header
// (magic, block address, write stamp, key) and a payload derived from the
// key. A block is written by exactly one client (the generators enforce
// it), so the last acknowledged stamp of every block is known: 1 read in
// 64 is verified inline against it, and after the window every block is
// read back and pool.scrub_all() must find nothing.
//
// Usage:
//   dcode_bench --workload oltp-4k --seed 1 [--seconds 20] [--trace PATH]
//               [--disk-dir DIR] [--json PATH]
//   dcode_bench --smoke [--json PATH]
// Without --trace the last stdout line carries the end-to-end metrics;
// with it, the per-layer metrics (and the spans are written to PATH).
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "codes/decoder.h"
#include "codes/encoder.h"
#include "codes/stripe.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "raid/file_disk.h"
#include "raid/planner.h"
#include "sim/workload.h"
#include "util/rng.h"
#include "volume/storage_pool.h"
#include "xorops/checksum.h"
#include "xorops/isa.h"
#include "xorops/xor_region.h"

namespace {

using namespace dcode;
namespace fs = std::filesystem;

constexpr int kPrime = 7;
constexpr int kShards = 2;
constexpr size_t kBlock = 4096;  // element size = user block size
constexpr size_t kWords = kBlock / sizeof(uint64_t);
constexpr int kVerifyEvery = 64;  // inline-verified share of reads
constexpr double kMiB = 1024.0 * 1024.0;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_ns(int64_t t) {
  const int64_t d = t - now_ns();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

// Exact nearest-rank percentile of raw samples (sorted in place).
double percentile(std::vector<int64_t>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads

enum class Start { kZipf, kUniform, kSequential };

struct Workload {
  std::string name;
  int clients;
  bool file_backend;
  int64_t stripes;  // per shard
  double write_frac;
  int min_blocks, max_blocks;  // op length in 4 KiB blocks
  Start start;
  bool degraded;       // one failed disk per shard, no spares
  bool rebuild_cycles; // add spare + fail + wait, for the whole window
};

// Why each workload exists is in README.md; the names are cited by
// BENCHMARK.json and must not change.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"oltp-4k", 4, true, 512, 0.3, 1, 1, Start::kZipf, false, false},
      {"stream-64k", 4, false, 512, 0.5, 16, 16, Start::kSequential, false,
       false},
      {"degraded-read", 4, false, 512, 0.1, 1, 20, Start::kUniform, true,
       false},
      {"rebuild-mixed", 2, false, 1024, 0.5, 1, 20, Start::kUniform, false,
       true},
  };
  return w;
}

// The disk each shard loses on degraded-read (fixed, not seeded: D-Code
// columns are symmetric and a fixed choice keeps seeds comparable).
int degraded_disk(int shard) { return shard == 0 ? 1 : 4; }

struct Op {
  bool write = false;
  int64_t block = 0;
  int blocks = 1;
};

// One client's op stream. Writes only ever target blocks this client
// owns, so every block has a single writer and its last acknowledged
// stamp is exact: a zipf write goes to the client's own block (block %
// clients == client) of the group of `clients` blocks the draw landed in
// (same chunk, same stripe, so hot-chunk lock contention is kept); ranged
// writes go to the client's own region.
class OpGen {
 public:
  OpGen(const Workload& w, int client, int clients, int64_t blocks,
        const sim::ZipfianGenerator* zipf, uint64_t seed, uint64_t stream)
      : w_(w),
        client_(client),
        clients_(clients),
        blocks_(blocks),
        region_(blocks / clients),
        zipf_(zipf),
        rng_(seed, stream) {
    const int64_t slots = std::max<int64_t>(1, region_ / w.max_blocks);
    cursor_ = region_begin() +
              static_cast<int64_t>(rng_.next_below(static_cast<uint32_t>(slots))) *
                  w.max_blocks;
  }

  Op next() {
    Op op;
    op.write = rng_.next_double() < w_.write_frac;
    op.blocks = rng_.next_in_range(w_.min_blocks, w_.max_blocks);
    switch (w_.start) {
      case Start::kZipf: {
        int64_t b = zipf_->next(rng_);
        if (op.write) {
          b = b - b % clients_ + client_;
          if (b >= blocks_) b -= clients_;
        }
        op.block = b;
        break;
      }
      case Start::kUniform:
        op.block = op.write ? region_begin() + uniform(region_ - op.blocks + 1)
                            : uniform(blocks_ - op.blocks + 1);
        break;
      case Start::kSequential:
        if (cursor_ + op.blocks > region_begin() + region_) {
          cursor_ = region_begin();
        }
        op.block = cursor_;
        cursor_ += op.blocks;
        break;
    }
    return op;
  }

 private:
  int64_t region_begin() const { return client_ * region_; }
  int64_t uniform(int64_t n) {
    return static_cast<int64_t>(rng_.next_u64() % static_cast<uint64_t>(n));
  }

  const Workload& w_;
  int client_, clients_;
  int64_t blocks_, region_;
  const sim::ZipfianGenerator* zipf_;
  Pcg32 rng_;
  int64_t cursor_ = 0;
};

// ---------------------------------------------------------------------------
// Self-describing blocks and the per-block write record.

constexpr uint64_t kBlockMagic = 0x31484e4245444f44ULL;

uint64_t mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

class BlockBook {
 public:
  BlockBook(int64_t blocks, uint64_t seed)
      : blocks_(blocks),
        pattern_(kWords),
        acked_(new std::atomic<uint64_t>[static_cast<size_t>(blocks)]),
        issued_(new std::atomic<uint64_t>[static_cast<size_t>(blocks)]) {
    Pcg32 rng(seed, 0xb10c);
    for (uint64_t& w : pattern_) w = rng.next_u64();
    for (int64_t b = 0; b < blocks; ++b) {
      acked_[static_cast<size_t>(b)].store(0, std::memory_order_relaxed);
      issued_[static_cast<size_t>(b)].store(0, std::memory_order_relaxed);
    }
  }

  int64_t blocks() const { return blocks_; }

  void render(uint64_t* dst, int64_t block, uint64_t stamp) const {
    const uint64_t key = key_of(block, stamp);
    dst[0] = kBlockMagic;
    dst[1] = static_cast<uint64_t>(block);
    dst[2] = stamp;
    dst[3] = key;
    for (size_t i = 4; i < kWords; ++i) dst[i] = pattern_[i] ^ key;
  }

  // The stamp a well-formed copy of `block` carries; 0 when the bytes are
  // not a block this benchmark wrote at that address.
  uint64_t stamp_of(const uint64_t* src, int64_t block) const {
    if (src[0] != kBlockMagic || src[1] != static_cast<uint64_t>(block)) {
      return 0;
    }
    const uint64_t key = key_of(block, src[2]);
    if (src[3] != key) return 0;
    for (size_t i = 4; i < kWords; ++i) {
      if (src[i] != (pattern_[i] ^ key)) return 0;
    }
    return src[2];
  }

  // Stamps a write of [first, first + n) before it is submitted; the
  // blocks' issued stamps bound what a concurrent read may observe.
  uint64_t begin_write(int64_t first, int n) {
    const uint64_t stamp = next_.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) slot(issued_, first + i).store(stamp, std::memory_order_release);
    return stamp;
  }
  void end_write(int64_t first, int n, uint64_t stamp) {
    for (int i = 0; i < n; ++i) slot(acked_, first + i).store(stamp, std::memory_order_release);
  }
  uint64_t acked(int64_t b) const {
    return slot(acked_, b).load(std::memory_order_acquire);
  }
  uint64_t issued(int64_t b) const {
    return slot(issued_, b).load(std::memory_order_acquire);
  }

 private:
  using Slots = std::unique_ptr<std::atomic<uint64_t>[]>;
  static std::atomic<uint64_t>& slot(const Slots& s, int64_t b) {
    return s[static_cast<size_t>(b)];
  }
  static uint64_t key_of(int64_t block, uint64_t stamp) {
    return mix64(static_cast<uint64_t>(block) * 0x9e3779b97f4a7c15ULL ^ stamp);
  }

  int64_t blocks_;
  std::vector<uint64_t> pattern_;
  Slots acked_;
  Slots issued_;
  std::atomic<uint64_t> next_{1};
};

std::span<uint8_t> bytes_of(std::vector<uint64_t>& buf, int blocks) {
  return {reinterpret_cast<uint8_t*>(buf.data()),
          static_cast<size_t>(blocks) * kBlock};
}

// ---------------------------------------------------------------------------
// Spans: recorded by this file around each call into a layer, kept in
// memory and written out after every measurement has finished.

enum SpanName : uint16_t {
  kSpanClientRead,
  kSpanClientWrite,
  kSpanLadderPass,
  kSpanPool,
  kSpanPipeline,
  kSpanArrayRead,
  kSpanArrayWrite,
  kSpanPlanner,
  kSpanEngineRead,
  kSpanEngineReadNoVerify,
  kSpanEngineWrite,
  kSpanDeviceRead,
  kSpanDeviceWrite,
  kSpanNames,
};

const char* span_name(uint16_t n) {
  static const char* const names[kSpanNames] = {
      "client.read",      "client.write",      "ladder.pass",
      "volume.op",        "pipeline.op",       "array.read",
      "array.write",      "planner.plan",      "engine.read_batch",
      "engine.read_batch_noverify", "engine.write_batch", "device.read",
      "device.write"};
  return names[n];
}

struct SpanRec {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  int64_t start = 0;
  int64_t end = 0;
  int64_t items = 0;  // elements (engine/device) or blocks (client)
  uint16_t name = 0;
};

// ---------------------------------------------------------------------------
// Metrics as printed and as written to the last stdout line.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::string workload;
  bool traced = false;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  // Context printed beside the metrics (sample counts, sizes).
  std::vector<std::pair<std::string, int64_t>> counts;
};

// ---------------------------------------------------------------------------
// Window deltas of the pool's public obs::Registry metrics.

class RegistryDelta {
 public:
  RegistryDelta(const obs::RegistrySnapshot& before,
                const obs::RegistrySnapshot& after) {
    index(before, &before_);
    index(after, &after_);
  }

  int64_t counter(const std::string& name) const {
    return value(after_, name) - value(before_, name);
  }
  // Sum of shard<i>.<name> over the pool's shards.
  int64_t shard_counter(const std::string& name) const {
    int64_t n = 0;
    for (int s = 0; s < kShards; ++s) n += counter(shard_name(s, name));
    return n;
  }

  struct Hist {
    std::vector<int64_t> bounds;
    std::vector<int64_t> counts;
    int64_t count = 0;
    int64_t sum = 0;
    int64_t max = 0;
    double p99() const {
      return count > 0 ? obs::percentile_from_buckets(bounds, counts, 0.99, max)
                       : 0.0;
    }
    double mean() const { return safe_div(static_cast<double>(sum), count); }
  };
  // Window delta of the named histograms, merged (same bounds).
  Hist histogram(const std::vector<std::string>& names) const {
    Hist h;
    for (const std::string& name : names) {
      auto a = after_.find(name);
      if (a == after_.end()) continue;
      auto b = before_.find(name);
      if (h.bounds.empty()) {
        h.bounds = a->second->bounds;
        h.counts.assign(a->second->bucket_counts.size(), 0);
      }
      for (size_t i = 0; i < h.counts.size(); ++i) {
        h.counts[i] += a->second->bucket_counts[i] -
                       (b != before_.end() ? b->second->bucket_counts[i] : 0);
      }
      h.count += a->second->count - (b != before_.end() ? b->second->count : 0);
      h.sum += a->second->sum - (b != before_.end() ? b->second->sum : 0);
      h.max = std::max(h.max, a->second->max);
    }
    return h;
  }
  Hist shard_histogram(const std::string& name) const {
    std::vector<std::string> names;
    for (int s = 0; s < kShards; ++s) names.push_back(shard_name(s, name));
    return histogram(names);
  }

 private:
  using Index = std::map<std::string, const obs::MetricSnapshot*>;
  static std::string shard_name(int s, const std::string& name) {
    return "shard" + std::to_string(s) + "." + name;
  }
  // Unlabeled metrics only; labeled per-disk series are read from the
  // DiskHandles instead.
  static void index(const obs::RegistrySnapshot& snap, Index* out) {
    for (const obs::MetricSnapshot& m : snap.metrics) {
      if (m.labels.empty()) (*out)[m.name] = &m;
    }
  }
  static int64_t value(const Index& idx, const std::string& name) {
    auto it = idx.find(name);
    return it != idx.end() ? it->second->value : 0;
  }

  Index before_, after_;
};

// Cumulative DiskHandle counters of every device in the pool.
struct DiskTotals {
  int64_t element_reads = 0;
  int64_t element_writes = 0;
  int64_t bytes = 0;
  int64_t device_ops = 0;
  std::vector<int64_t> accesses;  // per device, shard-major
  std::vector<bool> failed;

  static DiskTotals of(volume::StoragePool& pool) {
    DiskTotals t;
    for (int s = 0; s < kShards; ++s) {
      raid::Raid6Array& a = pool.shard_array(s);
      const std::vector<int64_t> acc = a.per_disk_element_accesses();
      for (int d = 0; d < a.layout().cols(); ++d) {
        const raid::DiskHandle& h = a.disk(d);
        t.element_reads += h.reads();
        t.element_writes += h.writes();
        t.bytes += h.bytes_read() + h.bytes_written();
        t.device_ops += h.device_read_ops() + h.device_write_ops();
        t.accesses.push_back(acc[static_cast<size_t>(d)]);
        t.failed.push_back(h.failed());
      }
    }
    return t;
  }
};

// ---------------------------------------------------------------------------
// One workload run.

struct Settings {
  uint64_t seed = 1;
  double seconds = 20.0;
  double warmup = 2.0;
  bool traced = false;
  std::string trace_path;  // empty: keep the spans in memory only
  std::string disk_dir = "dcode_bench_disks";
  int setup_reps = 5;
  int ladder_ops = 20000;
  int64_t stripes = 0;  // 0: the workload's own size
  double slice = 0.5;   // window slice length, seconds
  int quiesced_rebuilds = 3;
  int kernel_iters = 20000;
};

class Run {
 public:
  Run(const Workload& w, const Settings& s)
      : w_(w),
        s_(s),
        clients_(std::max(
            1, std::min<int>(w.clients, static_cast<int>(
                                            std::thread::hardware_concurrency())))) {}

  Result execute();

 private:
  // A client's measured ops since the main thread last collected them.
  struct Samples {
    std::vector<int64_t> read_ns, write_ns;
    int64_t bytes = 0;
  };
  struct ClientStats {
    std::mutex mu;
    Samples fresh;  // guarded by mu
    // One span per traced op; a deque grows without copying, so a push
    // never stalls the client for longer than one block allocation.
    std::deque<SpanRec> spans;
    int64_t attempted = 0;
    int64_t failed = 0;
    int64_t traced_ops = 0;
    int64_t untraced_ops = 0;
  };
  // One window slice's end-to-end figures, exact over its raw samples.
  struct SliceStats {
    double ops_s, mb_s, read_p50, read_p99, write_p50, write_p99;
    int64_t reads, writes;
  };
  struct Cycle {
    int64_t start, end;
    bool ok;
  };

  int64_t stripes() const { return s_.stripes > 0 ? s_.stripes : w_.stripes; }
  int64_t chunk_bytes() const {
    return static_cast<int64_t>(layout_data_) * static_cast<int64_t>(kBlock);
  }
  volume::ShardSpec spec(const std::string& sidecar_dir) const;
  void setup();
  void fill();
  void window();
  void collect_slice(int64_t ns);
  void client_loop(int c);
  bool rebuild_cycle(const std::vector<int>& victims);
  void rebuild_operator();
  bool do_op(const Op& op, std::vector<uint64_t>& buf, bool verify,
             std::vector<uint64_t>& lo, int64_t& t0, int64_t& t1);
  void verify_all();
  void ladder();
  void quiesced_rebuilds();
  void kernels();
  void end_to_end_metrics();
  void layer_metrics();
  void write_spans() const;
  void remove_sidecar(const std::string& dir) const;
  void add(const std::string& name, double value, const std::string& unit) {
    r_.metrics.push_back({name, value, unit});
  }

  const Workload& w_;
  Settings s_;
  int clients_;
  int layout_data_ = 0;
  Result r_;

  std::unique_ptr<sim::ZipfianGenerator> zipf_;
  std::unique_ptr<BlockBook> book_;
  std::unique_ptr<volume::StoragePool> pool_;
  std::string sidecar_dir_;
  std::vector<double> setup_s_;

  std::atomic<int> phase_{0};  // 0 warm-up, 1 measured window, 2 stop
  std::atomic<bool> tracing_{false};
  std::vector<ClientStats> stats_;
  std::vector<Cycle> cycles_;
  int64_t window_start_ = 0, window_end_ = 0;
  // The window is cut into slices, collected as each one ends so the raw
  // samples held stay small (rss_mb does not grow with throughput).
  int64_t slices_ = 1, slice_ns_ = 1;
  std::vector<SliceStats> slice_stats_;
  int64_t traced_ns_ = 0, untraced_ns_ = 0;
  obs::RegistrySnapshot before_, after_;
  DiskTotals disks_before_, disks_after_;
  int64_t mismatches_ = 0;  // read-back blocks that failed verification

  // Traced-run products.
  std::vector<SpanRec> ladder_spans_;
  double plan_write_ratio_ = 0, plan_degraded_read_ratio_ = 0;
  std::vector<double> quiesced_mb_s_;
  double reads_per_rebuilt_ = 0;
  double encode_us_ = 0, decode_us_ = 0, checksum_gb_s_ = 0, xor_gb_s_ = 0;
};

void log_failure(const std::string& what) {
  static std::atomic<int> logged{0};
  if (logged.fetch_add(1, std::memory_order_relaxed) < 8) {
    std::cerr << "dcode_bench: " << what << "\n";
  }
}

volume::ShardSpec Run::spec(const std::string& sidecar_dir) const {
  volume::ShardSpec spec;
  spec.code = "dcode";
  spec.prime = kPrime;
  spec.element_size = kBlock;
  spec.stripes = stripes();
  spec.threads = 1;
  spec.array.background_rebuild = true;
  if (w_.file_backend) {
    const std::string dir = s_.disk_dir;
    spec.array.device_factory =
        [dir](int id, size_t size) -> std::unique_ptr<raid::BlockDevice> {
      static std::atomic<uint64_t> serial{0};
      std::string path = dir + "/disk-" + std::to_string(::getpid()) + "-" +
                         std::to_string(id) + "-" +
                         std::to_string(serial.fetch_add(1)) + ".img";
      return std::make_unique<raid::FileDisk>(
          id, size, std::move(path),
          raid::FileDisk::Options{.reuse = false, .unlink_on_close = true});
    };
    // StoragePool hands every shard the same ArrayOptions, so both shards'
    // disk N sidecars share <dir>/diskN.sum: the same syscalls as
    // per-shard files, on one inode per disk index. The benchmark never
    // reloads them.
    spec.array.integrity_sidecar_dir = sidecar_dir;
  } else {
    spec.array.device_factory = bench::backend_device_factory("mem");
  }
  return spec;
}

void Run::remove_sidecar(const std::string& dir) const {
  if (dir.empty()) return;
  std::error_code ec;
  fs::remove_all(dir, ec);
}

void Run::setup() {
  layout_data_ = codes::make_layout("dcode", kPrime)->data_count();
  const int64_t blocks = stripes() * layout_data_ * kShards;
  if (w_.start == Start::kZipf) {
    zipf_ = std::make_unique<sim::ZipfianGenerator>(blocks, 0.99);
  }
  if (w_.file_backend) fs::create_directories(s_.disk_dir);
  volume::PoolOptions po;
  po.chunk_bytes = chunk_bytes();
  po.pipeline.workers = 2;
  for (int rep = 0; rep < s_.setup_reps; ++rep) {
    pool_.reset();
    remove_sidecar(sidecar_dir_);
    sidecar_dir_.clear();
    if (w_.file_backend) {
      sidecar_dir_ = s_.disk_dir + "/sidecar-" + std::to_string(::getpid()) +
                     "-" + std::to_string(rep);
      fs::create_directories(sidecar_dir_);
    }
    book_ = std::make_unique<BlockBook>(blocks, s_.seed);
    const int64_t t0 = now_ns();
    pool_ = std::make_unique<volume::StoragePool>(spec(sidecar_dir_), kShards,
                                                  po);
    fill();
    setup_s_.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  if (w_.degraded) {
    for (int s = 0; s < kShards; ++s) {
      pool_->shard_array(s).fail_disk(degraded_disk(s));
    }
  }
}

// Writes every block once, one chunk (= one full stripe) per op.
void Run::fill() {
  const int64_t chunks = book_->blocks() / layout_data_;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < clients_; ++t) {
    threads.emplace_back([&] {
      std::vector<uint64_t> buf(static_cast<size_t>(layout_data_) * kWords);
      for (int64_t c; (c = next.fetch_add(1)) < chunks;) {
        const int64_t first = c * layout_data_;
        const uint64_t stamp = book_->begin_write(first, layout_data_);
        for (int i = 0; i < layout_data_; ++i) {
          book_->render(buf.data() + static_cast<size_t>(i) * kWords,
                        first + i, stamp);
        }
        try {
          pool_->write(first * static_cast<int64_t>(kBlock),
                       bytes_of(buf, layout_data_));
          book_->end_write(first, layout_data_, stamp);
        } catch (const std::exception& e) {
          log_failure(std::string("fill write failed: ") + e.what());
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  r_.attempted += chunks;
  r_.failed += errors.load();
}

// Runs one client op; [t0, t1] brackets the pool call alone, not the
// payload rendering or the verification around it.
bool Run::do_op(const Op& op, std::vector<uint64_t>& buf, bool verify,
                std::vector<uint64_t>& lo, int64_t& t0, int64_t& t1) {
  const int64_t offset = op.block * static_cast<int64_t>(kBlock);
  const std::span<uint8_t> bytes = bytes_of(buf, op.blocks);
  try {
    if (op.write) {
      const uint64_t stamp = book_->begin_write(op.block, op.blocks);
      for (int i = 0; i < op.blocks; ++i) {
        book_->render(buf.data() + static_cast<size_t>(i) * kWords,
                      op.block + i, stamp);
      }
      t0 = now_ns();
      pool_->write(offset, bytes);
      t1 = now_ns();
      book_->end_write(op.block, op.blocks, stamp);
      return true;
    }
    if (verify) {
      for (int i = 0; i < op.blocks; ++i) {
        lo[static_cast<size_t>(i)] = book_->acked(op.block + i);
      }
    }
    t0 = now_ns();
    pool_->read(offset, bytes);
    t1 = now_ns();
    if (!verify) return true;
    // The block may be older than no write acknowledged before the read
    // started, and newer than no write issued before it ended.
    for (int i = 0; i < op.blocks; ++i) {
      const int64_t b = op.block + i;
      const uint64_t st =
          book_->stamp_of(buf.data() + static_cast<size_t>(i) * kWords, b);
      if (st == 0 || st < lo[static_cast<size_t>(i)] || st > book_->issued(b)) {
        log_failure("inline read verification failed at block " +
                    std::to_string(b));
        return false;
      }
    }
    return true;
  } catch (const std::exception& e) {
    log_failure(std::string(op.write ? "write" : "read") + " failed: " +
                e.what());
    return false;
  }
}

void Run::client_loop(int c) {
  ClientStats& st = stats_[static_cast<size_t>(c)];
  OpGen gen(w_, c, clients_, book_->blocks(), zipf_.get(), s_.seed,
            static_cast<uint64_t>(c) + 1);
  std::vector<uint64_t> buf(static_cast<size_t>(w_.max_blocks) * kWords);
  std::vector<uint64_t> lo(static_cast<size_t>(w_.max_blocks));
  int64_t reads = 0;
  uint64_t serial = 0;
  for (;;) {
    const int ph = phase_.load(std::memory_order_acquire);
    if (ph == 2) break;
    const Op op = gen.next();
    const bool verify = !op.write && (reads++ % kVerifyEvery == 0);
    const bool traced = s_.traced && tracing_.load(std::memory_order_relaxed);
    int64_t t0 = 0, t1 = 0;
    const bool ok = do_op(op, buf, verify, lo, t0, t1);
    ++st.attempted;
    if (!ok) {
      ++st.failed;  // fails the run; its time may be unset
      continue;
    }
    // Only ops that started and ended inside the window are measured.
    if (ph != 1 || phase_.load(std::memory_order_acquire) != 1) continue;
    {
      std::lock_guard<std::mutex> lock(st.mu);
      (op.write ? st.fresh.write_ns : st.fresh.read_ns).push_back(t1 - t0);
      st.fresh.bytes += op.blocks * static_cast<int64_t>(kBlock);
    }
    if (!s_.traced) continue;
    if (!traced) {
      ++st.untraced_ops;
      continue;
    }
    ++st.traced_ops;
    const uint64_t id = (static_cast<uint64_t>(c) + 1) << 40 | serial++;
    st.spans.push_back({id, 0, id, t0, t1, op.blocks,
                        op.write ? kSpanClientWrite : kSpanClientRead});
  }
}

// One hot-spare rebuild cycle: a spare per shard, fail victims[s] on shard
// s, wait until both spares are rebuilt. fail_disk() can return before its
// spare is promoted (a foreground op that hits the failed disk first runs
// the promotion on its own thread), and wait_for_rebuilds() does not wait
// for a promotion in flight, so the cycle also waits until every victim's
// slot holds the spare (no longer failed).
bool Run::rebuild_cycle(const std::vector<int>& victims) {
  for (int s = 0; s < kShards; ++s) pool_->shard_array(s).add_hot_spares(1);
  for (int s = 0; s < kShards; ++s) {
    pool_->shard_array(s).fail_disk(victims[static_cast<size_t>(s)]);
  }
  const int64_t deadline = now_ns() + 30'000'000'000;
  for (;;) {
    bool promoted = true;
    for (int s = 0; s < kShards; ++s) {
      promoted = promoted && !pool_->shard_array(s)
                                  .disk(victims[static_cast<size_t>(s)])
                                  .failed();
    }
    if (promoted && pool_->wait_for_rebuilds()) return true;
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

// rebuild-mixed's background load: rebuild cycles failing the next disk
// on both shards, back to back until the window ends.
void Run::rebuild_operator() {
  const int cols = pool_->shard_array(0).layout().cols();
  for (int next = 0; phase_.load(std::memory_order_acquire) != 2; ++next) {
    Cycle cy{now_ns(), 0, false};
    try {
      cy.ok = rebuild_cycle(std::vector<int>(kShards, next % cols));
    } catch (const std::exception& e) {
      log_failure(std::string("rebuild cycle failed: ") + e.what());
    }
    if (!cy.ok) log_failure("rebuild cycle did not complete");
    cy.end = now_ns();
    cycles_.push_back(cy);
  }
}

// Takes what the clients measured since the last call as one slice of
// `ns` nanoseconds.
void Run::collect_slice(int64_t ns) {
  std::vector<int64_t> reads, writes;
  int64_t bytes = 0;
  for (ClientStats& st : stats_) {
    std::lock_guard<std::mutex> lock(st.mu);
    reads.insert(reads.end(), st.fresh.read_ns.begin(), st.fresh.read_ns.end());
    writes.insert(writes.end(), st.fresh.write_ns.begin(),
                  st.fresh.write_ns.end());
    bytes += st.fresh.bytes;
    st.fresh.read_ns.clear();
    st.fresh.write_ns.clear();
    st.fresh.bytes = 0;
  }
  const double secs = static_cast<double>(ns) * 1e-9;
  slice_stats_.push_back(
      {safe_div(static_cast<double>(reads.size() + writes.size()), secs),
       safe_div(static_cast<double>(bytes) / kMiB, secs),
       percentile(reads, 0.50) / 1e3, percentile(reads, 0.99) / 1e3,
       percentile(writes, 0.50) / 1e3, percentile(writes, 0.99) / 1e3,
       static_cast<int64_t>(reads.size()), static_cast<int64_t>(writes.size())});
}

void Run::window() {
  slices_ = std::max<int64_t>(1, std::llround(s_.seconds / s_.slice));
  slice_ns_ = std::max<int64_t>(
      1, static_cast<int64_t>(s_.seconds * 1e9) / slices_);
  stats_ = std::vector<ClientStats>(static_cast<size_t>(clients_));
  slice_stats_.clear();
  phase_.store(0);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients_; ++c) {
    threads.emplace_back(&Run::client_loop, this, c);
  }
  std::thread operator_thread;
  if (w_.rebuild_cycles) operator_thread = std::thread(&Run::rebuild_operator, this);

  sleep_until_ns(now_ns() + static_cast<int64_t>(s_.warmup * 1e9));
  before_ = obs::Registry::global().snapshot();
  disks_before_ = DiskTotals::of(*pool_);
  window_start_ = now_ns();
  phase_.store(1, std::memory_order_release);
  // Each slice is collected as it ends, the last one once the clients have
  // stopped. The traced run traces the even slices only, so the tracing
  // overhead is measured inside one run, under the same drift.
  int64_t begin = window_start_;
  for (int64_t k = 0; k < slices_; ++k) {
    const bool on = s_.traced && k % 2 == 0;
    tracing_.store(on, std::memory_order_relaxed);
    sleep_until_ns(window_start_ + (k + 1) * slice_ns_);
    const int64_t n = now_ns();
    if (s_.traced) (on ? traced_ns_ : untraced_ns_) += n - begin;
    if (k + 1 == slices_) {
      window_end_ = n;
      break;
    }
    collect_slice(n - begin);
    begin = n;
  }
  phase_.store(2, std::memory_order_release);
  after_ = obs::Registry::global().snapshot();
  disks_after_ = DiskTotals::of(*pool_);
  for (std::thread& t : threads) t.join();
  if (operator_thread.joinable()) operator_thread.join();
  collect_slice(window_end_ - begin);
  for (const ClientStats& st : stats_) {
    r_.attempted += st.attempted;
    r_.failed += st.failed;
  }
  if (!pool_->wait_for_rebuilds()) {
    log_failure("rebuild incomplete after the window");
    ++r_.failed;
  }
}

// Quiesced read-back of every block (must carry its last acknowledged
// stamp), then a full integrity scrub (must find nothing).
void Run::verify_all() {
  std::vector<uint64_t> buf(static_cast<size_t>(layout_data_) * kWords);
  for (int64_t first = 0; first < book_->blocks(); first += layout_data_) {
    ++r_.attempted;
    bool ok = true;
    try {
      pool_->read(first * static_cast<int64_t>(kBlock),
                  bytes_of(buf, layout_data_));
      for (int i = 0; i < layout_data_; ++i) {
        const int64_t b = first + i;
        const uint64_t st =
            book_->stamp_of(buf.data() + static_cast<size_t>(i) * kWords, b);
        if (st == 0 || st != book_->acked(b) || st != book_->issued(b)) {
          log_failure("read-back mismatch at block " + std::to_string(b));
          ++mismatches_;
          ok = false;
        }
      }
    } catch (const std::exception& e) {
      log_failure(std::string("read-back failed: ") + e.what());
      ok = false;
    }
    if (!ok) ++r_.failed;
  }
  ++r_.attempted;
  const int64_t inconsistent = pool_->scrub_all();
  if (inconsistent != 0) {
    log_failure("scrub found " + std::to_string(inconsistent) +
                " inconsistent stripes");
    ++r_.failed;
  }
}

// The latency ladder: ops sampled from the workload's own stream,
// replayed single-threaded on the quiesced pool at each layer's public
// entry point, one rung (pass) at a time. Writes store the bytes each
// block already holds, so the pool's contents and parity never change.
void Run::ladder() {
  struct Segment {
    int shard;
    int64_t offset;  // bytes within the shard
    int64_t len;
    size_t buf_off;
  };
  struct Step {
    Op op;
    std::vector<Segment> segs;
    std::vector<raid::IoPlan> plans;  // one per segment
  };

  const int64_t cb = chunk_bytes();
  std::vector<OpGen> gens;
  for (int c = 0; c < clients_; ++c) {
    gens.emplace_back(w_, c, clients_, book_->blocks(), zipf_.get(), s_.seed,
                      1000 + static_cast<uint64_t>(c));
  }
  std::vector<Step> steps(static_cast<size_t>(s_.ladder_ops));
  for (size_t i = 0; i < steps.size(); ++i) {
    Step& st = steps[i];
    st.op = gens[i % gens.size()].next();
    // The pool's documented routing: chunk c -> shard c % N at byte
    // offset (c / N) * chunk_bytes.
    const int64_t off = st.op.block * static_cast<int64_t>(kBlock);
    const int64_t len = st.op.blocks * static_cast<int64_t>(kBlock);
    for (int64_t c = off / cb; c <= (off + len - 1) / cb; ++c) {
      const int64_t begin = std::max(off, c * cb);
      const int64_t end = std::min(off + len, (c + 1) * cb);
      st.segs.push_back({static_cast<int>(c % kShards),
                         (c / kShards) * cb + (begin - c * cb), end - begin,
                         static_cast<size_t>(begin - off)});
    }
    st.plans.resize(st.segs.size());
  }

  std::vector<int> failed[kShards];
  for (int s = 0; s < kShards; ++s) {
    const raid::Raid6Array& a = pool_->shard_array(s);
    for (int d = 0; d < a.layout().cols(); ++d) {
      if (a.disk(d).failed()) failed[s].push_back(d);
    }
  }
  const codes::CodeLayout& layout = pool_->shard_array(0).layout();
  const raid::AddressMap map(layout);
  const raid::IoPlanner planner(map);

  std::vector<uint64_t> buf(static_cast<size_t>(w_.max_blocks) * kWords);
  const size_t max_elems = static_cast<size_t>(layout.rows() * layout.cols());
  std::vector<uint8_t> rscratch(max_elems * kBlock), wscratch(max_elems * kBlock);

  uint64_t next_id = uint64_t{1} << 62;
  auto record = [&](uint16_t name, uint64_t parent, size_t op, int64_t t0,
                    int64_t t1, int64_t items) {
    ladder_spans_.push_back({++next_id, parent, static_cast<uint64_t>(op), t0,
                             t1, items, name});
  };
  auto pass = [&](const std::function<void(Step&, size_t, uint64_t)>& body) {
    const uint64_t id = ++next_id;
    const int64_t t0 = now_ns();
    for (size_t i = 0; i < steps.size(); ++i) body(steps[i], i, id);
    ladder_spans_.push_back({id, 0, 0, t0, now_ns(),
                             static_cast<int64_t>(steps.size()),
                             kSpanLadderPass});
  };
  auto render_current = [&](const Op& op) {
    for (int i = 0; i < op.blocks; ++i) {
      book_->render(buf.data() + static_cast<size_t>(i) * kWords, op.block + i,
                    book_->acked(op.block + i));
    }
  };
  auto check_current = [&](const Op& op) {
    for (int i = 0; i < op.blocks; ++i) {
      const int64_t b = op.block + i;
      if (book_->stamp_of(buf.data() + static_cast<size_t>(i) * kWords, b) !=
          book_->acked(b)) {
        log_failure("ladder read mismatch at block " + std::to_string(b));
        ++mismatches_;
        ++r_.failed;
      }
    }
  };
  auto bytes = [&](const Op& op) { return bytes_of(buf, op.blocks); };

  // Rung: StoragePool::read/write.
  pass([&](Step& st, size_t i, uint64_t parent) {
    const int64_t off = st.op.block * static_cast<int64_t>(kBlock);
    if (st.op.write) render_current(st.op);
    const int64_t t0 = now_ns();
    if (st.op.write) {
      pool_->write(off, bytes(st.op));
    } else {
      pool_->read(off, bytes(st.op));
    }
    record(kSpanPool, parent, i, t0, now_ns(), st.op.blocks);
    if (!st.op.write) check_current(st.op);
  });

  // Rung: StripePipeline::submit_*().get(), the pool's fan-out without
  // its chunk locks.
  pass([&](Step& st, size_t i, uint64_t parent) {
    if (st.op.write) render_current(st.op);
    const std::span<uint8_t> b = bytes(st.op);
    const int64_t t0 = now_ns();
    std::vector<raid::OpFuture> futures;
    for (const Segment& g : st.segs) {
      raid::StripePipeline& p = pool_->shard_pipeline(g.shard);
      const std::span<uint8_t> part =
          b.subspan(g.buf_off, static_cast<size_t>(g.len));
      futures.push_back(st.op.write ? p.submit_write(g.offset, part)
                                    : p.submit_read(g.offset, part));
    }
    for (raid::OpFuture& f : futures) f.get();
    record(kSpanPipeline, parent, i, t0, now_ns(), st.op.blocks);
    if (!st.op.write) check_current(st.op);
  });

  // Rung: Raid6Array::read/write.
  pass([&](Step& st, size_t i, uint64_t parent) {
    if (st.op.write) render_current(st.op);
    const std::span<uint8_t> b = bytes(st.op);
    const int64_t t0 = now_ns();
    for (const Segment& g : st.segs) {
      raid::Raid6Array& a = pool_->shard_array(g.shard);
      const std::span<uint8_t> part =
          b.subspan(g.buf_off, static_cast<size_t>(g.len));
      if (st.op.write) {
        a.write(g.offset, part);
      } else {
        a.read(g.offset, part);
      }
    }
    record(st.op.write ? kSpanArrayWrite : kSpanArrayRead, parent, i, t0,
           now_ns(), st.op.blocks);
    if (!st.op.write) check_current(st.op);
  });

  // Rung: IoPlanner::plan_* (the plans feed the two rungs below).
  auto plan = [&](const Segment& g, bool write) {
    const int64_t start = g.offset / static_cast<int64_t>(kBlock);
    const int len = static_cast<int>(g.len / static_cast<int64_t>(kBlock));
    const std::vector<int>& f = failed[g.shard];
    if (write) {
      return f.empty() ? planner.plan_write(start, len)
                       : planner.plan_degraded_write(start, len, f);
    }
    return f.empty() ? planner.plan_read(start, len)
                     : planner.plan_degraded_read(start, len, f);
  };
  pass([&](Step& st, size_t i, uint64_t parent) {
    const int64_t t0 = now_ns();
    for (size_t j = 0; j < st.segs.size(); ++j) {
      st.plans[j] = plan(st.segs[j], st.op.write);
    }
    record(kSpanPlanner, parent, i, t0, now_ns(), st.op.blocks);
  });

  // Rung: StripeIoEngine::read_batch/write_batch over each plan; the
  // verify-off read alternates order with the verified one so cache
  // warmth does not bias the verify cost.
  pass([&](Step& st, size_t i, uint64_t parent) {
    for (size_t j = 0; j < st.segs.size(); ++j) {
      raid::StripeIoEngine& eng =
          pool_->shard_array(st.segs[j].shard).io_engine();
      std::vector<raid::StripeIoEngine::ReadOp> rops, targets;
      std::vector<raid::StripeIoEngine::WriteOp> wops;
      for (const raid::IoAccess& a : st.plans[j].accesses) {
        if (a.is_write) {
          uint8_t* p = wscratch.data() + wops.size() * kBlock;
          targets.push_back({a.disk, a.stripe, a.element.row, p});
          wops.push_back({a.disk, a.stripe, a.element.row, p});
        } else {
          rops.push_back({a.disk, a.stripe, a.element.row,
                          rscratch.data() + rops.size() * kBlock});
        }
      }
      if (!targets.empty()) eng.read_batch(targets, false);
      auto timed_read = [&](bool verify) {
        const int64_t t0 = now_ns();
        eng.read_batch(rops, verify);
        record(verify ? kSpanEngineRead : kSpanEngineReadNoVerify, parent, i,
               t0, now_ns(), static_cast<int64_t>(rops.size()));
      };
      if (!rops.empty()) {
        timed_read(i % 2 == 0);
        timed_read(i % 2 != 0);
      }
      if (!wops.empty()) {
        const int64_t t0 = now_ns();
        eng.write_batch(wops);
        record(kSpanEngineWrite, parent, i, t0, now_ns(),
               static_cast<int64_t>(wops.size()));
      }
    }
  });

  // Rung: the DiskHandle backdoor, one element per call.
  pass([&](Step& st, size_t i, uint64_t parent) {
    for (size_t j = 0; j < st.segs.size(); ++j) {
      raid::Raid6Array& a = pool_->shard_array(st.segs[j].shard);
      auto offset = [&](const raid::IoAccess& x) {
        return (static_cast<uint64_t>(x.stripe) *
                    static_cast<uint64_t>(layout.rows()) +
                static_cast<uint64_t>(x.element.row)) *
               kBlock;
      };
      std::vector<const raid::IoAccess*> reads, writes;
      for (const raid::IoAccess& x : st.plans[j].accesses) {
        (x.is_write ? writes : reads).push_back(&x);
      }
      for (size_t k = 0; k < writes.size(); ++k) {
        a.disk(writes[k]->disk)
            .read(offset(*writes[k]), {wscratch.data() + k * kBlock, kBlock});
      }
      if (!reads.empty()) {
        const int64_t t0 = now_ns();
        for (size_t k = 0; k < reads.size(); ++k) {
          a.disk(reads[k]->disk)
              .read(offset(*reads[k]), {rscratch.data() + k * kBlock, kBlock});
        }
        record(kSpanDeviceRead, parent, i, t0, now_ns(),
               static_cast<int64_t>(reads.size()));
      }
      if (!writes.empty()) {
        const int64_t t0 = now_ns();
        for (size_t k = 0; k < writes.size(); ++k) {
          a.disk(writes[k]->disk)
              .write(offset(*writes[k]), {wscratch.data() + k * kBlock, kBlock});
        }
        record(kSpanDeviceWrite, parent, i, t0, now_ns(),
               static_cast<int64_t>(writes.size()));
      }
    }
  });

  // Exact IoPlan access counts of the sampled ops (untimed): writes as
  // planned above; reads as degraded reads with one failed disk (the
  // workload's own on degraded-read, disk 0 elsewhere).
  int64_t write_accesses = 0, write_elems = 0, dread_accesses = 0,
          read_elems = 0;
  for (const Step& st : steps) {
    for (size_t j = 0; j < st.segs.size(); ++j) {
      const Segment& g = st.segs[j];
      const int len = static_cast<int>(g.len / static_cast<int64_t>(kBlock));
      if (st.op.write) {
        write_accesses += st.plans[j].total();
        write_elems += len;
      } else {
        const std::vector<int> f =
            failed[g.shard].empty() ? std::vector<int>{0} : failed[g.shard];
        dread_accesses += planner
                              .plan_degraded_read(
                                  g.offset / static_cast<int64_t>(kBlock), len,
                                  f)
                              .reads();
        read_elems += len;
      }
    }
  }
  plan_write_ratio_ = safe_div(static_cast<double>(write_accesses),
                               static_cast<double>(write_elems));
  plan_degraded_read_ratio_ = safe_div(static_cast<double>(dread_accesses),
                                       static_cast<double>(read_elems));
}

// Hot-spare rebuild cycles on the quiesced pool: reconstructed device
// bytes per second and element reads per reconstructed element.
void Run::quiesced_rebuilds() {
  obs::Registry& reg = obs::Registry::global();
  auto reconstructed = [&] {
    int64_t n = 0;
    for (int s = 0; s < kShards; ++s) {
      n += reg.counter("shard" + std::to_string(s) +
                       ".raid.elements_reconstructed")
               .value();
    }
    return n;
  };
  const int cols = pool_->shard_array(0).layout().cols();
  const double rebuilt_mib =
      static_cast<double>(kShards * pool_->shard_array(0).disk(0).size()) /
      kMiB;
  std::vector<double> ratios;
  for (int k = 0; k < s_.quiesced_rebuilds; ++k) {
    std::vector<int> victims;
    for (int s = 0; s < kShards; ++s) {
      const raid::Raid6Array& a = pool_->shard_array(s);
      int d = k;
      while (a.disk(d % cols).failed()) ++d;
      victims.push_back(d % cols);
    }
    const DiskTotals before = DiskTotals::of(*pool_);
    const int64_t recon_before = reconstructed();
    const int64_t t0 = now_ns();
    ++r_.attempted;
    try {
      if (!rebuild_cycle(victims)) {
        log_failure("quiesced rebuild did not complete");
        ++r_.failed;
      }
    } catch (const std::exception& e) {
      log_failure(std::string("quiesced rebuild failed: ") + e.what());
      ++r_.failed;
    }
    const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
    quiesced_mb_s_.push_back(safe_div(rebuilt_mib, secs));
    const DiskTotals after = DiskTotals::of(*pool_);
    ratios.push_back(
        safe_div(static_cast<double>(after.element_reads - before.element_reads),
                 static_cast<double>(reconstructed() - recon_before)));
  }
  reads_per_rebuilt_ = median(ratios);
}

// Keeps the timed kernel results observable.
volatile uint64_t g_kernel_sink = 0;

// Kernel rates below the engine: stripe encode/decode and the 4 KiB
// checksum and XOR kernels. Median of five timed batches.
void Run::kernels() {
  auto ns_per_call = [](int iters, const std::function<void()>& fn) {
    std::vector<double> batches;
    for (int b = 0; b < 5; ++b) {
      const int64_t t0 = now_ns();
      for (int i = 0; i < iters; ++i) fn();
      batches.push_back(static_cast<double>(now_ns() - t0) /
                        std::max(1, iters));
    }
    return median(batches);
  };
  const auto layout = codes::make_layout("dcode", kPrime);
  codes::Stripe stripe(*layout, kBlock);
  Pcg32 rng(s_.seed, 0xc0de);
  stripe.randomize_data(rng);
  codes::encode_stripe(stripe);
  const int stripe_iters = std::max(1, s_.kernel_iters / 10);
  encode_us_ =
      ns_per_call(stripe_iters, [&] { codes::encode_stripe(stripe); }) / 1e3;
  std::vector<std::vector<codes::Element>> lost;
  for (int c = 0; c < layout->cols(); ++c) {
    const int disks[] = {c};
    lost.push_back(codes::elements_of_disks(*layout, disks));
  }
  size_t col = 0;
  bool decoded = true;
  decode_us_ = ns_per_call(stripe_iters, [&] {
                 decoded &= codes::hybrid_decode(stripe, lost[col]).success;
                 col = (col + 1) % lost.size();
               }) /
               1e3;
  if (!decoded) {
    log_failure("kernel decode failed");
    ++r_.failed;
  }

  std::vector<uint8_t> a(kBlock), b(kBlock);
  rng.fill_bytes(a.data(), a.size());
  rng.fill_bytes(b.data(), b.size());
  uint64_t sink = 0;
  checksum_gb_s_ = kBlock / ns_per_call(s_.kernel_iters, [&] {
                     sink ^= xorops::checksum64(a.data(), kBlock);
                   });
  xor_gb_s_ = kBlock / ns_per_call(s_.kernel_iters, [&] {
                xorops::xor_into(a.data(), b.data(), kBlock);
              });
  g_kernel_sink = sink ^ a[0];
}

double peak_rss_mib() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Each rate and percentile is exact per window slice, over the slice's raw
// samples, and a metric reports its median over the slices: a few seconds
// of interference from outside the process do not move it.
void Run::end_to_end_metrics() {
  auto over_slices = [&](double SliceStats::*field) {
    std::vector<double> v;
    for (const SliceStats& s : slice_stats_) v.push_back(s.*field);
    return median(v);
  };
  int64_t read_samples = 0, write_samples = 0;
  int64_t min_reads = INT64_MAX, min_writes = INT64_MAX;
  for (const SliceStats& s : slice_stats_) {
    read_samples += s.reads;
    write_samples += s.writes;
    min_reads = std::min(min_reads, s.reads);
    min_writes = std::min(min_writes, s.writes);
  }
  add("ops_s", over_slices(&SliceStats::ops_s), "ops/s");
  add("mb_s", over_slices(&SliceStats::mb_s), "MiB/s");
  add("read_p50_us", over_slices(&SliceStats::read_p50), "us");
  add("read_p99_us", over_slices(&SliceStats::read_p99), "us");
  add("write_p50_us", over_slices(&SliceStats::write_p50), "us");
  add("write_p99_us", over_slices(&SliceStats::write_p99), "us");
  add("setup_s", median(setup_s_), "s");
  add("rss_mb", peak_rss_mib(), "MiB");
  r_.counts.push_back({"window_slices", slices_});
  r_.counts.push_back({"read_samples", read_samples});
  r_.counts.push_back({"write_samples", write_samples});
  r_.counts.push_back({"min_read_samples_per_slice", min_reads});
  r_.counts.push_back({"min_write_samples_per_slice", min_writes});
}

void Run::layer_metrics() {
  const RegistryDelta d(before_, after_);
  std::array<double, kSpanNames> dur{}, items{};
  std::array<int64_t, kSpanNames> count{};
  for (const SpanRec& sp : ladder_spans_) {
    dur[sp.name] += static_cast<double>(sp.end - sp.start);
    items[sp.name] += static_cast<double>(sp.items);
    ++count[sp.name];
  }
  const double n = static_cast<double>(std::max<int64_t>(1, s_.ladder_ops));
  auto per_op = [&](SpanName s) { return dur[s] / n; };
  const double t_pool = per_op(kSpanPool);
  const double t_pipe = per_op(kSpanPipeline);
  const double t_array = per_op(kSpanArrayRead) + per_op(kSpanArrayWrite);
  const double t_plan = per_op(kSpanPlanner);
  const double t_engine = per_op(kSpanEngineRead) + per_op(kSpanEngineWrite);
  const double t_verify =
      per_op(kSpanEngineRead) - per_op(kSpanEngineReadNoVerify);
  const double t_device = per_op(kSpanDeviceRead) + per_op(kSpanDeviceWrite);
  // Self time: a rung minus the rungs it calls. Clamped at zero for the
  // sum, so a rung below costing more than the rung above shows as a
  // sum over 100%.
  const double self_volume = t_pool - t_pipe;
  const double self_pipeline = t_pipe - t_array;
  const double self_array = t_array - t_plan - t_engine;
  const double self_engine = t_engine - t_verify - t_device;
  auto pos = [](double v) { return std::max(0.0, v); };
  const double self_sum = pos(self_volume) + pos(self_pipeline) +
                          pos(self_array) + t_plan + pos(self_engine) +
                          pos(t_verify) + t_device;

  const int64_t pool_reads = d.counter("pool.reads");
  const int64_t pool_writes = d.counter("pool.writes");
  const double user_bytes = static_cast<double>(d.counter("pool.read_bytes") +
                                                d.counter("pool.written_bytes"));
  const double elements =
      static_cast<double>(disks_after_.element_reads - disks_before_.element_reads +
                          disks_after_.element_writes - disks_before_.element_writes);
  const double device_ops =
      static_cast<double>(disks_after_.device_ops - disks_before_.device_ops);
  double lf_max = 0, lf_min = 0;
  bool lf_first = true;
  for (size_t i = 0; i < disks_after_.accesses.size(); ++i) {
    if (disks_after_.failed[i]) continue;
    const double v = static_cast<double>(disks_after_.accesses[i] -
                                         disks_before_.accesses[i]);
    lf_max = lf_first ? v : std::max(lf_max, v);
    lf_min = lf_first ? v : std::min(lf_min, v);
    lf_first = false;
  }
  std::vector<double> window_cycles;
  for (const Cycle& c : cycles_) {
    if (c.ok && c.start >= window_start_ && c.end <= window_end_) {
      window_cycles.push_back(
          safe_div(static_cast<double>(kShards *
                                       pool_->shard_array(0).disk(0).size()) /
                       kMiB,
                   static_cast<double>(c.end - c.start) * 1e-9));
    }
  }
  int64_t traced_ops = 0, untraced_ops = 0;
  for (const ClientStats& st : stats_) {
    traced_ops += st.traced_ops;
    untraced_ops += st.untraced_ops;
  }
  const double traced_rate =
      safe_div(static_cast<double>(traced_ops), static_cast<double>(traced_ns_));
  const double untraced_rate = safe_div(static_cast<double>(untraced_ops),
                                        static_cast<double>(untraced_ns_));

  add("volume.op_us", t_pool / 1e3, "us");
  add("volume.self_us", self_volume / 1e3, "us");
  add("volume.chunk_lock_wait_p99_us",
      d.histogram({"pool.chunk_lock_wait_ns"}).p99() / 1e3, "us");
  add("volume.op_fanout_mean", d.histogram({"pool.op_fanout"}).mean(), "ratio");
  add("pipeline.op_us", t_pipe / 1e3, "us");
  add("pipeline.self_us", self_pipeline / 1e3, "us");
  add("pipeline.admission_wait_p99_us",
      d.shard_histogram("pipeline.admission_wait_ns").p99() / 1e3, "us");
  add("pipeline.merge_ratio",
      safe_div(static_cast<double>(d.shard_counter("pipeline.writes_merged")),
               static_cast<double>(pool_writes)),
      "ratio");
  add("array.read_us", safe_div(dur[kSpanArrayRead], count[kSpanArrayRead]) / 1e3,
      "us");
  add("array.write_us",
      safe_div(dur[kSpanArrayWrite], count[kSpanArrayWrite]) / 1e3, "us");
  add("array.self_us", self_array / 1e3, "us");
  add("array.stripe_lock_wait_p99_us",
      d.shard_histogram("raid.stripe_lock_wait_ns").p99() / 1e3, "us");
  add("array.reconstructed_per_read",
      safe_div(static_cast<double>(d.shard_counter("raid.elements_reconstructed")),
               static_cast<double>(d.shard_counter("raid.reads") +
                                   d.shard_counter("raid.degraded_reads"))),
      "ratio");
  add("array.integrity_fallbacks",
      static_cast<double>(d.shard_counter("raid.integrity.read_fallbacks")),
      "count");
  add("planner.plan_ns", t_plan, "ns");
  add("planner.write_elements_per_user_element", plan_write_ratio_, "ratio");
  add("planner.degraded_read_elements_per_user_element",
      plan_degraded_read_ratio_, "ratio");
  add("planner.load_lf", safe_div(lf_max, lf_min), "ratio");
  add("engine.read_ns_per_element",
      safe_div(dur[kSpanEngineRead], items[kSpanEngineRead]), "ns");
  add("engine.write_ns_per_element",
      safe_div(dur[kSpanEngineWrite], items[kSpanEngineWrite]), "ns");
  add("engine.verify_ns_per_element",
      safe_div(dur[kSpanEngineRead] - dur[kSpanEngineReadNoVerify],
               items[kSpanEngineRead]),
      "ns");
  add("engine.self_us", self_engine / 1e3, "us");
  add("engine.elements_per_device_op", safe_div(elements, device_ops), "ratio");
  add("engine.device_bytes_per_user_byte",
      safe_div(static_cast<double>(disks_after_.bytes - disks_before_.bytes),
               user_bytes),
      "ratio");
  add("engine.transient_retries",
      static_cast<double>(d.shard_counter("raid.engine.transient_retries")),
      "count");
  add("device.read_us",
      safe_div(dur[kSpanDeviceRead], items[kSpanDeviceRead]) / 1e3, "us");
  add("device.write_us",
      safe_div(dur[kSpanDeviceWrite], items[kSpanDeviceWrite]) / 1e3, "us");
  add("device.ops_per_user_op",
      safe_div(device_ops, static_cast<double>(pool_reads + pool_writes)),
      "ratio");
  add("codes.encode_stripe_us", encode_us_, "us");
  add("codes.decode_one_column_us", decode_us_, "us");
  add("xorops.checksum_gb_s", checksum_gb_s_, "GB/s");
  add("xorops.xor_gb_s", xor_gb_s_, "GB/s");
  add("rebuild_mb_s",
      w_.rebuild_cycles ? median(window_cycles) : median(quiesced_mb_s_),
      "MiB/s");
  add("rebuild.reads_per_rebuilt_element", reads_per_rebuilt_, "ratio");
  add("obs.trace_overhead_pct",
      100.0 * (1.0 - safe_div(traced_rate, untraced_rate)), "%");
  add("ladder.self_sum_pct", 100.0 * safe_div(self_sum, t_pool), "%");
  r_.counts.push_back({"ladder_ops", s_.ladder_ops});
  r_.counts.push_back({"rebuild_cycles_in_window",
                       static_cast<int64_t>(window_cycles.size())});
}

void Run::write_spans() const {
  if (s_.trace_path.empty()) return;
  std::ofstream out(s_.trace_path);
  if (!out) {
    log_failure("cannot write spans to " + s_.trace_path);
    return;
  }
  out << "id,name,start_ns,end_ns,parent,op,items\n";
  auto emit = [&](const SpanRec& s) {
    out << s.id << ',' << span_name(s.name) << ',' << s.start << ',' << s.end
        << ',' << s.parent << ',' << s.op << ',' << s.items << '\n';
  };
  for (const ClientStats& st : stats_) {
    for (const SpanRec& s : st.spans) emit(s);
  }
  for (const SpanRec& s : ladder_spans_) emit(s);
}

Result Run::execute() {
  r_.workload = w_.name;
  r_.traced = s_.traced;
  try {
    setup();
    window();
    verify_all();
    if (s_.traced) {
      ladder();
      quiesced_rebuilds();
      kernels();
      verify_all();
    }
  } catch (const std::exception& e) {
    log_failure(std::string("run aborted: ") + e.what());
    ++r_.attempted;
    ++r_.failed;
  }
  if (s_.traced) {
    layer_metrics();
    add("error_rate",
        safe_div(static_cast<double>(r_.failed), static_cast<double>(r_.attempted)),
        "ratio");
    int64_t client_spans = 0;
    for (const ClientStats& st : stats_) {
      client_spans += static_cast<int64_t>(st.spans.size());
    }
    r_.counts.push_back({"client_spans", client_spans});
  } else {
    end_to_end_metrics();
  }
  r_.counts.push_back({"readback_mismatches", mismatches_});
  r_.correct = r_.failed == 0;
  write_spans();
  pool_.reset();
  remove_sidecar(sidecar_dir_);
  if (w_.file_backend) {
    std::error_code ec;
    fs::remove(s_.disk_dir, ec);  // only if empty
  }
  return r_;
}

// ---------------------------------------------------------------------------
// Output

struct Host {
  unsigned nproc = std::thread::hardware_concurrency();
  std::string isa = xorops::isa_name(xorops::active_isa());
  std::string build_type = DCODE_BENCH_BUILD_TYPE;
#if defined(__clang__)
  std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  std::string compiler = "gcc " __VERSION__;
#else
  std::string compiler = "unknown";
#endif
};

std::string telemetry_metric(const std::string& name) {
  std::string out = name;
  std::replace(out.begin(), out.end(), '.', '_');
  return out;
}

void report(const Result& r, const Workload& w, const Settings& s,
            const Host& host, bench::Telemetry& telemetry) {
  const std::string backend = w.file_backend ? "file" : "mem";
  std::cout << "\n== dcode_bench " << r.workload << " (seed " << s.seed
            << ", " << s.seconds << " s window, "
            << (r.traced ? "traced: per-layer" : "untraced: end-to-end")
            << ") ==\n";
  std::cout << "host: nproc=" << host.nproc << " isa=" << host.isa
            << " backend=" << backend << " build=" << host.build_type
            << " compiler=" << host.compiler << "\n";
  const obs::Labels base = {{"workload", r.workload},
                            {"seed", std::to_string(s.seed)},
                            {"kind", r.traced ? "per_layer" : "end_to_end"}};
  for (const Metric& m : r.metrics) {
    std::cout << "  " << std::left << std::setw(48) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << m.unit << "\n";
    obs::Labels l = base;
    l.emplace_back("name", m.name);
    l.emplace_back("unit", m.unit);
    telemetry.add(telemetry_metric(m.name), m.value, l);
  }
  for (const auto& [name, v] : r.counts) {
    std::cout << "  " << name << "=" << v << "\n";
  }
  std::cout << "  correct=" << (r.correct ? "yes" : "NO")
            << " attempted=" << r.attempted << " failed=" << r.failed << "\n";
  obs::Labels counts = base;
  counts.emplace_back("unit", "count");
  telemetry.add("attempted", static_cast<double>(r.attempted), counts);
  telemetry.add("failed", static_cast<double>(r.failed), counts);
  obs::Labels hl = base;
  hl.insert(hl.end(), {{"isa", host.isa},
                       {"backend", backend},
                       {"build_type", host.build_type},
                       {"compiler", host.compiler}});
  telemetry.add("host_nproc", host.nproc, hl);
}

// The machine-read summary: the last line of stdout.
void print_summary(bool correct, int64_t attempted, int64_t failed,
                   const std::vector<Metric>& metrics) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << os.str() << std::endl;
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "dcode_bench: " << error << "\n"
            << "usage: dcode_bench --workload NAME --seed N [--seconds S] "
               "[--trace SPANS_PATH] [--disk-dir DIR] [--json PATH]\n"
               "       dcode_bench --smoke [--json PATH]\n"
               "workloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed threshold keeps glibc from raising it after the first large
  // free: device-sized buffers stay mmapped and go back to the OS when a
  // pool is torn down or a disk replaced, so rss_mb counts live memory
  // rather than heap retained across set-ups and rebuild cycles.
  ::mallopt(M_MMAP_THRESHOLD, 1 << 20);
  bench::Telemetry telemetry("bench_dcode_e2e", argc, argv);
  Settings s;
  std::string workload;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        workload = value();
      } else if (a == "--seed") {
        s.seed = std::stoull(value());
      } else if (a == "--seconds") {
        s.seconds = std::stod(value());
      } else if (a == "--trace") {
        s.traced = true;
        s.trace_path = value();
      } else if (a == "--disk-dir") {
        s.disk_dir = value();
      } else if (a == "--smoke") {
        smoke = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!(s.seconds > 0.0 && s.seconds <= 600.0)) usage("--seconds out of range");
  const Host host;

  if (smoke) {
    // Every workload, untraced then traced, on a 16-stripe pool.
    s.seconds = 0.1;
    s.warmup = 0.03;
    s.setup_reps = 1;
    s.ladder_ops = 100;
    s.stripes = 16;
    s.slice = 0.025;
    s.quiesced_rebuilds = 1;
    s.kernel_iters = 200;
    s.trace_path.clear();
    bool correct = true;
    int64_t attempted = 0, failed = 0;
    for (const Workload& w : workloads()) {
      for (bool traced : {false, true}) {
        Settings ws = s;
        ws.traced = traced;
        const Result r = Run(w, ws).execute();
        report(r, w, ws, host, telemetry);
        correct &= r.correct;
        attempted += r.attempted;
        failed += r.failed;
      }
    }
    telemetry.finish();
    print_summary(correct, attempted, failed, {});
    return correct ? 0 : 1;
  }

  const auto it = std::find_if(workloads().begin(), workloads().end(),
                               [&](const Workload& w) { return w.name == workload; });
  if (it == workloads().end()) usage("unknown or missing --workload");
  const Result r = Run(*it, s).execute();
  report(r, *it, s, host, telemetry);
  telemetry.finish();
  print_summary(r.correct, r.attempted, r.failed, r.metrics);
  return r.correct ? 0 : 1;
}

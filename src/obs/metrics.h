// Low-overhead metrics for the runtime layers (see docs/observability.md).
//
// The D-Code paper's whole argument is about where I/O lands, so the
// runtime must be able to answer "how many ops / bytes / element accesses
// happened, and how long did they take" without perturbing the result.
// Design constraints, in order:
//
//   1. Hot-path cost: one relaxed atomic add on a cache-line-padded,
//      per-thread shard. Threads hash to shards by a thread-local id, so
//      concurrent writers on different cores never bounce a line between
//      them. Reads (value(), snapshot()) sum the shards — reading is the
//      rare operation and pays the aggregation.
//   2. TSan-clean: everything is std::atomic; snapshots taken while
//      writers are mid-increment are torn only across *different*
//      metrics, never within one shard cell.
//   3. No dependencies above the standard library, so every layer
//      (util's ThreadPool included) can link against it.
//
// Counter    — monotonic int64 (ops, bytes, element accesses).
// Gauge      — settable int64 with add/sub and a CAS update_max, for
//              levels and high-water marks.
// Histogram  — fixed upper-bound buckets (inclusive, ascending) plus an
//              overflow bucket, a running sum, and an exact maximum;
//              latencies and sizes. percentile(q) interpolates within
//              the owning bucket, so the log-linear latency ladder reads
//              out p50/p99/p999 with sub-bucket resolution.
// Registry   — names -> metrics, with optional key=value labels; hands
//              out stable references and serializes the whole set as a
//              text table, JSON, or Prometheus exposition format.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dcode::obs {

// Label set attached to a metric, e.g. {{"disk", "3"}}. Order is
// preserved and significant for identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
// Shard count is a power of two fixed at process start (>= hardware
// concurrency, capped so per-metric memory stays bounded).
int shard_count();
// Stable shard index for the calling thread, in [0, shard_count()).
int this_thread_shard();

struct alignas(64) ShardCell {
  std::atomic<int64_t> v{0};
};
}  // namespace detail

class Counter {
 public:
  Counter();
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(int64_t n = 1) {
    shards_[static_cast<size_t>(detail::this_thread_shard())].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  int64_t value() const;
  // Zeroes every shard. Not atomic with respect to concurrent inc();
  // meant for test setup and bench warmup boundaries.
  void reset();

 private:
  std::unique_ptr<detail::ShardCell[]> shards_;
};

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  // Monotonic high-water update: max(current, v).
  void update_max(int64_t v) {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

class Histogram {
 public:
  // `bounds` are ascending inclusive upper bounds; observations above the
  // last bound land in an implicit overflow bucket.
  explicit Histogram(std::vector<int64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(int64_t v) {
    size_t b = bucket_for(v);
    auto* row = cells_.get() +
                static_cast<size_t>(detail::this_thread_shard()) * stride_;
    row[b].fetch_add(1, std::memory_order_relaxed);
    row[sum_slot_].fetch_add(v, std::memory_order_relaxed);
    auto& mx = row[max_slot_];
    int64_t cur = mx.load(std::memory_order_relaxed);
    while (cur < v &&
           !mx.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  const std::vector<int64_t>& bounds() const { return bounds_; }
  // Per-bucket counts; size bounds().size() + 1, last is overflow.
  std::vector<int64_t> bucket_counts() const;
  int64_t count() const;
  int64_t sum() const;
  // Largest observed value (exact, not bucket-rounded); 0 when empty.
  // Observations are assumed non-negative (latencies, sizes).
  int64_t max_value() const;
  // Quantile estimate with linear interpolation inside the owning bucket;
  // q in [0,1]. The overflow bucket interpolates toward max_value(), so
  // p999/max stay meaningful even past the last bound. 0 when empty.
  double percentile(double q) const;
  void reset();

 private:
  size_t bucket_for(int64_t v) const {
    // Short ladders (sizes, fan-out: tens of bounds) take a
    // branch-predictable linear scan, which beats binary search for the
    // typical low buckets; the latency ladder (192 bounds) goes through
    // the search.
    if (bounds_.size() > 32) {
      return static_cast<size_t>(
          std::lower_bound(bounds_.begin(), bounds_.end(), v) -
          bounds_.begin());
    }
    for (size_t i = 0; i < bounds_.size(); ++i) {
      if (v <= bounds_[i]) return i;
    }
    return bounds_.size();
  }

  std::vector<int64_t> bounds_;
  size_t sum_slot_;  // index of the sum cell within a shard row
  size_t max_slot_;  // index of the max cell within a shard row
  size_t stride_;    // cells per shard row, cache-line multiple
  std::unique_ptr<std::atomic<int64_t>[]> cells_;
};

// Convenience bucket ladders.
std::vector<int64_t> exponential_bounds(int64_t start, double factor,
                                        int count);
// Log-linear ladder: `sub` equal-width buckets per power-of-two octave
// from `min` (inclusive) up past `max`. Relative quantile error is
// bounded by ~1/sub anywhere in the range.
std::vector<int64_t> log_linear_bounds(int64_t min, int64_t max, int sub);
// The latency ladder (nanoseconds), shared by every latency and wait
// histogram: 8 sub-buckets per octave, 192 bounds from ~1.15 us to
// 2^34 ns (~17.2 s), so p50/p99/p999 read out to within ~1/8.
const std::vector<int64_t>& latency_bounds_ns();
// 512B .. 16MiB in x4 steps — the size ladder (bytes).
const std::vector<int64_t>& size_bounds_bytes();

// Quantile from a (bounds, bucket_counts) pair as found in a
// MetricSnapshot; linear interpolation within the owning bucket. The
// overflow bucket (counts.size() == bounds.size() + 1) interpolates
// between the last bound and `max_value` when a positive one is given.
double percentile_from_buckets(const std::vector<int64_t>& bounds,
                               const std::vector<int64_t>& counts, double q,
                               int64_t max_value = 0);

// A point-in-time copy of one metric, produced by Registry::snapshot().
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  Labels labels;
  std::string help;
  int64_t value = 0;  // counter / gauge
  // Histogram only:
  std::vector<int64_t> bounds;
  std::vector<int64_t> bucket_counts;  // bounds.size() + 1 (overflow last)
  int64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;  // exact largest observation

  // Histogram quantile via percentile_from_buckets; 0 for other kinds.
  double percentile(double q) const;
};

struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide default registry the library layers register into.
  static Registry& global();

  // Namespaced view: a child Registry whose registrations land in this
  // registry (the root) with `prefix` prepended to every metric name, so
  // a layer can hand each sub-component its own registry without string
  // concatenation at call sites — e.g. a pool hands shard 3 the view
  // `root.namespaced("shard3.")` and the shard's `raid.reads` shows up
  // as `shard3.raid.reads` in the root.
  //
  // Semantics:
  //   - counter/gauge/histogram delegate to the root under the prefixed
  //     name; the same (prefixed name, labels) from root or child yields
  //     the same metric object.
  //   - snapshot()/write_*/size()/reset() on a child see only metrics in
  //     its namespace (names keep the full prefix in expositions).
  //   - add_collector/remove_collector delegate to the root: collectors
  //     run on any snapshot, root or child.
  //   - namespaced() nests: child.namespaced("x.") prefixes "<child>x.".
  //   - The returned reference is owned by the root and lives as long as
  //     the root; calling with the same prefix returns the same child.
  Registry& namespaced(const std::string& prefix);

  // Full name prefix of this view ("" for a root registry).
  const std::string& prefix() const { return prefix_; }

  // Get-or-create. Re-registering the same (name, labels) returns the
  // same object; re-registering under a different kind (or different
  // histogram bounds) throws.
  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = "");
  Histogram& histogram(const std::string& name, std::vector<int64_t> bounds,
                       const Labels& labels = {},
                       const std::string& help = "");

  // Collectors run at the start of every snapshot()/exposition call, so
  // pull-style sources (e.g. per-disk cumulative counters held by a
  // Raid6Array) can refresh gauges just-in-time. Collectors must only
  // touch metric handles they already hold — registering new metrics
  // from inside a collector deadlocks.
  using CollectorId = uint64_t;
  CollectorId add_collector(std::function<void()> fn);
  void remove_collector(CollectorId id);

  RegistrySnapshot snapshot() const;

  // Exposition formats: aligned text table (humans), JSON (tooling, the
  // bench telemetry's runtime_metrics section), and Prometheus text
  // format (scrapers; dots in names become underscores).
  void write_text(std::ostream& os) const;
  void write_json(std::ostream& os) const;
  void write_prometheus(std::ostream& os) const;

  // Zeroes every metric (shards and gauges). Same caveat as
  // Counter::reset(); for tests and bench phase boundaries.
  void reset();

  size_t size() const;

 private:
  struct Entry {
    MetricSnapshot::Kind kind;
    std::string name;
    Labels labels;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  // Child-view constructor used by namespaced().
  Registry(Registry* root, std::string prefix);

  Entry& find_or_create(MetricSnapshot::Kind kind, const std::string& name,
                        const Labels& labels, const std::string& help);
  static std::string key_of(const std::string& name, const Labels& labels);
  bool in_namespace(const std::string& name) const;

  // Null for a root registry; the owning root for a namespaced view.
  Registry* root_ = nullptr;
  std::string prefix_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // stable addresses
  std::map<std::string, Entry*> index_;
  std::map<CollectorId, std::function<void()>> collectors_;
  CollectorId next_collector_id_ = 1;
  // Child views keyed by full prefix, owned by the root (guarded by mu_).
  std::map<std::string, std::unique_ptr<Registry>> children_;
};

}  // namespace dcode::obs

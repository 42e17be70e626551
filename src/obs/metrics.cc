#include "obs/metrics.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "obs/json_writer.h"

namespace dcode::obs {

namespace detail {

namespace {
int compute_shard_count() {
  unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  int n = 1;
  while (n < static_cast<int>(hw) && n < 64) n <<= 1;
  return n;
}
}  // namespace

int shard_count() {
  static const int n = compute_shard_count();
  return n;
}

int this_thread_shard() {
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) & (shard_count() - 1);
  return shard;
}

}  // namespace detail

// --- Counter ---------------------------------------------------------------

Counter::Counter()
    : shards_(new detail::ShardCell[static_cast<size_t>(
          detail::shard_count())]) {}

int64_t Counter::value() const {
  int64_t total = 0;
  for (int i = 0; i < detail::shard_count(); ++i) {
    total += shards_[static_cast<size_t>(i)].v.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() {
  for (int i = 0; i < detail::shard_count(); ++i) {
    shards_[static_cast<size_t>(i)].v.store(0, std::memory_order_relaxed);
  }
}

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<int64_t> bounds) : bounds_(std::move(bounds)) {
  for (size_t i = 0; i + 1 < bounds_.size(); ++i) {
    if (bounds_[i] >= bounds_[i + 1]) {
      throw std::invalid_argument(
          "histogram bounds must be strictly ascending");
    }
  }
  // Shard row: one cell per bucket, one overflow, one sum, one max —
  // rounded up to a cache line (8 int64s) so rows never share a line.
  sum_slot_ = bounds_.size() + 1;
  max_slot_ = sum_slot_ + 1;
  stride_ = ((max_slot_ + 1) + 7) & ~size_t{7};
  size_t cells = stride_ * static_cast<size_t>(detail::shard_count());
  cells_.reset(new std::atomic<int64_t>[cells]);
  for (size_t i = 0; i < cells; ++i) {
    cells_[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<int64_t> Histogram::bucket_counts() const {
  std::vector<int64_t> out(bounds_.size() + 1, 0);
  for (int s = 0; s < detail::shard_count(); ++s) {
    const auto* row = cells_.get() + static_cast<size_t>(s) * stride_;
    for (size_t b = 0; b < out.size(); ++b) {
      out[b] += row[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

int64_t Histogram::count() const {
  int64_t total = 0;
  for (int64_t c : bucket_counts()) total += c;
  return total;
}

int64_t Histogram::sum() const {
  int64_t total = 0;
  for (int s = 0; s < detail::shard_count(); ++s) {
    total += cells_[static_cast<size_t>(s) * stride_ + sum_slot_].load(
        std::memory_order_relaxed);
  }
  return total;
}

int64_t Histogram::max_value() const {
  int64_t mx = 0;
  for (int s = 0; s < detail::shard_count(); ++s) {
    mx = std::max(mx, cells_[static_cast<size_t>(s) * stride_ + max_slot_]
                          .load(std::memory_order_relaxed));
  }
  return mx;
}

double Histogram::percentile(double q) const {
  return percentile_from_buckets(bounds_, bucket_counts(), q, max_value());
}

void Histogram::reset() {
  size_t cells = stride_ * static_cast<size_t>(detail::shard_count());
  for (size_t i = 0; i < cells; ++i) {
    cells_[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<int64_t> exponential_bounds(int64_t start, double factor,
                                        int count) {
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(count));
  double v = static_cast<double>(start);
  int64_t prev = 0;
  for (int i = 0; i < count; ++i) {
    int64_t b = static_cast<int64_t>(v);
    if (b <= prev) b = prev + 1;  // keep strictly ascending after rounding
    out.push_back(b);
    prev = b;
    v *= factor;
  }
  return out;
}

std::vector<int64_t> log_linear_bounds(int64_t min, int64_t max, int sub) {
  std::vector<int64_t> out;
  // Each octave [base, 2*base) is split into `sub` equal-width buckets;
  // bounds are the buckets' inclusive upper edges. Widths double per
  // octave, so relative resolution is constant (~1/sub) across the range.
  for (int64_t base = min; base <= max; base *= 2) {
    int64_t width = base / sub;
    if (width < 1) width = 1;
    for (int i = 1; i <= sub; ++i) {
      int64_t b = base + i * width;
      if (i == sub) b = base * 2;  // close the octave exactly
      if (out.empty() || b > out.back()) out.push_back(b);
    }
  }
  return out;
}

const std::vector<int64_t>& latency_bounds_ns() {
  // 24 octaves x 8 = 192 bounds: 1152 ns (~1.15 us) .. 2^34 ns (~17.2 s).
  static const std::vector<int64_t> bounds =
      log_linear_bounds(1'024, int64_t{1} << 33, 8);
  return bounds;
}

double percentile_from_buckets(const std::vector<int64_t>& bounds,
                               const std::vector<int64_t>& counts, double q,
                               int64_t max_value) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank target with interpolation: the q-quantile sits `target`
  // observations into the cumulative distribution.
  double target = q * static_cast<double>(total);
  int64_t cum = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    double before = static_cast<double>(cum);
    cum += counts[b];
    if (static_cast<double>(cum) < target) continue;
    double lo = b == 0 ? 0.0 : static_cast<double>(bounds[b - 1]);
    double hi;
    if (b < bounds.size()) {
      hi = static_cast<double>(bounds[b]);
    } else {
      // Overflow bucket: stretch toward the exact max when known,
      // otherwise pin to the last bound (the best the ladder can say).
      hi = max_value > 0 ? static_cast<double>(max_value) : lo;
    }
    double frac = counts[b] > 0
                      ? (target - before) / static_cast<double>(counts[b])
                      : 1.0;
    if (frac < 0.0) frac = 0.0;
    if (frac > 1.0) frac = 1.0;
    double v = lo + frac * (hi - lo);
    // An exact max bounds every quantile from above.
    if (max_value > 0 && v > static_cast<double>(max_value)) {
      v = static_cast<double>(max_value);
    }
    return v;
  }
  return max_value > 0 ? static_cast<double>(max_value) : 0.0;
}

double MetricSnapshot::percentile(double q) const {
  if (kind != Kind::kHistogram) return 0.0;
  return percentile_from_buckets(bounds, bucket_counts, q, max);
}

const std::vector<int64_t>& size_bounds_bytes() {
  static const std::vector<int64_t> bounds =
      exponential_bounds(512, 4.0, 9);  // 512B .. 16MiB
  return bounds;
}

// --- Registry --------------------------------------------------------------

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: outlives static teardown
  return *r;
}

Registry::Registry(Registry* root, std::string prefix)
    : root_(root), prefix_(std::move(prefix)) {}

Registry& Registry::namespaced(const std::string& prefix) {
  // All views hang off the root so nesting composes by concatenation and
  // ownership stays in one place.
  Registry& root = root_ ? *root_ : *this;
  std::string full = prefix_ + prefix;
  std::lock_guard<std::mutex> lock(root.mu_);
  auto it = root.children_.find(full);
  if (it == root.children_.end()) {
    it = root.children_
             .emplace(full, std::unique_ptr<Registry>(
                                new Registry(&root, full)))
             .first;
  }
  return *it->second;
}

bool Registry::in_namespace(const std::string& name) const {
  return name.size() >= prefix_.size() &&
         name.compare(0, prefix_.size(), prefix_) == 0;
}

std::string Registry::key_of(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\0';
    key += k;
    key += '\0';
    key += v;
  }
  return key;
}

Registry::Entry& Registry::find_or_create(MetricSnapshot::Kind kind,
                                          const std::string& name,
                                          const Labels& labels,
                                          const std::string& help) {
  std::string key = key_of(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    if (it->second->kind != kind) {
      throw std::logic_error("metric '" + name +
                             "' re-registered with a different kind");
    }
    return *it->second;
  }
  auto entry = std::make_unique<Entry>();
  entry->kind = kind;
  entry->name = name;
  entry->labels = labels;
  entry->help = help;
  Entry& ref = *entry;
  entries_.push_back(std::move(entry));
  index_.emplace(std::move(key), &ref);
  return ref;
}

Counter& Registry::counter(const std::string& name, const Labels& labels,
                           const std::string& help) {
  if (root_) return root_->counter(prefix_ + name, labels, help);
  Entry& e = find_or_create(MetricSnapshot::Kind::kCounter, name, labels,
                            help);
  if (!e.counter) e.counter = std::unique_ptr<Counter>(new Counter());
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels,
                       const std::string& help) {
  if (root_) return root_->gauge(prefix_ + name, labels, help);
  Entry& e = find_or_create(MetricSnapshot::Kind::kGauge, name, labels, help);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<int64_t> bounds,
                               const Labels& labels, const std::string& help) {
  if (root_) {
    return root_->histogram(prefix_ + name, std::move(bounds), labels, help);
  }
  Entry& e = find_or_create(MetricSnapshot::Kind::kHistogram, name, labels,
                            help);
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
  } else if (e.histogram->bounds() != bounds) {
    throw std::logic_error("histogram '" + name +
                           "' re-registered with different bounds");
  }
  return *e.histogram;
}

Registry::CollectorId Registry::add_collector(std::function<void()> fn) {
  if (root_) return root_->add_collector(std::move(fn));
  std::lock_guard<std::mutex> lock(mu_);
  CollectorId id = next_collector_id_++;
  collectors_.emplace(id, std::move(fn));
  return id;
}

void Registry::remove_collector(CollectorId id) {
  if (root_) {
    root_->remove_collector(id);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.erase(id);
}

size_t Registry::size() const {
  if (root_) {
    std::lock_guard<std::mutex> lock(root_->mu_);
    size_t n = 0;
    for (const auto& e : root_->entries_) {
      if (in_namespace(e->name)) ++n;
    }
    return n;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

RegistrySnapshot Registry::snapshot() const {
  if (root_) {
    // Runs every root collector (shared state refreshes regardless of
    // which view is snapshotted), then keeps only this namespace.
    RegistrySnapshot all = root_->snapshot();
    RegistrySnapshot snap;
    for (auto& m : all.metrics) {
      if (in_namespace(m.name)) snap.metrics.push_back(std::move(m));
    }
    return snap;
  }
  // Run collectors outside the lock: they update gauges (atomic) and may
  // not touch registration, so this only races benignly with writers.
  std::vector<std::function<void()>> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    collectors.reserve(collectors_.size());
    for (const auto& [id, fn] : collectors_) collectors.push_back(fn);
  }
  for (const auto& fn : collectors) fn();

  RegistrySnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.metrics.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSnapshot m;
    m.kind = e->kind;
    m.name = e->name;
    m.labels = e->labels;
    m.help = e->help;
    switch (e->kind) {
      case MetricSnapshot::Kind::kCounter:
        m.value = e->counter->value();
        break;
      case MetricSnapshot::Kind::kGauge:
        m.value = e->gauge->value();
        break;
      case MetricSnapshot::Kind::kHistogram:
        m.bounds = e->histogram->bounds();
        m.bucket_counts = e->histogram->bucket_counts();
        m.sum = e->histogram->sum();
        m.max = e->histogram->max_value();
        m.count = 0;
        for (int64_t c : m.bucket_counts) m.count += c;
        break;
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

void Registry::reset() {
  Registry& root = root_ ? *root_ : *this;
  std::lock_guard<std::mutex> lock(root.mu_);
  for (const auto& e : root.entries_) {
    if (root_ && !in_namespace(e->name)) continue;
    switch (e->kind) {
      case MetricSnapshot::Kind::kCounter: e->counter->reset(); break;
      case MetricSnapshot::Kind::kGauge: e->gauge->reset(); break;
      case MetricSnapshot::Kind::kHistogram: e->histogram->reset(); break;
    }
  }
}

namespace {

std::string label_suffix(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += labels[i].first;
    out += '=';
    out += labels[i].second;
  }
  out += '}';
  return out;
}

const char* kind_name(MetricSnapshot::Kind k) {
  switch (k) {
    case MetricSnapshot::Kind::kCounter: return "counter";
    case MetricSnapshot::Kind::kGauge: return "gauge";
    case MetricSnapshot::Kind::kHistogram: return "histogram";
  }
  return "?";
}

// Prometheus metric names allow [a-zA-Z0-9_:]; dots map to underscores.
std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

void Registry::write_text(std::ostream& os) const {
  RegistrySnapshot snap = snapshot();
  size_t name_w = 4;
  for (const auto& m : snap.metrics) {
    name_w = std::max(name_w, m.name.size() + label_suffix(m.labels).size());
  }
  for (const auto& m : snap.metrics) {
    std::string display = m.name + label_suffix(m.labels);
    os << display << std::string(name_w - display.size() + 2, ' ');
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
      case MetricSnapshot::Kind::kGauge:
        os << m.value;
        break;
      case MetricSnapshot::Kind::kHistogram: {
        os << "count=" << m.count << " sum=" << m.sum;
        if (m.count > 0) {
          os << " buckets[";
          bool first = true;
          for (size_t b = 0; b < m.bucket_counts.size(); ++b) {
            if (m.bucket_counts[b] == 0) continue;
            if (!first) os << ' ';
            first = false;
            if (b < m.bounds.size()) {
              os << "le" << m.bounds[b];
            } else {
              os << "inf";
            }
            os << ':' << m.bucket_counts[b];
          }
          os << ']';
        }
        break;
      }
    }
    os << '\n';
  }
}

void Registry::write_json(std::ostream& os) const {
  RegistrySnapshot snap = snapshot();
  JsonWriter w(os);
  w.begin_object();
  w.key("metrics").begin_array();
  for (const auto& m : snap.metrics) {
    w.begin_object();
    w.key("name").value(m.name);
    w.key("type").value(kind_name(m.kind));
    if (!m.labels.empty()) {
      w.key("labels").begin_object();
      for (const auto& [k, v] : m.labels) w.key(k).value(v);
      w.end_object();
    }
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
      case MetricSnapshot::Kind::kGauge:
        w.key("value").value(m.value);
        break;
      case MetricSnapshot::Kind::kHistogram:
        w.key("count").value(m.count);
        w.key("sum").value(m.sum);
        w.key("max").value(m.max);
        w.key("buckets").begin_array();
        for (size_t b = 0; b < m.bucket_counts.size(); ++b) {
          w.begin_object();
          if (b < m.bounds.size()) {
            w.key("le").value(m.bounds[b]);
          } else {
            w.key("le").value("inf");
          }
          w.key("count").value(m.bucket_counts[b]);
          w.end_object();
        }
        w.end_array();
        break;
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void Registry::write_prometheus(std::ostream& os) const {
  RegistrySnapshot snap = snapshot();
  auto labels_block = [](const Labels& labels) {
    if (labels.empty()) return std::string();
    std::string out = "{";
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i) out += ',';
      out += prom_name(labels[i].first);
      out += "=\"";
      out += json_escape(labels[i].second);
      out += '"';
    }
    out += '}';
    return out;
  };
  for (const auto& m : snap.metrics) {
    std::string name = prom_name(m.name);
    if (!m.help.empty()) {
      os << "# HELP " << name << ' ' << m.help << '\n';
    }
    os << "# TYPE " << name << ' ' << kind_name(m.kind) << '\n';
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
      case MetricSnapshot::Kind::kGauge:
        os << name << labels_block(m.labels) << ' ' << m.value << '\n';
        break;
      case MetricSnapshot::Kind::kHistogram: {
        // Cumulative le-buckets, Prometheus histogram convention.
        int64_t cum = 0;
        for (size_t b = 0; b < m.bucket_counts.size(); ++b) {
          cum += m.bucket_counts[b];
          Labels bl = m.labels;
          bl.emplace_back("le", b < m.bounds.size()
                                    ? std::to_string(m.bounds[b])
                                    : std::string("+Inf"));
          os << name << "_bucket" << labels_block(bl) << ' ' << cum << '\n';
        }
        os << name << "_sum" << labels_block(m.labels) << ' ' << m.sum
           << '\n';
        os << name << "_count" << labels_block(m.labels) << ' ' << m.count
           << '\n';
        break;
      }
    }
  }
}

}  // namespace dcode::obs

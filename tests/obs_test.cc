// Tests for the observability layer: sharded metrics (exact sums under
// concurrency), histogram bucket semantics, registry identity and
// exposition formats, and the structured trace log.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "volume/storage_pool.h"

namespace dcode::obs {
namespace {

// ---------------------------------------------------------------- counters

TEST(Counter, ConcurrentIncrementsSumExactly) {
  Registry reg;
  Counter& c = reg.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIters; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), int64_t{kThreads} * kIters);
}

TEST(Counter, WeightedIncrementsAndReset) {
  Registry reg;
  Counter& c = reg.counter("test.bytes");
  c.inc(5);
  c.inc(37);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

// ------------------------------------------------------------------ gauges

TEST(Gauge, SetAddSubUpdateMax) {
  Registry reg;
  Gauge& g = reg.gauge("test.depth");
  g.set(10);
  g.add(5);
  g.sub(3);
  EXPECT_EQ(g.value(), 12);
  g.update_max(7);  // below current: no effect
  EXPECT_EQ(g.value(), 12);
  g.update_max(40);
  EXPECT_EQ(g.value(), 40);
}

TEST(Gauge, ConcurrentUpdateMaxKeepsMaximum) {
  Registry reg;
  Gauge& g = reg.gauge("test.hwm");
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 5000; ++i) g.update_max(t * 5000 + i);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.value(), (kThreads - 1) * 5000 + 4999);
}

// -------------------------------------------------------------- histograms

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Registry reg;
  Histogram& h = reg.histogram("test.sizes", {10, 100, 1000});
  h.observe(0);     // bucket 0
  h.observe(10);    // bucket 0 (le 10 is inclusive)
  h.observe(11);    // bucket 1
  h.observe(100);   // bucket 1
  h.observe(1000);  // bucket 2
  h.observe(1001);  // overflow
  auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(h.count(), 6);
  EXPECT_EQ(h.sum(), 0 + 10 + 11 + 100 + 1000 + 1001);
}

TEST(Histogram, ConcurrentObservesCountAndSumExactly) {
  Registry reg;
  Histogram& h = reg.histogram("test.lat", exponential_bounds(1, 2.0, 10));
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kIters; ++i) h.observe(i % 700);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), int64_t{kThreads} * kIters);
  int64_t per_thread_sum = 0;
  for (int i = 0; i < kIters; ++i) per_thread_sum += i % 700;
  EXPECT_EQ(h.sum(), kThreads * per_thread_sum);
  int64_t bucket_total = 0;
  for (int64_t b : h.bucket_counts()) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count());
}

TEST(Histogram, StandardBoundsAreStrictlyAscending) {
  for (const auto* bounds : {&latency_bounds_ns(), &size_bounds_bytes()}) {
    ASSERT_FALSE(bounds->empty());
    for (size_t i = 1; i < bounds->size(); ++i) {
      EXPECT_LT((*bounds)[i - 1], (*bounds)[i]);
    }
  }
  auto exp = exponential_bounds(100, 4.0, 5);
  ASSERT_EQ(exp.size(), 5u);
  EXPECT_EQ(exp[0], 100);
  EXPECT_EQ(exp[1], 400);
  EXPECT_EQ(exp[4], 25600);
}

// One latency ladder for the whole stack: every latency and wait histogram
// a pool registers (op latency, lock and admission waits, rebuild, scrub,
// retry backoff, throttles) shares latency_bounds_ns(), so p99s from
// different layers read at the same resolution.
TEST(Histogram, EveryStackLatencyHistogramUsesTheOneLadder) {
  Registry reg;
  volume::ShardSpec spec;
  spec.stripes = 16;
  volume::StoragePool pool(spec, 1, {}, &reg);
  std::vector<uint8_t> buf(4096, 0x5A);
  pool.write(0, buf);
  pool.read(0, buf);

  int latency_histograms = 0;
  for (const MetricSnapshot& m : reg.snapshot().metrics) {
    EXPECT_EQ(m.name.find("_fine"), std::string::npos) << m.name;
    const bool ns = m.name.size() > 3 &&
                    m.name.compare(m.name.size() - 3, 3, "_ns") == 0;
    if (m.kind != MetricSnapshot::Kind::kHistogram || !ns) continue;
    ++latency_histograms;
    EXPECT_EQ(m.bounds, latency_bounds_ns()) << m.name;
  }
  // At least pool.{read,write}_latency_ns, pool.chunk_lock_wait_ns,
  // pool.restripe.throttle_wait_ns, shard0.pipeline.admission_wait_ns and
  // the array's seven.
  EXPECT_GE(latency_histograms, 12);
}

// ---------------------------------------------------------------- registry

TEST(Registry, SameNameAndLabelsReturnsSameMetric) {
  Registry reg;
  Counter& a = reg.counter("x.hits", {{"disk", "0"}});
  Counter& b = reg.counter("x.hits", {{"disk", "0"}});
  Counter& c = reg.counter("x.hits", {{"disk", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  reg.counter("x.thing");
  EXPECT_THROW(reg.gauge("x.thing"), std::logic_error);
  reg.histogram("x.h", {1, 2});
  EXPECT_THROW(reg.histogram("x.h", {1, 2, 3}), std::logic_error);
}

TEST(Registry, NamespacedViewPrefixesNamesIntoRoot) {
  Registry root;
  Registry& s0 = root.namespaced("shard0.");
  Registry& s1 = root.namespaced("shard1.");
  s0.counter("raid.reads").inc(3);
  s1.counter("raid.reads").inc(5);
  root.counter("pool.reads").inc(1);

  // Same metric object whether reached through the view or the root.
  EXPECT_EQ(&s0.counter("raid.reads"), &root.counter("shard0.raid.reads"));
  EXPECT_EQ(root.counter("shard0.raid.reads").value(), 3);
  EXPECT_EQ(root.counter("shard1.raid.reads").value(), 5);

  // Same prefix returns the same view; views see only their namespace.
  EXPECT_EQ(&root.namespaced("shard0."), &s0);
  EXPECT_EQ(root.size(), 3u);
  EXPECT_EQ(s0.size(), 1u);
  RegistrySnapshot snap = s1.snapshot();
  ASSERT_EQ(snap.metrics.size(), 1u);
  EXPECT_EQ(snap.metrics[0].name, "shard1.raid.reads");
  EXPECT_EQ(snap.metrics[0].value, 5);
}

TEST(Registry, NamespacedViewsNestAndResetOnlyTheirNamespace) {
  Registry root;
  Registry& child = root.namespaced("a.");
  Registry& grand = child.namespaced("b.");
  EXPECT_EQ(grand.prefix(), "a.b.");
  grand.counter("hits").inc(7);
  EXPECT_EQ(root.counter("a.b.hits").value(), 7);

  root.counter("other").inc(9);
  child.reset();  // clears a.* only
  EXPECT_EQ(root.counter("a.b.hits").value(), 0);
  EXPECT_EQ(root.counter("other").value(), 9);

  // Histograms and gauges delegate too, including the bounds check.
  grand.histogram("h", {1, 2});
  EXPECT_THROW(root.histogram("a.b.h", {1, 2, 3}), std::logic_error);
  grand.gauge("g").set(4);
  EXPECT_EQ(root.gauge("a.b.g").value(), 4);
}

TEST(Registry, NamespacedCollectorRunsOnAnyViewSnapshot) {
  Registry root;
  Registry& view = root.namespaced("s.");
  Gauge& g = view.gauge("level");
  auto id = view.add_collector([&g] { g.add(1); });
  (void)view.snapshot();
  (void)root.snapshot();  // root snapshots run the same collector set
  EXPECT_EQ(root.gauge("s.level").value(), 2);
  view.remove_collector(id);
  (void)root.snapshot();
  EXPECT_EQ(root.gauge("s.level").value(), 2);
}

TEST(Registry, SnapshotWhileWritingSeesConsistentMonotonicValues) {
  Registry reg;
  Counter& c = reg.counter("race.hits");
  Histogram& h = reg.histogram("race.lat", {8, 64, 512});
  constexpr int kWriters = 4;
  constexpr int kIters = 50000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        h.observe(33);
      }
    });
  }
  int64_t last_counter = 0;
  int64_t last_count = 0;
  for (int i = 0; i < 200; ++i) {
    RegistrySnapshot snap = reg.snapshot();
    for (const auto& m : snap.metrics) {
      if (m.name == "race.hits") {
        EXPECT_GE(m.value, last_counter);
        last_counter = m.value;
      } else if (m.name == "race.lat") {
        EXPECT_GE(m.count, last_count);
        last_count = m.count;
        int64_t total = 0;
        for (int64_t b : m.bucket_counts) total += b;
        // Bucket add and sum/count adds are separate relaxed ops, so a
        // snapshot may catch an observe between them — but never more
        // buckets than observes started.
        EXPECT_LE(total - m.count, kWriters);
        EXPECT_GE(total, 0);
      }
    }
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(c.value(), int64_t{kWriters} * kIters);
  EXPECT_EQ(h.count(), int64_t{kWriters} * kIters);
}

TEST(Registry, CollectorRunsOnSnapshotAndCanBeRemoved) {
  Registry reg;
  Gauge& g = reg.gauge("pull.value");
  int pulls = 0;
  auto id = reg.add_collector([&] { g.set(++pulls); });
  reg.snapshot();
  reg.snapshot();
  EXPECT_EQ(pulls, 2);
  reg.remove_collector(id);
  reg.snapshot();
  EXPECT_EQ(pulls, 2);
}

TEST(Registry, ExpositionFormats) {
  Registry reg;
  reg.counter("io.reads", {{"disk", "3"}}, "element reads").inc(7);
  reg.gauge("io.depth").set(2);
  Histogram& h = reg.histogram("io.lat_ns", {100, 1000});
  h.observe(50);
  h.observe(500);
  h.observe(5000);

  std::ostringstream text;
  reg.write_text(text);
  EXPECT_NE(text.str().find("io.reads"), std::string::npos);
  EXPECT_NE(text.str().find("disk=3"), std::string::npos);

  std::ostringstream json;
  reg.write_json(json);
  EXPECT_NE(json.str().find("\"name\":\"io.reads\""), std::string::npos);
  EXPECT_NE(json.str().find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.str().find("\"disk\":\"3\""), std::string::npos);

  std::ostringstream prom;
  reg.write_prometheus(prom);
  const std::string p = prom.str();
  // Dots sanitize to underscores; histograms expose cumulative buckets
  // plus _sum and _count.
  EXPECT_NE(p.find("io_reads{disk=\"3\"} 7"), std::string::npos);
  EXPECT_NE(p.find("# TYPE io_reads counter"), std::string::npos);
  EXPECT_NE(p.find("io_lat_ns_bucket{le=\"100\"} 1"), std::string::npos);
  EXPECT_NE(p.find("io_lat_ns_bucket{le=\"1000\"} 2"), std::string::npos);
  EXPECT_NE(p.find("io_lat_ns_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(p.find("io_lat_ns_sum 5550"), std::string::npos);
  EXPECT_NE(p.find("io_lat_ns_count 3"), std::string::npos);
}

// ------------------------------------------------------------- json writer

TEST(JsonWriter, EscapesAndNesting) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("s").value("a\"b\\c\n");
  w.key("arr").begin_array().value(int64_t{1}).value(2.5).null().end_array();
  w.key("inf").value(std::numeric_limits<double>::infinity());
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\",\"arr\":[1,2.5,null],\"inf\":null}");
}

// ------------------------------------------------------------------- trace

TEST(Trace, DisabledLogWritesNothingAndSpansAreFree) {
  TraceLog log;
  EXPECT_FALSE(log.enabled());
  log.event("ignored");
  {
    Span s(log, "outer");
    EXPECT_EQ(s.id(), 0u);
    s.note("also ignored");
  }
  EXPECT_EQ(log.events_written(), 0);
}

TEST(Trace, NestedSpansRecordParentAndDuration) {
  TraceLog log;
  std::ostringstream os;
  log.attach(&os);
  uint64_t outer_id = 0;
  {
    Span outer(log, "rebuild", {{"disks", 2}, {"code", "dcode"}});
    ASSERT_NE(outer.id(), 0u);
    outer_id = outer.id();
    {
      Span inner(log, "stripe");
      EXPECT_NE(inner.id(), outer.id());
      inner.note("element", {{"row", 3}, {"ok", true}});
    }
    outer.note("done", {{"ratio", 0.5}});
  }
  log.close();

  std::vector<std::string> lines;
  std::istringstream in(os.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  // span_begin(outer), span_begin(inner), event, span_end(inner),
  // event, span_end(outer)
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_NE(lines[0].find("\"type\":\"span_begin\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"name\":\"rebuild\""), std::string::npos);
  // Top-level span: the parent key is omitted entirely.
  EXPECT_EQ(lines[0].find("\"parent\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"code\":\"dcode\""), std::string::npos);
  // The inner span's parent is the outer span's id.
  EXPECT_NE(lines[1].find("\"parent\":" + std::to_string(outer_id)),
            std::string::npos);
  EXPECT_NE(lines[2].find("\"type\":\"event\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"row\":3"), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[3].find("\"type\":\"span_end\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"dur_ns\""), std::string::npos);
  EXPECT_NE(lines[4].find("\"ratio\":0.5"), std::string::npos);
  EXPECT_NE(lines[5].find("\"name\":\"rebuild\""), std::string::npos);
  EXPECT_EQ(log.events_written(), 6);
}

TEST(Trace, EveryLineIsAFlatJsonObject) {
  TraceLog log;
  std::ostringstream os;
  log.attach(&os);
  {
    Span s(log, "scrub", {{"stripes", int64_t{128}}});
    s.note("inconsistent", {{"stripe", int64_t{17}}});
  }
  log.close();
  std::istringstream in(os.str());
  int n = 0;
  for (std::string line; std::getline(in, line); ++n) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    // Balanced quotes: even count means no unterminated string (escaped
    // quotes never appear in these fixed names).
    int quotes = 0;
    for (char ch : line) quotes += ch == '"';
    EXPECT_EQ(quotes % 2, 0) << line;
  }
  // span_begin + event + span_end.
  EXPECT_EQ(n, 3);
}

}  // namespace
}  // namespace dcode::obs

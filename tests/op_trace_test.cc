// Span causality: the JSONL trace an operation emits must reconstruct
// exactly the element accesses the planner predicted for it.
//
// The chain under test is OpContext -> array span -> engine span ->
// device-leaf events: the array's OpGuard opens a root span, the engine
// parents its batch spans under it (across pool threads, via the
// explicit-parent Span constructor), and every coalesced device run
// emits a disk.read/disk.write leaf with {disk, offset, elements}.
// Expanding the leaves back into per-element accesses and comparing
// against the IoPlan proves the tree attributes every device touch to
// the right user op — the property the flight recorder and the load
// harness both lean on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "codes/registry.h"
#include "obs/trace.h"
#include "raid/pipeline.h"
#include "raid/planner.h"
#include "raid/raid6_array.h"
#include "util/rng.h"
#include "volume/storage_pool.h"

namespace dcode::raid {
namespace {

constexpr size_t kElem = 64;

std::vector<uint8_t> random_bytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> buf(n);
  Pcg32 rng(seed);
  rng.fill_bytes(buf.data(), buf.size());
  return buf;
}

// --- minimal JSONL field extraction ----------------------------------------
// The trace writer emits flat, known shapes (attrs keys never collide
// with envelope keys), so keyword search is enough — no JSON parser.

bool extract_int(const std::string& line, const std::string& key,
                 int64_t* out) {
  const std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::stoll(line.substr(pos + needle.size()));
  return true;
}

bool extract_string(const std::string& line, const std::string& key,
                    std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  size_t end = line.find('"', pos);
  if (end == std::string::npos) return false;
  *out = line.substr(pos, end - pos);
  return true;
}

// One element-granular device access recovered from the trace (or
// predicted by the planner). Sorted-vector comparison = multiset
// equality.
struct DeviceAccess {
  int64_t disk;
  int64_t offset;
  bool is_write;

  auto operator<=>(const DeviceAccess&) const = default;
};

struct ParsedTrace {
  std::map<uint64_t, uint64_t> parent_of;   // span id -> parent id
  std::map<uint64_t, std::string> name_of;  // span id -> name
  std::vector<uint64_t> roots;              // parent == 0
  // disk.read / disk.write leaves, expanded to one entry per element.
  std::vector<std::pair<uint64_t, DeviceAccess>> leaves;  // (span, access)
};

// Walks up the parent chain; true when `span` is (a descendant of) root.
bool under(const ParsedTrace& t, uint64_t span, uint64_t root) {
  for (int hops = 0; span != 0 && hops < 64; ++hops) {
    if (span == root) return true;
    auto it = t.parent_of.find(span);
    if (it == t.parent_of.end()) return false;
    span = it->second;
  }
  return false;
}

// The planner's prediction in device-access coordinates: disk d, byte
// offset (stripe * rows + row) * esize.
std::vector<DeviceAccess> predicted(const IoPlan& plan, int rows,
                                    size_t esize) {
  std::vector<DeviceAccess> out;
  out.reserve(plan.accesses.size());
  for (const auto& a : plan.accesses) {
    out.push_back(DeviceAccess{
        a.disk,
        (a.stripe * rows + a.element.row) * static_cast<int64_t>(esize),
        a.is_write});
  }
  std::sort(out.begin(), out.end());
  return out;
}

class OpTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<Raid6Array>(codes::make_layout("dcode", 7),
                                          kElem, /*stripes=*/4, /*threads=*/2,
                                          &registry_);
    auto data = random_bytes(static_cast<size_t>(array_->capacity()), 42);
    array_->write(0, data);
  }

  void TearDown() override { obs::TraceLog::global().close(); }

  void parse_trace_into(const std::string& text, ParsedTrace* out) {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      std::string type;
      if (!extract_string(line, "type", &type)) continue;
      if (type == "span_begin") {
        int64_t id = 0, parent = 0;
        std::string name;
        ASSERT_TRUE(extract_int(line, "id", &id)) << line;
        extract_int(line, "parent", &parent);
        extract_string(line, "name", &name);
        out->parent_of[static_cast<uint64_t>(id)] =
            static_cast<uint64_t>(parent);
        out->name_of[static_cast<uint64_t>(id)] = name;
        if (parent == 0) out->roots.push_back(static_cast<uint64_t>(id));
      } else if (type == "event") {
        std::string name;
        if (!extract_string(line, "name", &name)) continue;
        if (name != "disk.read" && name != "disk.write") continue;
        int64_t span = 0, disk = 0, offset = 0, elements = 0;
        ASSERT_TRUE(extract_int(line, "span", &span)) << line;
        ASSERT_TRUE(extract_int(line, "disk", &disk)) << line;
        ASSERT_TRUE(extract_int(line, "offset", &offset)) << line;
        ASSERT_TRUE(extract_int(line, "elements", &elements)) << line;
        for (int64_t k = 0; k < elements; ++k) {
          out->leaves.emplace_back(
              static_cast<uint64_t>(span),
              DeviceAccess{disk, offset + k * static_cast<int64_t>(kElem),
                           name == "disk.write"});
        }
      }
    }
  }

  // Traces `op`, finds the unique root span named `root_name`, and
  // returns the element accesses of every device leaf under it, sorted.
  template <typename OpFn>
  std::vector<DeviceAccess> run_traced(const std::string& root_name, OpFn op) {
    std::ostringstream trace;
    obs::TraceLog::global().attach(&trace);
    op();
    obs::TraceLog::global().close();

    ParsedTrace t;
    parse_trace_into(trace.str(), &t);

    uint64_t root = 0;
    int matching_roots = 0;
    for (uint64_t r : t.roots) {
      if (t.name_of[r] == root_name) {
        root = r;
        ++matching_roots;
      }
    }
    EXPECT_EQ(matching_roots, 1)
        << "expected exactly one " << root_name << " root span";
    // Every engine span must parent directly under the op's root: the
    // causal tree has no orphaned middle layer.
    for (const auto& [id, name] : t.name_of) {
      if (name == "engine.read_batch" || name == "engine.write_batch") {
        EXPECT_TRUE(under(t, id, root))
            << name << " span " << id << " not under the op root";
      }
    }

    std::vector<DeviceAccess> accesses;
    for (const auto& [span, access] : t.leaves) {
      EXPECT_TRUE(under(t, span, root))
          << "device leaf on span " << span << " not under the op root";
      accesses.push_back(access);
    }
    std::sort(accesses.begin(), accesses.end());
    return accesses;
  }

  obs::Registry registry_;
  std::unique_ptr<Raid6Array> array_;
};

TEST_F(OpTraceTest, HealthyReadLeavesMatchIoPlan) {
  const int64_t start = 3;
  const int len = 11;
  std::vector<uint8_t> out(static_cast<size_t>(len) * kElem);
  auto accesses = run_traced("array.read", [&] {
    array_->read(start * static_cast<int64_t>(kElem), out);
  });

  AddressMap map(array_->layout());
  IoPlanner planner(map);
  EXPECT_EQ(accesses, predicted(planner.plan_read(start, len),
                                array_->layout().rows(), kElem));
}

TEST_F(OpTraceTest, DegradedReadLeavesMatchIoPlan) {
  const int failed = 2;
  array_->fail_disk(failed);
  const int64_t start = 0;
  const int len = 13;
  std::vector<uint8_t> out(static_cast<size_t>(len) * kElem);
  auto accesses = run_traced("array.read", [&] {
    array_->read(start * static_cast<int64_t>(kElem), out);
  });

  AddressMap map(array_->layout());
  IoPlanner planner(map);
  int fd[1] = {failed};
  EXPECT_EQ(accesses, predicted(planner.plan_degraded_read(start, len, fd),
                                array_->layout().rows(), kElem));
}

TEST_F(OpTraceTest, RmwWriteLeavesMatchIoPlan) {
  const int64_t start = 5;
  const int len = 7;
  auto fresh = random_bytes(static_cast<size_t>(len) * kElem, 99);
  auto accesses = run_traced("array.write", [&] {
    array_->write(start * static_cast<int64_t>(kElem), fresh);
  });

  // The byte-level array applies delta-based RMW to a healthy
  // partial-stripe write.
  AddressMap map(array_->layout());
  IoPlanner planner(map);
  EXPECT_EQ(accesses,
            predicted(planner.plan_write(start, len,
                                         WritePolicy::kReadModifyWrite),
                      array_->layout().rows(), kElem));
}

// A stripe the write covers whole is encoded, so its leaves are the
// reconstruct-write plan's: all writes.
TEST_F(OpTraceTest, FullStripeWriteLeavesMatchRcwIoPlan) {
  AddressMap map(array_->layout());
  IoPlanner planner(map);
  const int per_stripe = static_cast<int>(map.data_per_stripe());
  const auto esize = static_cast<int64_t>(kElem);
  // Elements per_stripe - 3 to 2 * per_stripe + 3, the first and last
  // partly.
  auto fresh = random_bytes(static_cast<size_t>((per_stripe + 7) * esize - 9),
                            98);
  auto accesses = run_traced("array.write", [&] {
    array_->write((per_stripe - 3) * esize + 5, fresh);
  });

  IoPlan expected =
      planner.plan_write(per_stripe - 3, 3, WritePolicy::kReadModifyWrite);
  for (const IoPlan& part :
       {planner.plan_write(per_stripe, per_stripe,
                           WritePolicy::kReconstructWrite),
        planner.plan_write(2 * per_stripe, 4,
                           WritePolicy::kReadModifyWrite)}) {
    expected.accesses.insert(expected.accesses.end(), part.accesses.begin(),
                             part.accesses.end());
  }
  EXPECT_EQ(accesses, predicted(expected, array_->layout().rows(), kElem));
}

// --- pipelined ops ---------------------------------------------------------
// Submitting through the StripePipeline must not change the causal
// story: the worker binds the submitted op's OpContext before calling
// the array, so the root span, engine spans, and device leaves form the
// same tree the synchronous call produces — and still equal the IoPlan.

TEST_F(OpTraceTest, PipelinedWriteLeavesMatchIoPlan) {
  const int64_t start = 5;
  const int len = 7;
  auto fresh = random_bytes(static_cast<size_t>(len) * kElem, 7);
  auto accesses = run_traced("array.write", [&] {
    StripePipeline pipe(*array_, {.workers = 1});
    pipe.submit_write(start * static_cast<int64_t>(kElem), fresh).get();
  });

  AddressMap map(array_->layout());
  IoPlanner planner(map);
  EXPECT_EQ(accesses,
            predicted(planner.plan_write(start, len,
                                         WritePolicy::kReadModifyWrite),
                      array_->layout().rows(), kElem));
}

TEST_F(OpTraceTest, PipelinedReadLeavesMatchIoPlan) {
  const int64_t start = 2;
  const int len = 9;
  std::vector<uint8_t> out(static_cast<size_t>(len) * kElem);
  auto accesses = run_traced("array.read", [&] {
    StripePipeline pipe(*array_, {.workers = 1});
    pipe.submit_read(start * static_cast<int64_t>(kElem), out).get();
  });

  AddressMap map(array_->layout());
  IoPlanner planner(map);
  EXPECT_EQ(accesses, predicted(planner.plan_read(start, len),
                                array_->layout().rows(), kElem));
}

// A pool op runs its segments on the calling thread, so the pool span
// is the root of one causal tree: every array, engine and device span of
// the op hangs under it — here two array.read segments (the range
// straddles a chunk boundary) whose leaves together equal the planner's
// plan for the whole range.
TEST_F(OpTraceTest, InlinePoolReadTracesAsOneRootMatchingIoPlan) {
  volume::ShardSpec spec;
  spec.prime = 7;
  spec.element_size = kElem;
  spec.stripes = 4;
  volume::PoolOptions popts;
  popts.chunk_bytes = array_->layout().data_count() *
                      static_cast<int64_t>(kElem);  // one stripe per chunk
  obs::Registry reg;
  volume::StoragePool pool(spec, 1, popts, &reg);
  pool.write(0, random_bytes(static_cast<size_t>(pool.capacity()), 3));

  const int64_t start = array_->layout().data_count() - 4;
  const int len = 9;
  std::vector<uint8_t> out(static_cast<size_t>(len) * kElem);
  auto accesses = run_traced("pool.read", [&] {
    pool.read(start * static_cast<int64_t>(kElem), out);
  });

  AddressMap map(pool.shard_array(0).layout());
  IoPlanner planner(map);
  EXPECT_EQ(accesses, predicted(planner.plan_read(start, len),
                                pool.shard_array(0).layout().rows(), kElem));
}

}  // namespace
}  // namespace dcode::raid

#include "obs/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "obs/json_writer.h"
#include "obs/trace.h"

namespace dcode::obs {

namespace {

int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// kind in the low 16 bits, disk+1 in the next 16 (so disk -1 encodes as
// 0 and any non-negative disk survives the round trip), the recording
// thread's tid in the high 32.
int64_t pack_meta(FlightEventKind kind, int disk, int tid) {
  uint32_t d = disk < 0 ? 0u : static_cast<uint32_t>(disk) + 1u;
  return static_cast<int64_t>(static_cast<uint64_t>(kind) |
                              (static_cast<uint64_t>(d & 0xffffu) << 16) |
                              (static_cast<uint64_t>(static_cast<uint32_t>(tid))
                               << 32));
}

void unpack_meta(int64_t meta, FlightEvent* e) {
  auto m = static_cast<uint64_t>(meta);
  e->kind = static_cast<FlightEventKind>(m & 0xffffu);
  uint32_t d = static_cast<uint32_t>((m >> 16) & 0xffffu);
  e->disk = d == 0 ? -1 : static_cast<int>(d - 1);
  e->tid = static_cast<int>(static_cast<uint32_t>(m >> 32));
}

// Thread-local ring cache (the hot path; trivially destructible). Keyed
// by a never-reused recorder id so a dangling cache entry from a
// destroyed recorder can never be mistaken for a live one.
struct RingCache {
  uint64_t recorder_id = 0;
  void* ring = nullptr;
  int tid = 0;
};
thread_local RingCache tl_ring_cache;
// Set once the thread has returned its rings: later events are dropped.
thread_local bool tl_rings_returned = false;

std::atomic<uint64_t> g_next_recorder_id{1};

}  // namespace

const char* to_string(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kNone: return "none";
    case FlightEventKind::kReadBegin: return "read_begin";
    case FlightEventKind::kReadEnd: return "read_end";
    case FlightEventKind::kWriteBegin: return "write_begin";
    case FlightEventKind::kWriteEnd: return "write_end";
    case FlightEventKind::kDiskRead: return "disk_read";
    case FlightEventKind::kDiskWrite: return "disk_write";
    case FlightEventKind::kRetry: return "retry";
    case FlightEventKind::kFailStop: return "fail_stop";
    case FlightEventKind::kHealthTransition: return "health_transition";
    case FlightEventKind::kSlowOp: return "slow_op";
    case FlightEventKind::kRebuildStripe: return "rebuild_stripe";
    case FlightEventKind::kIntegrityMismatch: return "integrity_mismatch";
    case FlightEventKind::kCustom: return "custom";
  }
  return "?";
}

FlightRecorder::Ring::Ring(size_t slot_count)
    : slots(new Slot[slot_count]) {}

struct FlightRecorder::ThreadRings {
  struct Held {
    uint64_t recorder_id;
    std::weak_ptr<RingPool> pool;
    Ring* ring;
  };
  std::vector<Held> held;

  ~ThreadRings() {
    tl_rings_returned = true;
    tl_ring_cache = {};
    for (const Held& h : held) {
      if (std::shared_ptr<RingPool> pool = h.pool.lock()) {
        std::lock_guard<std::mutex> lock(pool->mu);
        pool->idle.push_back(h.ring);
      }
    }
  }
};

thread_local FlightRecorder::ThreadRings FlightRecorder::thread_rings_;

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* r = [] {
    auto* rec = new FlightRecorder();  // leaked: outlives static teardown
    if (const char* path = std::getenv("DCODE_FLIGHT_DUMP");
        path != nullptr && path[0] != '\0') {
      rec->set_dump_path(path);
    }
    return rec;
  }();
  return *r;
}

FlightRecorder::FlightRecorder(size_t events_per_thread) {
  size_t cap = 1;
  while (cap < events_per_thread) cap <<= 1;
  mask_ = cap - 1;
  id_ = g_next_recorder_id.fetch_add(1, std::memory_order_relaxed);
}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::Ring* FlightRecorder::ring_for_this_thread() noexcept {
  if (tl_ring_cache.recorder_id == id_) {
    return static_cast<Ring*>(tl_ring_cache.ring);
  }
  if (tl_rings_returned) return nullptr;
  Ring* ring = nullptr;
  try {
    std::vector<ThreadRings::Held>& held = thread_rings_.held;
    std::erase_if(held, [](const ThreadRings::Held& h) {
      return h.pool.expired();  // its recorder is gone
    });
    // A thread that bounced between recorders (tests) takes its ring in
    // this one back up.
    for (const ThreadRings::Held& h : held) {
      if (h.recorder_id == id_) ring = h.ring;
    }
    if (ring == nullptr) {
      held.reserve(held.size() + 1);
      std::lock_guard<std::mutex> lock(pool_->mu);
      if (pool_->idle.empty()) {
        pool_->rings.push_back(std::make_unique<Ring>(mask_ + 1));
        ring = pool_->rings.back().get();
      } else {
        ring = pool_->idle.back();  // an exited thread's
        pool_->idle.pop_back();
      }
      held.push_back({id_, pool_, ring});
    }
  } catch (...) {
    return nullptr;  // allocation failure: drop the event, never throw
  }
  tl_ring_cache = {id_, ring, detail::this_thread_trace_id()};
  return ring;
}

void FlightRecorder::record(FlightEventKind kind, uint64_t op_id, int disk,
                            int64_t a, int64_t b) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Ring* r = ring_for_this_thread();
  if (r == nullptr) return;
  uint64_t i = r->head.load(std::memory_order_relaxed);
  Slot& s = r->slots[i & mask_];
  s.seq.store(2 * i + 1, std::memory_order_relaxed);  // odd: being written
  s.ts_ns.store(steady_ns(), std::memory_order_relaxed);
  s.op_id.store(op_id, std::memory_order_relaxed);
  s.meta.store(pack_meta(kind, disk, tl_ring_cache.tid),
               std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.seq.store(2 * i + 2, std::memory_order_release);  // even: stable
  r->head.store(i + 1, std::memory_order_release);
}

size_t FlightRecorder::ring_count() const {
  std::lock_guard<std::mutex> lock(pool_->mu);
  return pool_->rings.size();
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  std::lock_guard<std::mutex> lock(pool_->mu);
  for (const auto& r : pool_->rings) {
    for (size_t j = 0; j <= mask_; ++j) {
      const Slot& s = r->slots[j];
      uint64_t s1 = s.seq.load(std::memory_order_acquire);
      if (s1 == 0 || (s1 & 1) != 0) continue;  // empty or mid-write
      FlightEvent e;
      e.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
      e.op_id = s.op_id.load(std::memory_order_relaxed);
      unpack_meta(s.meta.load(std::memory_order_relaxed), &e);
      e.a = s.a.load(std::memory_order_relaxed);
      e.b = s.b.load(std::memory_order_relaxed);
      uint64_t s2 = s.seq.load(std::memory_order_acquire);
      if (s1 != s2) continue;  // overwritten underneath us: skip
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& x, const FlightEvent& y) {
              return x.ts_ns < y.ts_ns;
            });
  return out;
}

void FlightRecorder::dump(std::ostream& os, const std::string& reason) const {
  std::vector<FlightEvent> events = snapshot();
  {
    JsonWriter w(os);
    w.begin_object();
    w.key("type").value("flight_dump");
    w.key("reason").value(reason);
    w.key("ts_ns").value(steady_ns());
    w.key("events").value(static_cast<int64_t>(events.size()));
    w.end_object();
  }
  os << '\n';
  for (const FlightEvent& e : events) {
    JsonWriter w(os);
    w.begin_object();
    w.key("ts_ns").value(e.ts_ns);
    w.key("tid").value(e.tid);
    if (e.op_id != 0) w.key("op").value(e.op_id);
    w.key("kind").value(to_string(e.kind));
    if (e.disk >= 0) w.key("disk").value(e.disk);
    w.key("a").value(e.a);
    w.key("b").value(e.b);
    w.end_object();
    os << '\n';
  }
  os.flush();
}

void FlightRecorder::set_dump_path(std::string path) {
  std::lock_guard<std::mutex> lock(dump_mu_);
  dump_path_ = std::move(path);
}

std::string FlightRecorder::dump_path() const {
  std::lock_guard<std::mutex> lock(dump_mu_);
  return dump_path_;
}

bool FlightRecorder::request_dump(const std::string& reason) {
  int64_t now = steady_ns();
  int64_t last = last_dump_ns_.load(std::memory_order_relaxed);
  if (last != 0 &&
      now - last < min_dump_interval_ns_.load(std::memory_order_relaxed)) {
    return false;
  }
  if (!last_dump_ns_.compare_exchange_strong(last, now,
                                             std::memory_order_relaxed)) {
    return false;  // another thread is dumping right now
  }
  std::lock_guard<std::mutex> lock(dump_mu_);
  if (dump_path_.empty()) return false;
  std::ofstream os(dump_path_, std::ios::app);
  if (!os) return false;
  dump(os, reason);
  dumps_written_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace dcode::obs

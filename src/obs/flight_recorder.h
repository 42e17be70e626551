// Always-on flight recorder: a fixed-size per-thread ring of recent op
// events, cheap enough (~a handful of relaxed atomic stores) to leave
// recording in production and in every test run. When something goes
// wrong — a health-monitor failure escalation, an op over the slow-op
// threshold, a chaos-campaign crash — the last few thousand events per
// thread are dumped as JSONL for post-mortem reading, without anyone
// having had the foresight to enable full tracing.
//
// Concurrency design (TSan-clean by construction):
//   - Every slot field is a relaxed std::atomic; the ring is strictly
//     single-writer (its owning thread) and the dump side is a reader.
//   - Each slot carries a seqlock-style sequence word: the writer sets
//     it odd, fills the fields, then publishes even (release). A reader
//     (dump/snapshot) accepts a slot only if it observes the same even
//     sequence before and after reading the fields — torn slots are
//     simply skipped. The dump is a diagnostic sample, not an audit log.
//   - A thread's ring goes back to its recorder when the thread exits,
//     and the next thread to record takes it over, so a recorder holds
//     as many rings as it has had recording threads alive at once, not
//     one per thread it ever saw. Each slot names the thread that wrote
//     it, so a dump still shows what a dead worker did last until the
//     ring's next owner overwrites it. A thread that outlives its
//     recorder drops its ring unreturned.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dcode::obs {

enum class FlightEventKind : uint16_t {
  kNone = 0,
  kReadBegin,        // array read op admitted       a=offset b=size
  kReadEnd,          // array read op finished       a=latency_ns
  kWriteBegin,       // array write op admitted      a=offset b=size
  kWriteEnd,         // array write op finished      a=latency_ns
  kDiskRead,         // coalesced device read run    a=dev_offset b=elements
  kDiskWrite,        // coalesced device write run   a=dev_offset b=elements
  kRetry,            // transient result retried     a=attempt b=status code
  kFailStop,         // retry budget exhausted       a=status code
  kHealthTransition, // disk health state change     a=old b=new state
  kSlowOp,           // op over slow_op_threshold_ns a=latency_ns b=threshold
  kRebuildStripe,    // stripe rebuilt onto a spare  a=stripe b=elements
                     // read (disk = first target)
  kIntegrityMismatch,// verify-on-read condemned an
                     // element                      a=element b=verdict
  kCustom,           // caller-defined               a,b free
};

const char* to_string(FlightEventKind kind);

// Decoded event, as produced by snapshot()/dump().
struct FlightEvent {
  int64_t ts_ns = 0;  // steady clock
  int tid = 0;        // dense per-thread id (same numbering as traces)
  uint64_t op_id = 0;
  FlightEventKind kind = FlightEventKind::kNone;
  int disk = -1;  // -1 = not disk-scoped
  int64_t a = 0;
  int64_t b = 0;
};

class FlightRecorder {
 public:
  // The process-wide recorder the raid layers record into. Reads the
  // DCODE_FLIGHT_DUMP environment variable on first use as the default
  // auto-dump path.
  static FlightRecorder& global();

  // events_per_thread is rounded up to a power of two.
  explicit FlightRecorder(size_t events_per_thread = 4096);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Hot path. ~few ns: one thread-local load, five relaxed stores, one
  // release store. `disk` < 0 means not disk-scoped.
  void record(FlightEventKind kind, uint64_t op_id, int disk, int64_t a,
              int64_t b) noexcept;

  // Global kill switch (one relaxed load on the hot path). On by
  // default — the recorder exists to be always-on; the switch is for
  // measuring its own overhead.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Consistent-enough copy of every thread's ring, oldest-first overall
  // (sorted by timestamp). Slots mid-write are skipped.
  std::vector<FlightEvent> snapshot() const;

  // JSONL: one header line {"type":"flight_dump","reason":R,"events":N}
  // then one line per event.
  void dump(std::ostream& os, const std::string& reason = "on_demand") const;

  // Auto-dump sink for request_dump(). Empty disables auto-dumps.
  // Dumps append, so one file collects every escalation of a run.
  void set_dump_path(std::string path);
  std::string dump_path() const;

  // Rate-limited (min_dump_interval_ns apart) dump to the configured
  // path. Requested on a disk failure (reason "disk_failure") and a
  // slow-op breach ("slow_op"); safe to call often. Returns true if a
  // dump was written.
  bool request_dump(const std::string& reason);
  void set_min_dump_interval_ns(int64_t ns) {
    min_dump_interval_ns_.store(ns, std::memory_order_relaxed);
  }
  int64_t dumps_written() const {
    return dumps_written_.load(std::memory_order_relaxed);
  }

  size_t capacity_per_thread() const { return mask_ + 1; }

  // Rings allocated so far: the most threads that held one at once.
  size_t ring_count() const;

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  // even = stable, odd = being written
    std::atomic<int64_t> ts_ns{0};
    std::atomic<uint64_t> op_id{0};
    std::atomic<int64_t> meta{0};  // kind (16) | disk+1 (16) | tid (32)
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
  };

  // A line of its own: a reused ring was allocated by a thread that has
  // exited, whose heap arena may now serve another thread, and `head` is
  // written on every event.
  struct alignas(64) Ring {
    explicit Ring(size_t slots);
    std::atomic<uint64_t> head{0};  // next logical index; owner-written
    std::unique_ptr<Slot[]> slots;
  };

  // Every ring the recorder made. The recorder owns it; each thread that
  // holds a ring keeps a weak_ptr, so a thread exiting after the recorder
  // was destroyed finds nothing to return its ring to.
  struct RingPool {
    std::mutex mu;
    std::vector<std::unique_ptr<Ring>> rings;
    std::vector<Ring*> idle;  // rings no live thread holds
  };

  // The rings the calling thread holds, one per recorder it recorded
  // into; its destructor returns them at thread exit.
  struct ThreadRings;
  static thread_local ThreadRings thread_rings_;

  Ring* ring_for_this_thread() noexcept;

  std::atomic<bool> enabled_{true};
  uint64_t id_ = 0;  // never-reused instance id (thread cache key)
  size_t mask_;      // slots per ring - 1 (power of two)
  std::shared_ptr<RingPool> pool_ = std::make_shared<RingPool>();

  mutable std::mutex dump_mu_;
  std::string dump_path_;
  std::atomic<int64_t> min_dump_interval_ns_{500'000'000};
  std::atomic<int64_t> last_dump_ns_{0};
  std::atomic<int64_t> dumps_written_{0};
};

}  // namespace dcode::obs

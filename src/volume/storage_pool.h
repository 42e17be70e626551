// StoragePool: many Raid6Arrays behind one logical block space.
//
// A single n×n D-Code array is capped at prime-n disks; a production
// pool spans hundreds of devices. The pool shards the logical space
// across N identically-shaped arrays by round-robin chunk striping:
//
//   chunk c  ->  shard c % N,  byte offset (c / N) * chunk_bytes
//
// Each shard is a full array stack — its own Raid6Array (spares, health
// monitor, background rebuild, journal), plus a StripePipeline whose
// queue and workers serve only callers that submit to the shard
// directly (shard_pipeline()) — so one shard rebuilding or even crashed
// never blocks I/O routed to the others. Every shard registers its
// metrics under a namespaced view of the pool's registry
// (`shard0.raid.reads`, `shard1.pipeline.queue_depth`, ...) and the pool
// adds pool.* aggregates on top.
//
// Online capacity add (`add_shard`) attaches shard N and restripes in
// the background, re-using the token-bucket + watermark protocol of the
// array's background rebuild:
//
//   * chunks below the restripe watermark route with N+1 shards (new
//     placement), chunks at/above it with N (old placement);
//   * the worker walks chunks in ascending order: under the chunk's
//     lock it copies old placement -> new placement with the two
//     shards' Raid6Array::read and write (whose stripe locks order the
//     copy against in-flight writes to its stripes, exactly like a
//     foreground segment), then advances the watermark before unlocking,
//     so every foreground op sees a bit-identical view mid-migration;
//   * ascending order makes the in-place migration safe: the old
//     occupant of chunk c's new location is c' = floor(c/(N+1))*N +
//     (c mod N+1) <= c, already migrated out (or c itself — a self-copy
//     that is skipped), and the chunk that will overwrite c's *old*
//     location is d = floor(c/N)*(N+1) + (c mod N) >= c, migrated only
//     after c has moved;
//   * the expanded capacity becomes visible only when the restripe
//     completes — exposing it earlier would hand out addresses whose
//     new placement still holds un-migrated chunks.
//
// Foreground ops run on the caller's thread. An op takes the chunk-lock
// slots it covers in bounded windows (<= kWindowSlots held at once,
// ascending within a window, all released before the next window) and,
// holding a window's locks, runs that window's per-chunk segments one
// after another straight on the owning shard's Raid6Array, so a chunk is
// never migrated while a segment is in flight on it. Two lock layers
// order a pool op: chunk locks for placement, then the array's stripe
// locks (one held at a time) for parity consistency. The migrator
// follows the same order, and a stripe-lock holder never waits on a
// chunk lock, so the lock graph is acyclic. Concurrency across ops comes
// from the callers' threads. Multi-chunk ops are not atomic as a whole —
// concurrent overlapping ops may interleave at window granularity, the
// same torn-read contract as any block device spanning sectors.
//
// read()/write() are safe from many threads. The admin operations —
// add_shard() and restart_all() — are serialized against each other
// internally; restart_all() additionally quiesces foreground pool I/O
// (and the migrator) across restart + journal replay. I/O issued
// directly through shard_pipeline()/shard_array() bypasses that gate
// and must not run concurrently with restart_all().
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "raid/pipeline.h"
#include "raid/raid6_array.h"
#include "raid/stripe_lock_table.h"
#include "util/token_bucket.h"

namespace dcode::volume {

// Shape shared by every shard in a pool (shards are interchangeable, so
// the routing arithmetic never needs per-shard capacities).
struct ShardSpec {
  std::string code = "dcode";  // codes::make_layout name
  int prime = 5;               // layout parameter (disks per shard)
  size_t element_size = 4096;
  int64_t stripes = 64;
  unsigned threads = 1;  // engine pool threads per shard
  // Every shard's array options. A non-empty integrity_sidecar_dir is
  // the pool's sidecar root: shard i keeps its sidecars in <dir>/shard<i>.
  raid::ArrayOptions array;
  int hot_spares = 0;     // added to every shard at attach
  int journal_slots = 0;  // > 0 enables write-intent journaling
};

struct PoolOptions {
  int64_t chunk_bytes = 64 * 1024;  // must divide shard capacity
  // Per-shard pipeline shape. Its workers serve only ops submitted
  // through shard_pipeline(); read()/write() run on the caller's thread.
  raid::PipelineOptions pipeline;
  // Background restripe throttle in chunks/second; <= 0 = unthrottled.
  double restripe_rate_chunks_per_sec = 0.0;
  double restripe_burst_chunks = 8.0;
};

// Aggregated point-in-time pool health, one row per shard plus totals.
struct PoolHealth {
  struct ShardHealth {
    int failed_disks = 0;
    int hot_spares = 0;
    bool rebuilding = false;
    bool crashed = false;
  };
  std::vector<ShardHealth> shards;
  int degraded_shards = 0;    // >= 1 disk failed or not yet rebuilt
  int rebuilding_shards = 0;  // a rebuild pass wanted or running
  int crashed_shards = 0;     // power-loss gate tripped
  bool restriping = false;
};

class StoragePool {
 public:
  static constexpr int kMaxShards = 64;
  // Slots in the sharded chunk lock table (chunks share slots by
  // modulo, which only serializes unrelated chunks).
  static constexpr int kChunkLockSlots = 256;
  // Max chunk-lock slots a foreground op holds simultaneously: large
  // ops take their covered slots in windows of this size (ascending
  // within a window, fully released between windows), so one op never
  // pins the whole lock table — and never exceeds TSan's 64-held-locks
  // deadlock-detector capacity on the tsan CI leg.
  static constexpr int kWindowSlots = 48;

  // `registry` hosts the pool.* metrics and the per-shard namespaced
  // views; nullptr means the process-global obs::Registry.
  StoragePool(ShardSpec spec, int shards, PoolOptions options = {},
              obs::Registry* registry = nullptr);
  ~StoragePool();

  StoragePool(const StoragePool&) = delete;
  StoragePool& operator=(const StoragePool&) = delete;

  // Usable bytes. Grows only when a restripe completes.
  int64_t capacity() const {
    return capacity_.load(std::memory_order_acquire);
  }
  int64_t chunk_bytes() const { return chunk_bytes_; }
  int64_t chunks_per_shard() const { return chunks_per_shard_; }
  int shard_count() const {
    return shard_count_.load(std::memory_order_acquire);
  }

  // Byte-addressed synchronous I/O over the pooled logical space.
  // Bounds-checked against capacity(); runs each covered chunk's
  // segment on the calling thread on its shard's array, in chunk order
  // (the first shard error is rethrown and the remaining segments are
  // skipped). Safe to call from many threads.
  void write(int64_t offset, std::span<const uint8_t> data);
  void read(int64_t offset, std::span<uint8_t> out);

  // Durability barrier across every shard; returns devices flushed.
  int flush();

  // --- Online capacity add -----------------------------------------------
  // Attaches one more shard (same ShardSpec) and starts the background
  // restripe. Throws if a restripe is already running (or stalled) or
  // the pool is at kMaxShards. Capacity grows when the restripe
  // completes; I/O continues throughout. Concurrent admin calls are
  // serialized: of two racing add_shard() calls one attaches and the
  // other throws (restripe already pending).
  void add_shard();
  // Blocks until the restripe worker stands down. Returns true when the
  // restripe completed (false = stalled on a crash/unrecoverable shard;
  // recover the shards, then resume_restripe()).
  bool wait_for_restripe();
  bool restripe_in_progress() const;
  // Restarts a stalled restripe (after restart_all/journal recovery).
  // No-op when no restripe is pending.
  void resume_restripe();
  // Retunes the restripe throttle (chunks/second; <= 0 = unthrottled).
  void set_restripe_rate(double chunks_per_sec, double burst = 8.0);
  // Chunks already migrated to the new placement.
  int64_t restripe_watermark() const {
    return restripe_watermark_.load(std::memory_order_acquire);
  }

  // --- Per-shard access and pool-wide maintenance -------------------------
  raid::Raid6Array& shard_array(int i);
  raid::StripePipeline& shard_pipeline(int i);

  PoolHealth health() const;

  // Pool reboot after power loss: pauses the migrator AND gates out
  // foreground pool I/O (in-flight ops drain, new ones block), restarts
  // every shard (clearing a consumed crash and an unconsumed injected
  // budget alike), replays the journal of each shard that actually
  // crashed — replay must precede any new write to that shard, or an
  // RMW write would carry the torn stripe's stale parity forward and
  // close the crash's open intent behind it — then reopens the gate and
  // lets a pending restripe continue. Safe to call with concurrent
  // read()/write() traffic; I/O issued directly through
  // shard_pipeline()/shard_array() is NOT gated. Returns the number of
  // crashed shards restarted.
  int restart_all();
  // Journal recovery on every journaled shard; total stripes repaired.
  int64_t journal_recover_all();
  // Open write intents across all shards (0 after clean recovery).
  int64_t journal_open_intents() const;
  // Blocks until no shard has a background rebuild active; true when
  // every shard is fully reconstructed.
  bool wait_for_rebuilds();
  // Integrity scrub across all shards (parity equations + checksum
  // sidecar); total inconsistent stripes. Feeds the pool.integrity.*
  // rollup counters. Same quiesce contract as Raid6Array::scrub.
  int64_t scrub_all();
  // Repair scrub across all shards; reports are summed (including the
  // checksum/stale channels) and rolled into pool.integrity.*.
  raid::ScrubReport scrub_repair_all();

  obs::Registry& metrics_registry() const { return *registry_; }

 private:
  struct Shard {
    obs::Registry* registry = nullptr;  // namespaced view, root-owned
    std::unique_ptr<raid::Raid6Array> array;
    std::unique_ptr<raid::StripePipeline> pipeline;  // after array:
                                                     // destroyed first
  };

  struct Placement {
    int shard;
    int64_t offset;  // bytes within the shard
  };

  struct PoolMetrics {
    obs::Counter* reads;
    obs::Counter* writes;
    obs::Counter* read_bytes;
    obs::Counter* written_bytes;
    obs::Histogram* read_latency_ns;
    obs::Histogram* write_latency_ns;
    obs::Histogram* op_fanout;
    obs::Histogram* chunk_lock_wait_ns;
    obs::Gauge* shards;
    obs::Gauge* capacity_bytes;
    obs::Gauge* degraded_shards;
    obs::Gauge* rebuilding_shards;
    obs::Gauge* crashed_shards;
    obs::Gauge* restripe_in_progress;
    obs::Counter* restripes;
    obs::Counter* restripe_chunks_moved;
    obs::Histogram* restripe_throttle_wait_ns;
    // Integrity-scrub rollups across shards (fed by scrub_all /
    // scrub_repair_all; the per-shard raid.integrity.* and raid.scrub.*
    // metrics carry the fine-grained view).
    obs::Counter* integrity_checksum_mismatches;
    obs::Counter* integrity_checksum_located;
    obs::Counter* integrity_stale_stripes;
  };

  std::unique_ptr<Shard> make_shard(int index);
  // Placement of `chunk` under the routing state current for it. Callers
  // must hold the chunk's lock slot for the answer to be stable.
  Placement place(int64_t chunk) const;
  static Placement place_with(int64_t chunk, int shards, int64_t chunk_bytes);
  // Shared path for read/write: splits [offset, offset+len) into
  // per-chunk segments and runs each on its shard's array under the
  // covered chunk locks.
  void run_op(bool is_write, int64_t offset, std::span<uint8_t> rbuf,
              std::span<const uint8_t> wbuf);
  void restripe_worker();
  // Stands the migrator down (joined, resumable) so restart + journal
  // replay can run with no chunk copy in flight.
  void pause_restripe();
  // One ascending pass over un-migrated chunks; false = stand down with
  // the restripe still pending.
  bool restripe_pass();
  void finish_restripe();

  ShardSpec spec_;
  PoolOptions options_;
  obs::Registry* registry_;
  PoolMetrics metrics_;
  obs::Registry::CollectorId collector_id_ = 0;

  int64_t chunk_bytes_;
  int64_t chunks_per_shard_;

  // Fixed slot array + atomic count: readers index without locks; a new
  // shard is fully constructed before the count is published (release).
  std::array<std::unique_ptr<Shard>, kMaxShards> shards_;
  std::atomic<int> shard_count_{0};
  std::atomic<int64_t> capacity_{0};

  // Restripe routing state. All four are published (release) before the
  // new shard count, and place() pairs with that by loading shard_count_
  // before restriping_ — seeing the new count therefore implies seeing
  // restriping_ set. Per-chunk accuracy comes from the chunk locks, not
  // from cross-field atomicity.
  std::atomic<bool> restriping_{false};
  std::atomic<int> route_old_{0};   // shard count of the old placement
  std::atomic<int> route_new_{0};   // shard count of the new placement
  std::atomic<int64_t> restripe_watermark_{0};
  std::atomic<int64_t> restripe_chunks_{0};  // chunks to migrate (old total)

  raid::StripeLockTable chunk_locks_;

  // Serializes admin operations (add_shard, restart_all) against each
  // other. Never taken by the I/O or migrator paths.
  std::mutex admin_mu_;
  // Restart gate: run_op holds it shared for an op's whole lifetime;
  // restart_all holds it exclusive across restart + journal replay so
  // no foreground write can land on a torn stripe before recovery.
  std::shared_mutex io_gate_;

  // Restripe worker: at most one thread, resumable after a stall.
  mutable std::mutex restripe_mu_;
  std::condition_variable restripe_cv_;
  bool restripe_running_ = false;
  std::thread restripe_thread_;
  std::atomic<bool> stop_restripe_{false};
  TokenBucket restripe_throttle_;
};

}  // namespace dcode::volume

#include "volume/storage_pool.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <vector>

#include "codes/registry.h"
#include "obs/trace.h"
#include "raid/block_device.h"
#include "raid/journal.h"
#include "util/check.h"

namespace dcode::volume {

namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Chunks touched per op: small powers of two, overflow covers huge ops.
std::vector<int64_t> fanout_bounds() { return {1, 2, 4, 8, 16, 32, 64}; }

}  // namespace

StoragePool::StoragePool(ShardSpec spec, int shards, PoolOptions options,
                         obs::Registry* registry)
    : spec_(std::move(spec)),
      options_(options),
      registry_(registry != nullptr ? registry : &obs::Registry::global()),
      chunk_bytes_(options.chunk_bytes),
      chunk_locks_(kChunkLockSlots, nullptr),
      restripe_throttle_(options.restripe_rate_chunks_per_sec,
                         options.restripe_burst_chunks) {
  DCODE_CHECK(shards >= 1 && shards <= kMaxShards,
              "pool needs 1.." + std::to_string(kMaxShards) + " shards");
  DCODE_CHECK(chunk_bytes_ > 0, "chunk_bytes must be positive");

  metrics_.reads = &registry_->counter("pool.reads");
  metrics_.writes = &registry_->counter("pool.writes");
  metrics_.read_bytes = &registry_->counter("pool.read_bytes");
  metrics_.written_bytes = &registry_->counter("pool.written_bytes");
  metrics_.read_latency_ns = &registry_->histogram(
      "pool.read_latency_ns", obs::latency_bounds_ns());
  metrics_.write_latency_ns = &registry_->histogram(
      "pool.write_latency_ns", obs::latency_bounds_ns());
  metrics_.op_fanout =
      &registry_->histogram("pool.op_fanout", fanout_bounds());
  metrics_.chunk_lock_wait_ns = &registry_->histogram(
      "pool.chunk_lock_wait_ns", obs::latency_bounds_ns());
  metrics_.shards = &registry_->gauge("pool.shards");
  metrics_.capacity_bytes = &registry_->gauge("pool.capacity_bytes");
  metrics_.degraded_shards = &registry_->gauge("pool.degraded_shards");
  metrics_.rebuilding_shards = &registry_->gauge("pool.rebuilding_shards");
  metrics_.crashed_shards = &registry_->gauge("pool.crashed_shards");
  metrics_.restripe_in_progress =
      &registry_->gauge("pool.restripe.in_progress");
  metrics_.restripes = &registry_->counter("pool.restripes");
  metrics_.restripe_chunks_moved =
      &registry_->counter("pool.restripe.chunks_moved");
  metrics_.restripe_throttle_wait_ns = &registry_->histogram(
      "pool.restripe.throttle_wait_ns", obs::latency_bounds_ns());
  metrics_.integrity_checksum_mismatches = &registry_->counter(
      "pool.integrity.checksum_mismatches", {},
      "elements the checksum sidecar condemned across pool scrubs");
  metrics_.integrity_checksum_located = &registry_->counter(
      "pool.integrity.checksum_located", {},
      "scrub repairs localized via the checksum sidecar across shards");
  metrics_.integrity_stale_stripes = &registry_->counter(
      "pool.integrity.stale_stripes", {},
      "parity-consistent stale (rolled-back) stripes found by pool scrubs");

  for (int i = 0; i < shards; ++i) {
    shards_[static_cast<size_t>(i)] = make_shard(i);
  }
  DCODE_CHECK(shards_[0]->array->capacity() % chunk_bytes_ == 0,
              "chunk_bytes must divide the shard capacity (" +
                  std::to_string(shards_[0]->array->capacity()) + " bytes)");
  chunks_per_shard_ = shards_[0]->array->capacity() / chunk_bytes_;

  route_old_.store(shards, std::memory_order_relaxed);
  route_new_.store(shards, std::memory_order_relaxed);
  shard_count_.store(shards, std::memory_order_release);
  capacity_.store(shards * chunks_per_shard_ * chunk_bytes_,
                  std::memory_order_release);
  metrics_.shards->set(shards);
  metrics_.capacity_bytes->set(capacity());

  collector_id_ = registry_->add_collector([this] {
    PoolHealth h = health();
    metrics_.degraded_shards->set(h.degraded_shards);
    metrics_.rebuilding_shards->set(h.rebuilding_shards);
    metrics_.crashed_shards->set(h.crashed_shards);
    metrics_.restripe_in_progress->set(h.restriping ? 1 : 0);
  });
}

StoragePool::~StoragePool() {
  stop_restripe_.store(true, std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> lock(restripe_mu_);
    restripe_cv_.wait(lock, [&] { return !restripe_running_; });
    if (restripe_thread_.joinable()) restripe_thread_.join();
  }
  registry_->remove_collector(collector_id_);
  // Shards (pipeline before array, per member order) tear down on reset.
  for (auto& s : shards_) s.reset();
}

std::unique_ptr<StoragePool::Shard> StoragePool::make_shard(int index) {
  auto shard = std::make_unique<Shard>();
  shard->registry =
      &registry_->namespaced("shard" + std::to_string(index) + ".");
  raid::ArrayOptions array_options = spec_.array;
  if (!array_options.integrity_sidecar_dir.empty()) {
    // Sidecar files are named by disk index alone, so shards sharing one
    // directory would write each other's element slots.
    array_options.integrity_sidecar_dir += "/shard" + std::to_string(index);
    std::filesystem::create_directories(array_options.integrity_sidecar_dir);
  }
  shard->array = std::make_unique<raid::Raid6Array>(
      codes::make_layout(spec_.code, spec_.prime), spec_.element_size,
      spec_.stripes, spec_.threads, shard->registry,
      std::move(array_options));
  if (spec_.journal_slots > 0) {
    shard->array->enable_journal(spec_.journal_slots);
  }
  if (spec_.hot_spares > 0) {
    shard->array->add_hot_spares(spec_.hot_spares);
  }
  shard->pipeline = std::make_unique<raid::StripePipeline>(
      *shard->array, options_.pipeline);
  return shard;
}

StoragePool::Placement StoragePool::place_with(int64_t chunk, int shards,
                                               int64_t chunk_bytes) {
  return Placement{static_cast<int>(chunk % shards),
                   (chunk / shards) * chunk_bytes};
}

StoragePool::Placement StoragePool::place(int64_t chunk) const {
  // Load shard_count_ BEFORE restriping_. add_shard() publishes
  // restriping_=true (release) before shard_count_=n+1 (release), so a
  // thread whose acquire load here returns the new count is guaranteed
  // to also read restriping_==true (or false only after finish_restripe,
  // when both placements agree) and take the watermark branch. The
  // inverted order admits restriping_==false (stale) followed by
  // shard_count_==n+1 (fresh): the chunk would route with the new
  // placement while nothing has migrated.
  const int count = shard_count_.load(std::memory_order_acquire);
  if (restriping_.load(std::memory_order_acquire)) {
    const int n =
        chunk < restripe_watermark_.load(std::memory_order_acquire)
            ? route_new_.load(std::memory_order_acquire)
            : route_old_.load(std::memory_order_acquire);
    return place_with(chunk, n, chunk_bytes_);
  }
  return place_with(chunk, count, chunk_bytes_);
}

void StoragePool::run_op(bool is_write, int64_t offset,
                         std::span<uint8_t> rbuf,
                         std::span<const uint8_t> wbuf) {
  const int64_t len =
      is_write ? static_cast<int64_t>(wbuf.size())
               : static_cast<int64_t>(rbuf.size());
  DCODE_CHECK(offset >= 0 && len >= 0 && offset + len <= capacity(),
              "pool op out of range: offset " + std::to_string(offset) +
                  " len " + std::to_string(len));
  if (len == 0) return;
  // Shared side of the restart gate: restart_all() takes it exclusive
  // so no foreground op can reach a restarted shard before its journal
  // has been replayed.
  std::shared_lock<std::shared_mutex> gate(io_gate_);
  const int64_t t0 = now_ns();
  const int64_t first_chunk = offset / chunk_bytes_;
  const int64_t last_chunk = (offset + len - 1) / chunk_bytes_;

  // Covered chunks are processed in windows of at most kWindowSlots
  // simultaneously-held slot locks: a chunk's slot lock is held while
  // its segment runs (so the migrator never copies under it), but a
  // pool-capacity-sized op never pins every slot in the table at once —
  // which would stall the whole pool and overflow TSan's 64-held-locks
  // deadlock-detector capacity. Within a window the slots are distinct
  // (kWindowSlots <= kChunkLockSlots, consecutive chunks map to
  // consecutive slots) and locked in ascending order; all are released
  // before the next window is taken, so the lock graph stays acyclic.
  static_assert(kWindowSlots <= kChunkLockSlots);
  uint64_t shard_mask = 0;
  std::vector<size_t> slots;
  std::vector<std::unique_lock<std::mutex>> locks;
  for (int64_t w = first_chunk; w <= last_chunk; w += kWindowSlots) {
    const int64_t w_last = std::min(last_chunk, w + kWindowSlots - 1);
    slots.clear();
    for (int64_t c = w; c <= w_last; ++c) {
      slots.push_back(static_cast<size_t>(c % kChunkLockSlots));
    }
    std::sort(slots.begin(), slots.end());
    const int64_t lock_t0 = now_ns();
    locks.clear();
    locks.reserve(slots.size());
    for (size_t slot : slots) {
      locks.push_back(chunk_locks_.lock(static_cast<int64_t>(slot)));
    }
    metrics_.chunk_lock_wait_ns->observe(now_ns() - lock_t0);

    // Placement is stable for every chunk of the window while its locks
    // are held: the migrator advances a chunk's routing only under its
    // lock. Segments run on this thread straight on their shard's array,
    // one after another in chunk order; inside the array a write or a
    // degraded read takes its stripes' locks. The first error unwinds out
    // of the op, releasing the window's locks after the failed segment
    // returned.
    for (int64_t c = w; c <= w_last; ++c) {
      const int64_t seg_begin = std::max(offset, c * chunk_bytes_);
      const int64_t seg_end = std::min(offset + len, (c + 1) * chunk_bytes_);
      const Placement p = place(c);
      const int64_t shard_off = p.offset + (seg_begin - c * chunk_bytes_);
      const size_t buf_off = static_cast<size_t>(seg_begin - offset);
      const size_t seg_len = static_cast<size_t>(seg_end - seg_begin);
      raid::Raid6Array& array = *shards_[static_cast<size_t>(p.shard)]->array;
      shard_mask |= uint64_t{1} << p.shard;
      if (is_write) {
        array.write(shard_off, wbuf.subspan(buf_off, seg_len));
      } else {
        array.read(shard_off, rbuf.subspan(buf_off, seg_len));
      }
    }
    locks.clear();
  }

  metrics_.op_fanout->observe(
      static_cast<int64_t>(std::popcount(shard_mask)));
  const int64_t dur = now_ns() - t0;
  if (is_write) {
    metrics_.writes->inc();
    metrics_.written_bytes->inc(len);
    metrics_.write_latency_ns->observe(dur);
  } else {
    metrics_.reads->inc();
    metrics_.read_bytes->inc(len);
    metrics_.read_latency_ns->observe(dur);
  }
}

void StoragePool::write(int64_t offset, std::span<const uint8_t> data) {
  obs::Span span(obs::TraceLog::global(), "pool.write",
                 {{"offset", offset},
                  {"bytes", static_cast<int64_t>(data.size())}});
  run_op(/*is_write=*/true, offset, {}, data);
}

void StoragePool::read(int64_t offset, std::span<uint8_t> out) {
  obs::Span span(obs::TraceLog::global(), "pool.read",
                 {{"offset", offset},
                  {"bytes", static_cast<int64_t>(out.size())}});
  run_op(/*is_write=*/false, offset, out, {});
}

int StoragePool::flush() {
  int flushed = 0;
  const int n = shard_count();
  for (int i = 0; i < n; ++i) {
    shards_[static_cast<size_t>(i)]->pipeline->drain();
    flushed += shards_[static_cast<size_t>(i)]->array->flush();
  }
  return flushed;
}

// --- Online capacity add ---------------------------------------------------

void StoragePool::add_shard() {
  // Serialize against other admin ops: without the mutex two concurrent
  // add_shard() calls could both pass the restriping_ check and race on
  // the shards_[n] slot and the routing publication.
  std::lock_guard<std::mutex> admin(admin_mu_);
  const int n = shard_count();
  DCODE_CHECK(!restriping_.load(std::memory_order_acquire),
              "a restripe is already pending; wait_for_restripe() (and "
              "resume_restripe() after a stall) first");
  DCODE_CHECK(n < kMaxShards, "pool is at kMaxShards");

  std::unique_ptr<Shard> shard = make_shard(n);
  DCODE_CHECK(shard->array->capacity() == chunks_per_shard_ * chunk_bytes_,
              "new shard capacity mismatch");

  // Publish the restripe routing state *before* the new shard count;
  // place() pairs with this by loading shard_count_ before restriping_,
  // so an op that already sees n+1 shards must also see restriping_ set
  // and cannot route chunks with the new placement prematurely.
  restripe_chunks_.store(n * chunks_per_shard_, std::memory_order_relaxed);
  restripe_watermark_.store(0, std::memory_order_relaxed);
  route_old_.store(n, std::memory_order_relaxed);
  route_new_.store(n + 1, std::memory_order_relaxed);
  restriping_.store(true, std::memory_order_release);

  shards_[static_cast<size_t>(n)] = std::move(shard);
  shard_count_.store(n + 1, std::memory_order_release);
  metrics_.shards->set(n + 1);
  metrics_.restripes->inc();
  metrics_.restripe_in_progress->set(1);

  resume_restripe();
}

void StoragePool::resume_restripe() {
  if (!restriping_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(restripe_mu_);
  if (restripe_running_) return;
  if (restripe_thread_.joinable()) restripe_thread_.join();
  restripe_running_ = true;
  restripe_thread_ = std::thread([this] { restripe_worker(); });
}

void StoragePool::restripe_worker() {
  obs::Span span(obs::TraceLog::global(), "pool.restripe",
                 {{"chunks", restripe_chunks_.load()},
                  {"shards", route_new_.load()}});
  const bool done = restripe_pass();
  if (done) finish_restripe();
  std::lock_guard<std::mutex> lock(restripe_mu_);
  restripe_running_ = false;
  restripe_cv_.notify_all();
}

bool StoragePool::restripe_pass() {
  const int old_shards = route_old_.load(std::memory_order_acquire);
  const int new_shards = route_new_.load(std::memory_order_acquire);
  const int64_t total = restripe_chunks_.load(std::memory_order_acquire);
  std::vector<uint8_t> buf(static_cast<size_t>(chunk_bytes_));

  for (int64_t c = restripe_watermark_.load(std::memory_order_acquire);
       c < total; ++c) {
    if (stop_restripe_.load(std::memory_order_relaxed)) return false;
    const int64_t waited = restripe_throttle_.acquire(1.0);
    if (waited > 0) metrics_.restripe_throttle_wait_ns->observe(waited);

    const Placement from = place_with(c, old_shards, chunk_bytes_);
    const Placement to = place_with(c, new_shards, chunk_bytes_);
    for (int attempt = 0;; ++attempt) {
      std::unique_lock<std::mutex> lock = chunk_locks_.lock(c);
      try {
        // Chunks 0..old_shards-1 map to the same (shard, offset) under
        // both placements; skip the self-copy but still advance the
        // watermark so routing flips over in one monotone front. The
        // copy runs on the arrays like a foreground segment: a degraded
        // read of it waits on the stripe locks of in-flight neighbour
        // writes it decodes through.
        if (from.shard != to.shard || from.offset != to.offset) {
          shards_[static_cast<size_t>(from.shard)]->array->read(from.offset,
                                                                buf);
          shards_[static_cast<size_t>(to.shard)]->array->write(to.offset,
                                                               buf);
        }
        // Advance before unlocking: the next op on this chunk must
        // already route to the new placement, which now holds the data.
        restripe_watermark_.store(c + 1, std::memory_order_release);
        metrics_.restripe_chunks_moved->inc();
        break;
      } catch (const raid::PowerLossError&) {
        return false;  // stand down; resume after restart + recovery
      } catch (const raid::DiskFailedError&) {
        // The shard's own failover/rebuild machinery handles most disk
        // loss internally; what escapes here is a shard beyond its
        // tolerance mid-copy — retry around transient windows, then
        // stand down and let the operator repair + resume.
        if (attempt >= 3) return false;
      }
    }
  }
  return true;
}

void StoragePool::finish_restripe() {
  const int n = route_new_.load(std::memory_order_acquire);
  // Every chunk is below the watermark now, so old/new routing agree;
  // fold the routing state back to steady-state, then expose the new
  // capacity (ops admitted against it can only land on migrated space).
  route_old_.store(n, std::memory_order_relaxed);
  restriping_.store(false, std::memory_order_release);
  capacity_.store(n * chunks_per_shard_ * chunk_bytes_,
                  std::memory_order_release);
  metrics_.capacity_bytes->set(capacity());
  metrics_.restripe_in_progress->set(0);
}

bool StoragePool::wait_for_restripe() {
  {
    std::unique_lock<std::mutex> lock(restripe_mu_);
    restripe_cv_.wait(lock, [&] { return !restripe_running_; });
    if (restripe_thread_.joinable()) restripe_thread_.join();
  }
  return !restriping_.load(std::memory_order_acquire);
}

bool StoragePool::restripe_in_progress() const {
  std::lock_guard<std::mutex> lock(restripe_mu_);
  return restripe_running_;
}

void StoragePool::set_restripe_rate(double chunks_per_sec, double burst) {
  restripe_throttle_.set_rate(chunks_per_sec, burst);
}

// --- Per-shard access and pool-wide maintenance ----------------------------

raid::Raid6Array& StoragePool::shard_array(int i) {
  DCODE_CHECK(i >= 0 && i < shard_count(), "shard index out of range");
  return *shards_[static_cast<size_t>(i)]->array;
}

raid::StripePipeline& StoragePool::shard_pipeline(int i) {
  DCODE_CHECK(i >= 0 && i < shard_count(), "shard index out of range");
  return *shards_[static_cast<size_t>(i)]->pipeline;
}

PoolHealth StoragePool::health() const {
  PoolHealth h;
  const int n = shard_count();
  h.shards.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const raid::Raid6Array& a = *shards_[static_cast<size_t>(i)]->array;
    PoolHealth::ShardHealth sh;
    sh.failed_disks = a.failed_disk_count();
    sh.hot_spares = a.hot_spares();
    sh.rebuilding = a.rebuild_in_progress();
    sh.crashed = a.crashed();
    // A promoted spare whose pass stood down is as degraded as a failed
    // disk until its rebuild completes.
    if (a.degraded_disk_count() > 0) ++h.degraded_shards;
    if (sh.rebuilding) ++h.rebuilding_shards;
    if (sh.crashed) ++h.crashed_shards;
    h.shards.push_back(sh);
  }
  h.restriping = restriping_.load(std::memory_order_acquire);
  return h;
}

void StoragePool::pause_restripe() {
  stop_restripe_.store(true, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(restripe_mu_);
  restripe_cv_.wait(lock, [&] { return !restripe_running_; });
  if (restripe_thread_.joinable()) restripe_thread_.join();
  stop_restripe_.store(false, std::memory_order_relaxed);
}

int StoragePool::restart_all() {
  // A restarted shard's journal must be replayed before any new write
  // reaches it: an RMW write to a stripe the crash left torn folds the
  // stale parity error into its delta, and its commit closes the
  // crash's open intent — the inconsistency becomes invisible to
  // recovery and multi-element, so repair-scrub can't localize it.
  // Two kinds of writer can race that window: the migrator, paused
  // across restart + replay and only then allowed to continue, and
  // foreground pool ops, held off by the exclusive side of io_gate_
  // (run_op holds it shared for the op's whole lifetime, so acquiring
  // it exclusively also waits out every op already in flight).
  std::lock_guard<std::mutex> admin(admin_mu_);
  pause_restripe();
  int restarted = 0;
  {
    std::unique_lock<std::shared_mutex> gate(io_gate_);
    const int n = shard_count();
    for (int i = 0; i < n; ++i) {
      raid::Raid6Array& a = *shards_[static_cast<size_t>(i)]->array;
      const bool crashed = a.crashed();
      a.restart();  // clears a consumed crash and an unconsumed budget alike
      if (crashed) {
        if (a.journal_enabled()) a.journal_recover();
        ++restarted;
      }
    }
  }
  resume_restripe();
  return restarted;
}

int64_t StoragePool::journal_recover_all() {
  int64_t repaired = 0;
  const int n = shard_count();
  for (int i = 0; i < n; ++i) {
    raid::Raid6Array& a = *shards_[static_cast<size_t>(i)]->array;
    if (a.journal_enabled()) repaired += a.journal_recover();
  }
  return repaired;
}

int64_t StoragePool::journal_open_intents() const {
  int64_t open = 0;
  const int n = shard_count();
  for (int i = 0; i < n; ++i) {
    const raid::Raid6Array& a = *shards_[static_cast<size_t>(i)]->array;
    if (a.journal_enabled()) {
      open += static_cast<int64_t>(a.journal_open_stripes().size());
    }
  }
  return open;
}

bool StoragePool::wait_for_rebuilds() {
  bool all = true;
  const int n = shard_count();
  for (int i = 0; i < n; ++i) {
    all = shards_[static_cast<size_t>(i)]->array->wait_for_rebuild() && all;
  }
  return all;
}

int64_t StoragePool::scrub_all() {
  int64_t inconsistent = 0;
  const int n = shard_count();
  for (int i = 0; i < n; ++i) {
    raid::ScrubReport r =
        shards_[static_cast<size_t>(i)]->array->scrub_report();
    inconsistent += static_cast<int64_t>(r.inconsistent_stripes.size());
    metrics_.integrity_checksum_mismatches->inc(r.checksum_mismatches);
    metrics_.integrity_stale_stripes->inc(
        static_cast<int64_t>(r.stale_stripes.size()));
  }
  return inconsistent;
}

raid::ScrubReport StoragePool::scrub_repair_all() {
  raid::ScrubReport total;
  const int n = shard_count();
  for (int i = 0; i < n; ++i) {
    raid::ScrubReport r = shards_[static_cast<size_t>(i)]->array->scrub_report(
        {.repair = true});
    total.merge(r);
    metrics_.integrity_checksum_mismatches->inc(r.checksum_mismatches);
    metrics_.integrity_checksum_located->inc(r.elements_checksum_located);
    metrics_.integrity_stale_stripes->inc(
        static_cast<int64_t>(r.stale_stripes.size()));
  }
  return total;
}

}  // namespace dcode::volume

// Raid6Array: the RAID-6 policy layer.
//
// This is deliverable (a)'s top-level object and the substrate the
// examples and the read-speed experiments run on. Since the monolith
// split, the array is pure policy over two lower layers:
//
//   Raid6Array            — RMW and full-stripe writes, degraded paths,
//                           journal, spares, rebuild orchestration (this
//                           class)
//   StripeIoEngine        — batched element I/O: coalescing into ranged
//                           vectored transfers, per-disk parallelism,
//                           transient-error retries, element accounting
//   BlockDevice           — MemDisk (RAM), FileDisk (real files), or any
//                           other backend, each behind a composable
//                           FaultInjectingDevice decorator
//
// The logical address space is the concatenated row-major data stream
// (element granularity inside; byte granularity at the public API).
//
// Behaviour:
//  * write — every stripe runs one write executor. A write that covers
//    every data element of a stripe with no lost column reads nothing: it
//    encodes each parity from the caller's bytes in the layout's encode
//    order and writes the whole stripe in one batch, which is the plan of
//    plan_write(…, WritePolicy::kReconstructWrite). Every other stripe
//    write runs delta read-modify-write (read old data, write new data,
//    read old parity, write parity ^ delta), even where the planner's
//    auto policy would pick reconstruct-write: only the parity read lets
//    a partial write catch a misdirected element write to its own stripe
//    before it folds into parity (a full-stripe write's slip is caught by
//    the sidecar when the element is next read, or by a repair scrub).
//    On a stripe with a lost column the old values come from the
//    planner's degraded write plan (plan_degraded_write): the degraded
//    read of the written range rebuilds lost ones through its equation
//    choice, and only live data and live dirty parities are read and
//    written. There the old parity is read with the old data, before the
//    first device write, because the integrity repair a condemned
//    pre-read triggers must decode the lost column, which a half-updated
//    stripe does not allow.
//  * read — healthy elements stream straight from the disks; lost ones are
//    rebuilt through the degraded-read planner's equation choices.
//  * scratch — the foreground paths allocate no element buffers: fully
//    covered elements move straight between the devices and the caller's
//    buffer, everything else (old data, deltas, parity, partial edges,
//    extra equation members) uses a per-thread slot buffer, and the
//    unpeelable full-stripe decode reuses whole-stripe scratch from the
//    array's free list. Their index and pointer tables, plans included,
//    are per-thread as well, and so are a recovery chain's peel schedule
//    and the pointers each equation solve gathers, so once warm, on a
//    one-worker pool, writes and reads allocate nothing at all, healthy
//    or with one or two lost columns (fanning a batch out across more
//    workers allocates in the pool's task queue; the unpeelable
//    full-stripe decode allocates in the codec's elimination).
//  * fail_disk / replace_disk / rebuild — fault injection and repair.
//    Rebuild is one watermark pass (background_rebuild.cc), run by the
//    hot-spare worker or by rebuild(); a stripe whose only lost column is
//    a target reads just the minimal-read recovery plan (paper §III-D),
//    and survivors the checksum sidecar condemns are decoded as erasures.
//  * scrub — verifies every parity equation, returning the number of
//    inconsistent stripes (silent-corruption detection).
//  * every repair site (scrub, the write path's clean and salvage,
//    degraded loads, journal replay, rebuild) shares one set of
//    stripe-repair steps (stripe_repair.cc).
//  * write-hole protection — with enable_journal(), every stripe update
//    is bracketed by write-ahead intent records; inject_power_loss_after()
//    simulates a crash after N more element writes, restart() brings the
//    array back up, and journal_recover() re-encodes exactly the stripes
//    with open intents (see raid/journal.h).
//
// Thread safety: read() and write() may be called from many threads.
// Writes and degraded reads serialize per stripe: each stripe they touch
// is served under its lock, one stripe at a time, so a degraded read
// never decodes through a neighbouring element's half-applied write.
// Healthy reads take no lock and read only the elements they return.
// Concurrent I/O to the same bytes may tear, as on any block device.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "codes/code_layout.h"
#include "codes/stripe.h"
#include "obs/metrics.h"
#include "raid/address_map.h"
#include "raid/array_metrics.h"
#include "raid/array_options.h"
#include "raid/health_monitor.h"
#include "raid/journal.h"
#include "raid/planner.h"
#include "raid/recovery.h"
#include "raid/stripe_io_engine.h"
#include "raid/stripe_lock_table.h"
#include "util/thread_pool.h"
#include "util/token_bucket.h"

namespace dcode::raid {

// Result of a full parity scrub: every stripe whose parity equations do
// not match its data, by stripe id (what a repair pass needs, not just a
// count). On a degraded array, equations with a member on a dead disk
// cannot be evaluated and are tallied in equations_skipped instead of
// aborting the scrub. Repair mode additionally localizes single-element
// corruptions (see ScrubOptions) and reports what it could fix.
struct ScrubReport {
  int64_t stripes_checked = 0;
  std::vector<int64_t> inconsistent_stripes;  // ascending, as *found*
                                              // (before any repair)
  int64_t equations_checked = 0;
  int64_t equations_skipped = 0;   // member on a failed/rebuilding disk
  int64_t elements_located = 0;    // corruptions pinpointed (any channel)
  int64_t elements_repaired = 0;   // ...and rewritten + re-verified
  int64_t stripes_unrepairable = 0;
  // The two distinct reasons an inconsistent stripe goes unrepaired,
  // previously conflated in stripes_unrepairable (their sum):
  int64_t stripes_skipped_degraded = 0;     // dead-disk equations made the
                                            // membership comparison unsound
  int64_t stripes_family_disagreement = 0;  // both families evaluable but
                                            // their syndromes disagree
                                            // (>1 corrupt element)
  // Checksum-sidecar channel (zero when ScrubOptions::use_checksums is
  // off):
  int64_t checksum_mismatches = 0;        // elements the sidecar condemned
  int64_t elements_checksum_located = 0;  // repairs localized by checksum
                                          // (subset of elements_located)
  int64_t elements_stale = 0;  // payload matched the *previous* checksum
                               // (lost/stale write)
  // Parity-consistent stripes whose elements carry stale checksums: a
  // whole-stripe lost write (data AND parity rolled back together) is
  // invisible to every parity equation and unrecoverable from redundancy
  // — reported here, never repaired, never counted inconsistent.
  std::vector<int64_t> stale_stripes;

  // Sums every counter and appends both stripe lists: the one way partial
  // reports (stripe → chunk → array, shard → pool) are combined.
  void merge(const ScrubReport& o) {
    stripes_checked += o.stripes_checked;
    inconsistent_stripes.insert(inconsistent_stripes.end(),
                                o.inconsistent_stripes.begin(),
                                o.inconsistent_stripes.end());
    equations_checked += o.equations_checked;
    equations_skipped += o.equations_skipped;
    elements_located += o.elements_located;
    elements_repaired += o.elements_repaired;
    stripes_unrepairable += o.stripes_unrepairable;
    stripes_skipped_degraded += o.stripes_skipped_degraded;
    stripes_family_disagreement += o.stripes_family_disagreement;
    checksum_mismatches += o.checksum_mismatches;
    elements_checksum_located += o.elements_checksum_located;
    elements_stale += o.elements_stale;
    stale_stripes.insert(stale_stripes.end(), o.stale_stripes.begin(),
                         o.stale_stripes.end());
  }
};

struct ScrubOptions {
  // Localize-and-rewrite single-element corruption: an element is charged
  // when the set of unsatisfied equations exactly matches the set of
  // equations containing it (both parity families agree) and every
  // unsatisfied syndrome carries the same XOR delta.
  bool repair = false;
  // Consult the checksum sidecar first: condemned elements are
  // reconstructed from any surviving equation directly, so repair no
  // longer needs both parity families' syndromes to agree — two-family
  // disagreements (multiple corrupt elements) become localized repairs,
  // and identity tags expose whole-stripe stale writes parity cannot
  // see. Off = the parity-only contract (for A/B tests).
  bool use_checksums = true;
};

class Raid6Array : private WriteGate {
 public:
  // `registry` receives the array's metrics (counters, histograms,
  // per-disk element access counters); nullptr means the process-global
  // obs::Registry. Metrics are additive across arrays sharing a registry.
  Raid6Array(std::unique_ptr<codes::CodeLayout> layout, size_t element_size,
             int64_t stripes, unsigned threads = 0,
             obs::Registry* registry = nullptr, ArrayOptions options = {});
  ~Raid6Array();

  const codes::CodeLayout& layout() const { return *layout_; }
  size_t element_size() const { return element_size_; }
  int64_t stripes() const { return stripes_; }
  // Usable capacity in bytes.
  int64_t capacity() const {
    return stripes_ * layout_->data_count() *
           static_cast<int64_t>(element_size_);
  }

  // Byte-addressed user I/O over the logical data space. write() reads
  // the caller's bytes more than once (for the parity delta, then for the
  // device write and its checksum), so they must not change until it
  // returns.
  void write(int64_t offset, std::span<const uint8_t> data);
  void read(int64_t offset, std::span<uint8_t> out);

  // Makes every acknowledged write durable on every live device (fsync
  // for file-backed disks). Returns the number of devices flushed.
  int flush() { return engine_.flush(); }

  // Fault injection and repair.
  void fail_disk(int disk);
  void replace_disk(int disk);  // swap in a blank disk (still failed data!)

  // Hot spares: blank standby disks. While spares remain, a declared
  // failure (manual fail_disk() or a health-monitor escalation)
  // immediately promotes one and starts the rebuild worker on it. Under
  // ArrayOptions::background_rebuild the worker is paced by the rebuild
  // throttle and fail_disk() returns at once; otherwise it runs unpaced
  // and fail_disk() waits for it (wait_for_rebuild()). Either way the
  // array never stays degraded while spares last (a real controller's
  // behaviour).
  void add_hot_spares(int count);
  int hot_spares() const {
    return hot_spares_.load(std::memory_order_relaxed);
  }
  // Reconstructs the contents of every replaced disk by running the
  // background worker's watermark pass to completion on the calling
  // thread (after joining any worker). Unlike the worker it ignores the
  // rebuild throttle and rebuilds a window of up to 48 locked stripes at
  // a time on the array pool. Call after replace_disk; throws if more disks
  // are unrecovered than the code tolerates, PowerLossError when a crash
  // stops the pass, and std::logic_error when a stripe cannot be decoded.
  void rebuild();
  // Blocks until no background rebuild worker is active and no failure
  // escalation (spare promotion + rebuild start, run by whichever thread
  // detected the failure — often a foreground op) is in flight. Returns
  // true when every replaced disk has been fully reconstructed.
  bool wait_for_rebuild();
  bool rebuild_in_progress() const;
  // Retunes the background rebuild throttle (stripes/second; <= 0 =
  // unthrottled). Applies to the current pass too.
  void set_rebuild_rate(double stripes_per_sec, double burst = 8.0);

  // The health state machine watching this array's devices.
  HealthMonitor& health() { return health_; }
  const HealthMonitor& health() const { return health_; }

  // Parity scrub: returns the number of stripes whose parities are
  // inconsistent with their data.
  int64_t scrub();
  // Like scrub(), but reports *which* stripes are inconsistent so a
  // repair pass (or a metrics consumer) can act per stripe — and, with
  // ScrubOptions::repair, localizes and rewrites single-element silent
  // corruptions. Works on a degraded array (unverifiable equations are
  // skipped and counted). Must not run concurrently with writes or an
  // active rebuild: scrub chunks execute on the same pool that user
  // batches fan out on, so taking stripe locks here could deadlock —
  // quiesce first (wait_for_rebuild()).
  ScrubReport scrub_report(ScrubOptions options = {});

  int failed_disk_count() const;
  const DiskHandle& disk(int d) const { return engine_.disk(d); }
  DiskHandle& disk(int d) { return engine_.disk(d); }
  // The batched I/O layer under this array (device op counts).
  StripeIoEngine& io_engine() { return engine_; }
  const StripeIoEngine& io_engine() const { return engine_; }
  void reset_stats();

  // --- Observability ------------------------------------------------------
  // The registry this array's metrics live in.
  obs::Registry& metrics_registry() const { return *metrics_.reg; }
  // Cumulative element accesses (reads + writes) per physical disk since
  // construction / the last reset_stats() — the runtime equivalent of the
  // simulator's sim::IoStats per-disk tallies; the engine accounts one
  // count per element no matter how transfers were coalesced, so the two
  // units coincide.
  std::vector<int64_t> per_disk_element_accesses() const;
  // Copies each disk's cumulative element counters and fault state into
  // labeled gauges (raid.disk.reads{disk=N}, .writes, .bytes_read,
  // .bytes_written, .failed), plus backend-labeled device-level op gauges
  // (raid.disk.device_read_ops{backend=...,disk=N}, .device_write_ops —
  // one count per ranged transfer, the coalescing ratio's denominator) —
  // an explicit pull for exposition; call right before scraping/printing.
  void publish_disk_metrics(obs::Registry& registry) const;

  // --- Write-hole protection ---------------------------------------------
  // Turns on write-ahead intent journaling for all subsequent writes.
  void enable_journal(int slots = 64);
  bool journal_enabled() const { return journal_.has_value(); }
  // After `element_writes` more element-granular disk writes, every
  // further write throws PowerLossError (data already written persists).
  void inject_power_loss_after(int64_t element_writes);
  bool crashed() const { return crashed_.load(std::memory_order_relaxed); }
  // Clears the crashed state (reboot). Disk contents and the journal's
  // intent records survive; call journal_recover() next.
  void restart();
  // Re-encodes the parity of every stripe with an open intent record and
  // clears the journal. Returns the number of stripes repaired.
  int64_t journal_recover();
  // Open intent records (for tests/monitoring).
  std::vector<int64_t> journal_open_stripes() const;

 private:
  // How many times an I/O path re-plans around a disk that failed
  // mid-operation before giving up. Each genuine failure consumes one
  // attempt, so anything past the code's fault tolerance exits quickly.
  static constexpr int kMaxFailoverAttempts = 4;
  // Most stripe-lock slots an array allocates: 4096 cache lines, 256 KiB.
  static constexpr int64_t kMaxStripeLockSlots = 4096;

  // WriteGate: the engine admits every element write through here, so
  // injected power loss sees the same write stream the monolith produced.
  // (Defined with the rest of the crash machinery in array_journal.cc.)
  bool armed() const override;
  void admit() override;

  // The byte range of element `g` covered by a user op at [offset,
  // offset+len): *elem_begin within the element, *src_begin within the
  // user buffer.
  static void overlay_range(int64_t g, int64_t offset, int64_t len,
                            int64_t esize, size_t* elem_begin,
                            size_t* src_begin, size_t* out_len);

  void ensure_online() const;
  bool needs_rebuild(int d) const {
    return needs_rebuild_[static_cast<size_t>(d)].load(
        std::memory_order_acquire);
  }
  bool disk_degraded(int d) const {
    return engine_.disk(d).failed() || needs_rebuild(d);
  }
  // Per-stripe degradedness: a rebuilding disk serves stripes below its
  // watermark normally and only counts as degraded above it — what lets
  // foreground reads go back to the fast path behind the rebuild front.
  bool disk_degraded_for_stripe(int d, int64_t stripe) const {
    if (engine_.disk(d).failed()) return true;
    return needs_rebuild(d) && stripe >= engine_.disk(d).readable_stripes();
  }
  // Degraded for ANY stripe in [first_stripe, last_stripe] — the
  // watermark is monotonic, so checking the last stripe suffices.
  bool disk_degraded_for_range(int d, int64_t last_stripe) const {
    return disk_degraded_for_stripe(d, last_stripe);
  }
  // Locks the (sharded) mutex serializing mutators of `stripe`; blocked
  // time lands in raid.stripe_lock_wait_ns.
  std::unique_lock<std::mutex> stripe_lock(int64_t stripe) {
    return stripe_locks_.lock(stripe);
  }

  // Escalation handler (health-monitor callback): promotes a hot spare
  // into the failed slot when one is available and starts/extends the
  // background rebuild. Never rebuilds inline — it can run on a pool
  // worker mid-batch. The monitor drops a late fail-stop from a device a
  // spare replaced, so every call is a failure of the slot's device.
  void handle_disk_failure(int disk);
  // Claims a spare (if any) and swaps a blank into `disk`'s slot with the
  // watermark protocol (needs_rebuild -> watermark 0 -> replace). Returns
  // true when a spare was promoted.
  bool try_promote_spare(int disk);
  // --- shared stripe-repair steps (stripe_repair.cc) ---------------------
  // One stripe's buffers and erasure bookkeeping, reused across stripes.
  struct StripeScratch {
    StripeScratch(const codes::CodeLayout& layout, size_t element_size);
    char& distrusted(codes::Element e) {
      return distrust[static_cast<size_t>(e.row) * dead.size() +
                      static_cast<size_t>(e.col)];
    }
    codes::Stripe s;
    std::vector<char> dead;      // per column: degraded for this stripe
    bool any_dead = false;
    std::vector<char> distrust;  // per element: condemned by the sidecar
    std::vector<codes::Element> lost;      // last decode's erasures
    std::vector<codes::Element> repaired;  // ...of which survivors
    std::vector<StripeIoEngine::ReadOp> rops;
  };
  // Lends one StripeScratch from the array's free list for a scope and
  // takes it back after. A StripeScratch points at this array's layout,
  // so the array owns its free list; a per-thread cache could outlive
  // the layout it points at. Contents are left from the last user:
  // load_stripe_degraded overwrites every element.
  class ScratchLease {
   public:
    explicit ScratchLease(Raid6Array& array);
    ~ScratchLease();
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;
    StripeScratch& operator*() { return *w_; }
    StripeScratch* operator->() { return w_.get(); }

   private:
    Raid6Array& array_;
    std::unique_ptr<StripeScratch> w_;
  };
  // `count` element slots from this thread's slot buffer, each
  // slot_bytes() long and 64-byte aligned; uninitialised, and valid until
  // the thread's next call. Raw bytes hold no layout pointer, so one
  // buffer, grown on demand and freed when the thread exits, serves
  // every array the thread touches. Callers never nest.
  uint8_t* element_slots(size_t count) const;
  size_t slot_bytes() const { return (element_size_ + 63) & ~size_t{63}; }
  // The index and pointer tables of one foreground stripe op (RMW write,
  // healthy read, degraded read). Per thread, like element_slots(): each
  // call clears and refills what it uses, so once warm they never
  // reallocate, and since they hold no layout pointer one set serves
  // every array the thread touches. Callers never nest, except that
  // read() keeps its `failed` list across its degraded stripes.
  struct OpTables {
    // Where a degraded plan keeps one cell of its stripe.
    struct Cell {
      uint8_t* p = nullptr;
      int slot = -1;
      bool filled = false;
    };
    std::vector<AddressMap::Location> locs;
    std::vector<codes::Element> written;
    std::vector<int> closure;
    std::vector<char> closure_marks;
    std::vector<StripeIoEngine::ReadOp> rops;
    std::vector<StripeIoEngine::WriteOp> wops;
    std::vector<const uint8_t*> fresh;
    // Per cell (row * cols + col): its delta, or its new value in an
    // encoded stripe.
    std::vector<const uint8_t*> delta;
    std::vector<const uint8_t*> members;
    std::vector<int> pdisks;
    std::vector<char> flags;  // RMW: per dirty parity, value captured
    std::vector<Cell> cells;
    std::vector<int> failed;  // disks degraded for the stripe or range
    IoPlan plan;              // a degraded read or old-value plan
    std::vector<char> plan_cells;  // ...its per-cell flags
    std::vector<codes::Element> plan_lost;
  };
  // OpTables::flags values: a dirty parity's old value read by the RMW
  // parity pre-read, or already in a degraded stripe's first batch; or
  // its new value encoded from a full-stripe write's data.
  static constexpr char kParityRead = 1;
  static constexpr char kParityPlanned = 2;
  static constexpr char kParityEncoded = 3;
  static OpTables& op_tables();
  // Marks the columns degraded for `stripe` dead and reads every row of
  // the live ones (engine-verified or raw); clears w.distrust. Returns
  // the element reads issued.
  int64_t read_live_columns(int64_t stripe, StripeScratch& w, bool verify);
  // Distrusts every corrupt, misdirected or stale live element; returns
  // how many (`stale` receives that subset).
  int64_t classify_stripe(int64_t stripe, StripeScratch& w,
                          int64_t* stale = nullptr) const;
  // Re-derives each distrusted element through an equation whose other
  // members are live and trusted, keeping it only if it re-verifies, to a
  // fixpoint. Returns the repaired elements.
  std::vector<codes::Element> reconstruct_distrusted(int64_t stripe,
                                                     StripeScratch& w) const;
  // Erasure-decodes dead ∪ distrusted in one pass. Every re-derived
  // survivor must re-verify, else all survivors are rolled back and this
  // returns false; on success w.repaired lists them.
  bool decode_erasures(int64_t stripe, StripeScratch& w) const;
  // read_live_columns + decode of the dead columns: the whole stripe.
  void load_stripe_degraded(int64_t stripe, StripeScratch& w,
                            bool verify = true);

  // --- rebuild (background_rebuild.cc) ------------------------------------
  // Spawns the worker unless a pass holds the rebuild slot (that pass
  // rescans for new targets). The worker's passes are paced only under
  // ArrayOptions::background_rebuild.
  void start_background_rebuild();
  void background_rebuild_worker();
  // Runs passes until no target is left, then frees the rebuild slot in
  // the same critical section as that empty rescan; frees it and
  // rethrows when a pass stands down.
  void run_rebuild_passes(bool paced);
  // One watermark pass over `targets`; returns early only on shutdown. A
  // paced pass takes one rebuild-throttle token per stripe, one stripe
  // at a time; an unpaced one rebuilds windows of stripes on the pool.
  void rebuild_pass(const std::vector<int>& targets, bool paced);
  // Rebuilds one stripe; `plans` holds a minimal-read plan per logical
  // column (empty = none). Returns the element reads it cost.
  int64_t rebuild_stripe(int64_t stripe, const std::vector<RecoveryPlan>& plans,
                         StripeScratch& w);
  // Marks targets whose watermark reached stripes_ fully rebuilt.
  void finish_rebuilt_targets(const std::vector<int>& targets);

  // --- write-path integrity repair (scrub.cc) -----------------------------
  // Re-reads `stripe` raw, classifies every live element against the
  // sidecar, reconstructs the condemned ones from surviving equations and
  // writes them back. Called under the stripe lock when an RMW pre-read
  // fails verification (folding a bad old value into a parity delta would
  // corrupt parity).
  void clean_stripe_integrity(int64_t stripe);
  // Last-resort write path when clean_stripe_integrity cannot converge
  // (e.g. a misdirected data write detected at the RMW parity pre-read:
  // the victim column is condemned while every parity that could
  // reconstruct it is still pre-update, so neither channel can repair
  // it in place). Reconstructs the salvageable old state, overlays the
  // caller's data, re-encodes parity from scratch and rewrites the
  // stripe so every sidecar record is refreshed.
  void salvage_stripe_rewrite(int64_t stripe, int64_t g, int64_t stripe_end,
                              int64_t offset, std::span<const uint8_t> data);
  // The one write executor for the elements [g, stripe_end] of one
  // stripe: delta RMW, healthy or with lost columns, except that a write
  // covering every data element of a healthy stripe encodes its parity
  // and reads nothing; the caller holds the stripe's lock.
  void write_stripe_rmw(int64_t stripe, int64_t g, int64_t stripe_end,
                        int64_t offset, std::span<const uint8_t> data);
  // write_stripe_rmw's first phase on a stripe with a lost column (the
  // disks in op_tables().failed): plans the old values of its n written
  // elements [g, g + n) with plan_degraded_read, takes the slot region,
  // and in one verified batch fills old-data slot i for each and the
  // parity slot of each live dirty parity (flagged kParityPlanned), all
  // before the first device write. Returns the region's base.
  uint8_t* read_old_values_degraded(int64_t stripe, int64_t g, size_t n);
  // Runs op_tables().plan, a degraded read plan of one stripe planned
  // around `failed`, into op_tables().cells. A cell the caller placed
  // (p set, or a slot below `slots`) keeps its place; every other cell
  // the plan reads or rebuilds takes a slot after them, in one
  // element_slots() region whose base this returns. The plan's reads and
  // every other live placed cell go out in one verified batch, then its
  // reconstructions run in plan order; a plan with a full-stripe decode
  // (equation -1) fills every cell from one load_stripe_degraded
  // instead. Each cell produced is marked filled.
  uint8_t* run_degraded_plan(int64_t stripe, const std::vector<int>& failed,
                             int slots);
  void read_healthy(int64_t first, int64_t last, int64_t offset,
                    std::span<uint8_t> out);
  // Degraded read of the elements [g, stripe_end] of one stripe, planned
  // around `failed`; the caller holds the stripe's lock.
  void read_stripe_degraded(int64_t stripe, int64_t g, int64_t stripe_end,
                            int64_t offset, std::span<uint8_t> out,
                            const std::vector<int>& failed);

  std::unique_ptr<codes::CodeLayout> layout_;
  size_t element_size_;
  int64_t stripes_;
  // The one copy of the configuration; the engine reads it by reference,
  // so it is constructed before and destroyed after engine_.
  ArrayOptions options_;
  AddressMap map_;
  IoPlanner planner_;
  ThreadPool pool_;
  ArrayMetrics metrics_;
  StripeIoEngine engine_;
  HealthMonitor health_;
  // Disks replaced but not yet rebuilt (their contents are blank above
  // the watermark). Atomic: read on pool workers, flipped by promotion
  // and the rebuild pass.
  std::vector<std::atomic<bool>> needs_rebuild_;

  // Stripe-level serialization: foreground writes, degraded reads, the
  // rebuild pass, and journal recovery each lock the stripe they touch.
  // One slot per stripe, each on its own cache line, up to
  // kMaxStripeLockSlots; a larger array shares slots by modulo, which
  // only serializes unrelated stripes. rebuild()'s pass alone holds
  // several at once: a window of at most slot-count consecutive stripes
  // (distinct slots), locked in ascending order by the thread running
  // the pass. Pool tasks never take these — the pass hands its locked
  // stripes to pool workers — so there is no lock/pool cycle.
  StripeLockTable stripe_locks_;

  // Idle StripeScratch for the foreground degraded paths (ScratchLease).
  std::mutex scratch_mu_;
  std::vector<std::unique_ptr<StripeScratch>> scratch_free_;

  std::atomic<int> hot_spares_{0};
  // Serializes spare promotion against rebuild completion, so a disk
  // re-failing exactly as its rebuild finishes cannot interleave the
  // needs_rebuild/watermark updates. Only leaf locks (a device's, the
  // health monitor's per-disk ones) are acquired under it.
  std::mutex promote_mu_;

  // The rebuild slot: at most one thread runs passes at a time — the
  // background worker (restarted on demand) or a rebuild() caller.
  // Promotions while a pass runs are picked up by the between-pass
  // rescan under rebuild_mu_. One pass at a time also makes the pass the
  // only holder of more than one stripe lock.
  mutable std::mutex rebuild_mu_;
  std::condition_variable rebuild_cv_;
  bool rebuild_running_ = false;
  // handle_disk_failure() calls in progress (guarded by rebuild_mu_):
  // between a promotion and its worker start, rebuild_running_ alone
  // would let wait_for_rebuild() return early.
  int escalations_in_flight_ = 0;
  std::thread rebuild_thread_;
  std::atomic<bool> stop_rebuild_{false};
  TokenBucket rebuild_throttle_;

  std::optional<WriteIntentJournal> journal_;
  // Atomics: rebuild writes flow through the thread pool.
  std::atomic<int64_t> crash_countdown_{-1};  // -1 = no injection armed
  std::atomic<bool> crashed_{false};
};

}  // namespace dcode::raid

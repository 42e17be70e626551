// StoragePool tests: chunk/shard address routing (property: pool-level
// read(write(x)) == x across chunk boundaries, shard boundaries, and
// mid-restripe), online capacity add, aggregated health and namespaced
// metrics, and the end-to-end invariant — data written before a capacity
// add reads back bit-identical during and after the background restripe
// while one shard concurrently fails and rebuilds under traffic.
//
// The whole suite re-runs with DCODE_DISK_BACKEND=file (ctest leg
// storage_pool_test_file_backend), so every property here holds on every
// device backend.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "codes/registry.h"
#include "parking_disk.h"
#include "raid/address_map.h"
#include "raid/file_disk.h"
#include "raid/integrity.h"
#include "raid/journal.h"
#include "util/rng.h"
#include "volume/storage_pool.h"
#include "xorops/checksum.h"

namespace dcode::volume {
namespace {

using raid::ParkingDisk;
using raid::park_my_writes;
using raid::WriteParking;

ShardSpec small_spec() {
  ShardSpec spec;
  spec.prime = 5;
  spec.element_size = 512;
  spec.stripes = 16;
  return spec;
}

int64_t shard_capacity(const ShardSpec& spec) {
  auto layout = codes::make_layout(spec.code, spec.prime);
  return spec.stripes * layout->data_count() *
         static_cast<int64_t>(spec.element_size);
}

PoolOptions chunked(const ShardSpec& spec, int chunks_per_shard) {
  PoolOptions opts;
  opts.chunk_bytes = shard_capacity(spec) / chunks_per_shard;
  opts.pipeline.workers = 2;
  return opts;
}

std::vector<uint8_t> random_bytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> out(n);
  Pcg32 rng(seed);
  rng.fill_bytes(out.data(), out.size());
  return out;
}

// Sidecar files are named by disk index, so each shard keeps them in its
// own directory. Shared files would hold whichever shard last wrote an
// element slot, and a reload would cross-load the other shard's records.
TEST(StoragePool, ShardSidecarsReloadIntoTheirOwnShard) {
  std::string tmpl = ::testing::TempDir() + "dcode_pool_sidecar_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
  const std::string dir = tmpl;
  ShardSpec spec = small_spec();
  spec.array.integrity_sidecar_dir = dir + "/sidecars";
  spec.array.device_factory = [dir](int id, size_t size) {
    static std::atomic<int> serial{0};
    return std::unique_ptr<raid::BlockDevice>(std::make_unique<raid::FileDisk>(
        id, size, dir + "/disk" + std::to_string(serial++) + ".img",
        raid::FileDisk::Options{.reuse = false, .unlink_on_close = true}));
  };
  {
    obs::Registry reg;
    StoragePool pool(spec, 2, chunked(spec, 8), &reg);
    pool.write(0, random_bytes(static_cast<size_t>(pool.capacity()), 77));
    pool.flush();

    for (int s = 0; s < 2; ++s) {
      raid::Raid6Array& array = pool.shard_array(s);
      const int64_t elements = array.stripes() * array.layout().rows();
      std::vector<uint8_t> elem(spec.element_size);
      for (int d = 0; d < array.layout().cols(); ++d) {
        raid::ChecksumStore reloaded(elements);
        reloaded.attach_file(dir + "/sidecars/shard" + std::to_string(s) +
                             "/disk" + std::to_string(d) + ".sum");
        for (int64_t e = 0; e < elements; ++e) {
          array.disk(d).read(static_cast<uint64_t>(e) * spec.element_size,
                             elem);
          ASSERT_EQ(reloaded.classify(
                        e, xorops::checksum64(elem.data(), elem.size())),
                    raid::IntegrityVerdict::kOk)
              << "shard " << s << " disk " << d << " element " << e;
        }
      }
    }
  }  // the pool closes its device files before the directory goes
  std::filesystem::remove_all(dir);
}

TEST(StoragePool, CapacityAndRoutingShape) {
  ShardSpec spec = small_spec();
  obs::Registry reg;
  StoragePool pool(spec, 3, chunked(spec, 8), &reg);
  EXPECT_EQ(pool.shard_count(), 3);
  EXPECT_EQ(pool.capacity(), 3 * shard_capacity(spec));
  EXPECT_EQ(pool.chunks_per_shard(), 8);
  EXPECT_EQ(reg.gauge("pool.shards").value(), 3);
  EXPECT_EQ(reg.gauge("pool.capacity_bytes").value(), pool.capacity());
}

// The core property: any sequence of pool writes reads back exactly, no
// matter how the byte ranges land on chunk and shard boundaries. The
// shadow is authoritative; ranges are drawn to hit boundaries often.
TEST(StoragePool, ReadWriteRoundTripProperty) {
  ShardSpec spec = small_spec();
  obs::Registry reg;
  StoragePool pool(spec, 3, chunked(spec, 8), &reg);
  const int64_t cap = pool.capacity();
  const int64_t chunk = pool.chunk_bytes();
  std::vector<uint8_t> shadow(static_cast<size_t>(cap), 0);
  pool.write(0, shadow);  // known baseline

  Pcg32 rng(42);
  for (int i = 0; i < 200; ++i) {
    int64_t offset;
    int64_t len;
    switch (i % 4) {
      case 0:  // straddle a chunk boundary
        offset = (1 + static_cast<int64_t>(rng.next_u32()) %
                          (cap / chunk - 1)) * chunk -
                 1 - static_cast<int64_t>(rng.next_u32() % 64);
        len = 2 + static_cast<int64_t>(rng.next_u32() % 128);
        break;
      case 1:  // whole chunks (shard-aligned fan-out)
        offset = (static_cast<int64_t>(rng.next_u32()) % (cap / chunk)) * chunk;
        len = chunk;
        break;
      case 2:  // multi-chunk span (crosses >= 2 shards)
        offset = static_cast<int64_t>(rng.next_u32()) % (cap - 3 * chunk);
        len = 2 * chunk + static_cast<int64_t>(rng.next_u32() % chunk);
        break;
      default:  // small random
        offset = static_cast<int64_t>(rng.next_u32()) % (cap - 512);
        len = 1 + static_cast<int64_t>(rng.next_u32() % 512);
        break;
    }
    offset = std::clamp<int64_t>(offset, 0, cap - 1);
    len = std::min(len, cap - offset);
    std::vector<uint8_t> data =
        random_bytes(static_cast<size_t>(len), 1000 + i);
    if (rng.next_u32() % 2 == 0) {
      pool.write(offset, data);
      std::memcpy(shadow.data() + offset, data.data(), data.size());
    }
    std::vector<uint8_t> got(static_cast<size_t>(len));
    pool.read(offset, got);
    ASSERT_EQ(0, std::memcmp(got.data(), shadow.data() + offset,
                             got.size()))
        << "mismatch at offset " << offset << " len " << len;
  }

  // Full-space verify, then prove the traffic really fanned out.
  std::vector<uint8_t> all(static_cast<size_t>(cap));
  pool.read(0, all);
  EXPECT_EQ(all, shadow);
  for (int s = 0; s < pool.shard_count(); ++s) {
    const std::string p = "shard" + std::to_string(s) + ".";
    EXPECT_GT(reg.counter(p + "raid.writes").value(), 0) << p;
  }
  EXPECT_GT(reg.counter("pool.reads").value(), 0);
  EXPECT_GT(reg.counter("pool.writes").value(), 0);
  EXPECT_GT(reg.histogram("pool.op_fanout", {1, 2, 4, 8, 16, 32, 64})
                .count(),
            0);
}

TEST(StoragePool, OutOfRangeOpsRejected) {
  ShardSpec spec = small_spec();
  obs::Registry reg;
  StoragePool pool(spec, 2, chunked(spec, 8), &reg);
  std::vector<uint8_t> buf(128);
  EXPECT_THROW(pool.read(-1, buf), std::logic_error);
  EXPECT_THROW(pool.write(pool.capacity() - 64, buf), std::logic_error);
  EXPECT_NO_THROW(pool.read(pool.capacity() - 128, buf));
}

TEST(StoragePool, RestripePreservesDataAndGrowsCapacity) {
  ShardSpec spec = small_spec();
  obs::Registry reg;
  StoragePool pool(spec, 2, chunked(spec, 8), &reg);
  const int64_t old_cap = pool.capacity();
  std::vector<uint8_t> data = random_bytes(static_cast<size_t>(old_cap), 5);
  pool.write(0, data);

  pool.add_shard();
  ASSERT_TRUE(pool.wait_for_restripe());
  EXPECT_EQ(pool.shard_count(), 3);
  EXPECT_EQ(pool.capacity(), 3 * shard_capacity(spec));
  EXPECT_EQ(pool.restripe_watermark(), 2 * pool.chunks_per_shard());

  std::vector<uint8_t> got(static_cast<size_t>(old_cap));
  pool.read(0, got);
  EXPECT_EQ(got, data);

  // The grown space is usable and independent.
  std::vector<uint8_t> extra =
      random_bytes(static_cast<size_t>(pool.capacity() - old_cap), 6);
  pool.write(old_cap, extra);
  std::vector<uint8_t> extra_got(extra.size());
  pool.read(old_cap, extra_got);
  EXPECT_EQ(extra_got, extra);
  pool.read(0, got);
  EXPECT_EQ(got, data);
  EXPECT_EQ(pool.scrub_all(), 0);
  EXPECT_GT(reg.counter("pool.restripe.chunks_moved").value(), 0);
}

// Mid-restripe the watermark splits the space between old and new
// placement; reads must be bit-identical on both sides of the front, and
// writes must land wherever the chunk currently routes.
TEST(StoragePool, MidRestripeReadsAndWritesAreBitIdentical) {
  ShardSpec spec = small_spec();
  obs::Registry reg;
  PoolOptions opts = chunked(spec, 16);  // 32 chunks to migrate
  opts.restripe_rate_chunks_per_sec = 60.0;  // ~0.5 s of mid-flight window
  opts.restripe_burst_chunks = 1.0;
  StoragePool pool(spec, 2, opts, &reg);
  const int64_t cap = pool.capacity();
  std::vector<uint8_t> shadow = random_bytes(static_cast<size_t>(cap), 9);
  pool.write(0, shadow);

  pool.add_shard();
  Pcg32 rng(10);
  bool saw_mid_flight = false;
  std::vector<uint8_t> got(static_cast<size_t>(cap));
  while (pool.restripe_in_progress()) {
    const int64_t wm = pool.restripe_watermark();
    if (wm > 0 && wm < 2 * pool.chunks_per_shard()) saw_mid_flight = true;
    // Full-space read: covers chunks on both sides of the watermark.
    pool.read(0, got);
    ASSERT_EQ(got, shadow);
    // Random small write, immediately verified.
    const int64_t offset = static_cast<int64_t>(rng.next_u32()) % (cap - 256);
    std::vector<uint8_t> patch = random_bytes(256, 11 + wm);
    pool.write(offset, patch);
    std::memcpy(shadow.data() + offset, patch.data(), patch.size());
  }
  ASSERT_TRUE(pool.wait_for_restripe());
  EXPECT_TRUE(saw_mid_flight);
  pool.read(0, got);
  EXPECT_EQ(got, shadow);
  EXPECT_EQ(pool.scrub_all(), 0);
}

// The migrator's copy must order behind in-flight writes to the same
// stripe. A copy that read a degraded chunk while a write to a
// *neighbouring* chunk of its stripe was half applied would decode the
// lost element through the neighbour's new data and its not-yet-updated
// parity, and land the wrong bytes in the new placement for good.
// Geometry (D-Code p=5, 512-byte elements, two elements per chunk, disk 1
// failed): chunk 15's lost element decodes through chunk 16's data and
// the parity on disk 3, both in stripe 2; the migrator's writes to shard
// 0 up to chunk 15 land in stripes 0-1.
TEST(StoragePool, RestripeCopyOrdersBehindAnInFlightNeighbourWrite) {
  ShardSpec spec;
  spec.prime = 5;
  spec.element_size = 512;
  spec.stripes = 4;
  spec.threads = 1;  // engine I/O runs on the calling thread
  const int disks = codes::make_layout(spec.code, spec.prime)->cols();
  WriteParking parking;
  std::atomic<int> devices{0};
  const raid::DeviceFactory backend = raid::default_device_factory();
  spec.array.device_factory = [&](int id, size_t size) {
    // The first `disks` devices are shard 0's; park its disk 3.
    const bool parked_disk = devices.fetch_add(1) < disks && id == 3;
    return std::unique_ptr<raid::BlockDevice>(std::make_unique<ParkingDisk>(
        backend(id, size), parked_disk ? &parking : nullptr));
  };
  PoolOptions opts;
  opts.chunk_bytes = 2 * static_cast<int64_t>(spec.element_size);
  opts.pipeline.workers = 1;
  obs::Registry reg;
  StoragePool pool(spec, 1, opts, &reg);
  const int64_t chunk = opts.chunk_bytes;
  std::vector<uint8_t> shadow =
      random_bytes(static_cast<size_t>(pool.capacity()), 21);
  pool.write(0, shadow);
  pool.shard_array(0).fail_disk(1);

  const std::vector<uint8_t> patch =
      random_bytes(static_cast<size_t>(chunk), 22);
  std::thread writer([&] {
    park_my_writes = true;
    pool.write(16 * chunk, patch);
  });
  bool parked = false;
  {
    std::unique_lock<std::mutex> lock(parking.mu);
    parked = parking.cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return parking.parked; });
  }
  EXPECT_TRUE(parked) << "the chunk 16 write never reached disk 3";
  std::memcpy(shadow.data() + 16 * chunk, patch.data(), patch.size());

  pool.add_shard();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (pool.restripe_watermark() <= 15 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Copying chunk 15 needs stripe 2's lock, which the parked write
  // holds.
  EXPECT_LE(pool.restripe_watermark(), 15);
  {
    std::lock_guard<std::mutex> lock(parking.mu);
    parking.released = true;
  }
  parking.cv.notify_all();
  writer.join();
  ASSERT_TRUE(pool.wait_for_restripe());

  std::vector<uint8_t> got(shadow.size());
  pool.read(0, got);
  for (int64_t c = 0; c < static_cast<int64_t>(shadow.size()) / chunk; ++c) {
    EXPECT_EQ(0, std::memcmp(got.data() + c * chunk, shadow.data() + c * chunk,
                             static_cast<size_t>(chunk)))
        << "chunk " << c << " differs from what was written";
  }
}

TEST(StoragePool, AggregatedHealthCountsShardStates) {
  ShardSpec spec = small_spec();
  spec.hot_spares = 1;
  spec.array.background_rebuild = true;
  obs::Registry reg;
  StoragePool pool(spec, 3, chunked(spec, 8), &reg);

  PoolHealth before = pool.health();
  EXPECT_EQ(before.shards.size(), 3u);
  EXPECT_EQ(before.degraded_shards, 0);
  EXPECT_EQ(before.crashed_shards, 0);

  pool.shard_array(1).fail_disk(2);  // promotes the spare, rebuilds
  ASSERT_TRUE(pool.shard_array(1).wait_for_rebuild());
  PoolHealth after = pool.health();
  EXPECT_EQ(after.degraded_shards, 0);  // spare promoted and rebuilt
  EXPECT_EQ(after.shards[1].hot_spares, 0);
  EXPECT_EQ(after.shards[0].hot_spares, 1);

  // The collector publishes the same view as pool.* gauges.
  (void)reg.snapshot();
  EXPECT_EQ(reg.gauge("pool.degraded_shards").value(), 0);
  EXPECT_GT(reg.counter("shard1.raid.spare_promotions").value(), 0);
}

// Data written through the pool reads back from a shard that lost two
// disks, every shard serving its share of the span, and again once both
// disks are replaced and rebuilt.
TEST(StoragePool, DataSurvivesADoubleFailureAndRebuild) {
  ShardSpec spec = small_spec();
  obs::Registry reg;
  StoragePool pool(spec, 3, chunked(spec, 8), &reg);
  const std::vector<uint8_t> data =
      random_bytes(static_cast<size_t>(pool.capacity()), 39);
  pool.write(0, data);

  raid::Raid6Array& shard = pool.shard_array(1);
  shard.fail_disk(1);
  shard.fail_disk(3);
  std::vector<uint8_t> got(data.size());
  pool.read(0, got);
  EXPECT_EQ(got, data);
  for (int s = 0; s < pool.shard_count(); ++s) {
    const std::string p = "shard" + std::to_string(s) + ".raid.";
    EXPECT_GT(reg.counter(p + (s == 1 ? "degraded_reads" : "reads")).value(),
              0)
        << p;
  }

  shard.replace_disk(1);
  shard.replace_disk(3);
  shard.rebuild();
  EXPECT_EQ(pool.health().degraded_shards, 0);
  pool.read(0, got);
  EXPECT_EQ(got, data);
  EXPECT_EQ(pool.scrub_all(), 0);
}

// A promoted spare whose rebuild pass stood down on a crash is still
// blank above its watermark: the shard stays degraded through the
// reboot, with no failed disk and no pass running, until a rebuild
// completes.
TEST(StoragePool, StoodDownRebuildKeepsTheShardDegraded) {
  ShardSpec spec = small_spec();
  spec.hot_spares = 1;
  spec.array.background_rebuild = true;
  obs::Registry reg;
  StoragePool pool(spec, 2, chunked(spec, 8), &reg);
  const std::vector<uint8_t> data =
      random_bytes(static_cast<size_t>(pool.capacity()), 37);
  pool.write(0, data);

  raid::Raid6Array& shard = pool.shard_array(1);
  shard.inject_power_loss_after(0);  // the pass's first write crashes
  shard.fail_disk(2);
  EXPECT_FALSE(shard.wait_for_rebuild());
  EXPECT_EQ(pool.restart_all(), 1);
  const auto degraded_gauge = [&] {
    (void)reg.snapshot();
    return reg.gauge("pool.degraded_shards").value();
  };
  PoolHealth h = pool.health();
  EXPECT_EQ(h.shards[1].failed_disks, 0);
  EXPECT_FALSE(h.shards[1].rebuilding);
  EXPECT_FALSE(h.shards[1].crashed);
  EXPECT_EQ(h.degraded_shards, 1);
  EXPECT_EQ(degraded_gauge(), 1);

  shard.rebuild();
  EXPECT_EQ(pool.health().degraded_shards, 0);
  EXPECT_EQ(degraded_gauge(), 0);
  std::vector<uint8_t> got(data.size());
  pool.read(0, got);
  EXPECT_EQ(got, data);
}

// The acceptance invariant: data written before a capacity add reads
// back bit-identical during and after the background restripe, with one
// shard concurrently failing and rebuilding while the pool serves
// traffic from multiple threads.
TEST(StoragePool, CapacityAddSurvivesShardRebuildUnderTraffic) {
  ShardSpec spec = small_spec();
  spec.stripes = 32;
  spec.hot_spares = 1;
  spec.array.background_rebuild = true;
  spec.array.rebuild_rate_stripes_per_sec = 150.0;  // keep rebuild in-flight
  obs::Registry reg;
  PoolOptions opts = chunked(spec, 16);  // 48 chunks to migrate
  opts.restripe_rate_chunks_per_sec = 120.0;
  opts.restripe_burst_chunks = 1.0;
  StoragePool pool(spec, 3, opts, &reg);
  const int64_t cap = pool.capacity();

  // Region plan: [0, frozen_end) is written once and never touched again
  // (the "data written before capacity add"); [frozen_end, cap) belongs
  // to the writer thread.
  const int64_t frozen_end = cap / 2 / pool.chunk_bytes() *
                             pool.chunk_bytes();
  std::vector<uint8_t> frozen =
      random_bytes(static_cast<size_t>(frozen_end), 21);
  pool.write(0, frozen);
  std::vector<uint8_t> writer_region(static_cast<size_t>(cap - frozen_end),
                                     0);
  pool.write(frozen_end, writer_region);

  pool.add_shard();
  // Fail a disk in shard 1 while the restripe is mid-flight: the hot
  // spare promotes and the background rebuild runs concurrently.
  pool.shard_array(1).fail_disk(2);

  std::atomic<bool> stop{false};
  std::atomic<int> reader_mismatches{0};
  std::atomic<bool> failed_op{false};

  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&, t] {
      Pcg32 rng(100 + static_cast<uint64_t>(t));
      std::vector<uint8_t> buf;
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t len =
            std::min<int64_t>(4096, frozen_end);
        const int64_t offset =
            static_cast<int64_t>(rng.next_u32()) % (frozen_end - len + 1);
        buf.resize(static_cast<size_t>(len));
        try {
          pool.read(offset, buf);
        } catch (...) {
          failed_op.store(true);
          return;
        }
        if (std::memcmp(buf.data(), frozen.data() + offset,
                        buf.size()) != 0) {
          reader_mismatches.fetch_add(1);
        }
      }
    });
  }
  traffic.emplace_back([&] {
    Pcg32 rng(200);
    uint64_t round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const int64_t len = std::min<int64_t>(8192, cap - frozen_end);
      const int64_t offset =
          frozen_end + static_cast<int64_t>(rng.next_u32()) %
                           (cap - frozen_end - len + 1);
      std::vector<uint8_t> data =
          random_bytes(static_cast<size_t>(len), 300 + round++);
      try {
        pool.write(offset, data);
        std::memcpy(writer_region.data() + (offset - frozen_end),
                    data.data(), data.size());
      } catch (...) {
        failed_op.store(true);
        return;
      }
    }
  });

  // Let traffic overlap both the restripe and the rebuild, then finish
  // the migration at full speed.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_TRUE(pool.restripe_in_progress() ||
              pool.restripe_watermark() > 0);
  pool.set_restripe_rate(0.0);  // unthrottle
  ASSERT_TRUE(pool.wait_for_restripe());
  stop.store(true);
  for (auto& th : traffic) th.join();

  ASSERT_FALSE(failed_op.load());
  EXPECT_EQ(reader_mismatches.load(), 0);
  ASSERT_TRUE(pool.wait_for_rebuilds());

  // Bit-identical after: the frozen region, the writer's last state, and
  // a clean pool-wide scrub on the grown pool.
  EXPECT_EQ(pool.shard_count(), 4);
  EXPECT_EQ(pool.capacity(), 4 * shard_capacity(spec));
  std::vector<uint8_t> got(static_cast<size_t>(frozen_end));
  pool.read(0, got);
  EXPECT_EQ(got, frozen);
  std::vector<uint8_t> wgot(writer_region.size());
  pool.read(frozen_end, wgot);
  EXPECT_EQ(wgot, writer_region);
  EXPECT_EQ(pool.scrub_all(), 0);
  PoolHealth h = pool.health();
  EXPECT_EQ(h.degraded_shards, 0);
  EXPECT_FALSE(h.restriping);
  EXPECT_GT(reg.counter("shard1.raid.spare_promotions").value(), 0);
  EXPECT_GT(reg.counter("pool.restripe.chunks_moved").value(), 0);
}

// restart_all() must quiesce foreground writers across restart + journal
// replay: a write slipping between a crashed shard's restart() and its
// journal_recover() would RMW over the torn stripe, folding the stale
// parity into its delta and closing the crash's open intent behind it —
// invisible to recovery afterwards. Writers here hammer the pool while
// the crash and the reboot happen; the io gate makes them block across
// the replay, and the pool must come back journal-clean, scrub-clean,
// and bit-identical to the shadow.
TEST(StoragePool, RestartAllQuiescesConcurrentWriters) {
  ShardSpec spec = small_spec();
  spec.journal_slots = 64;
  obs::Registry reg;
  StoragePool pool(spec, 2, chunked(spec, 8), &reg);
  const int64_t cap = pool.capacity();
  std::vector<uint8_t> shadow = random_bytes(static_cast<size_t>(cap), 31);
  pool.write(0, shadow);

  constexpr int kWriters = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> power_loss_hits{0};
  std::atomic<int> unexpected_errors{0};

  // Each writer owns an exclusive byte region (so the shared shadow
  // needs no locking) spanning several chunks of both shards. Every op
  // retries the same bytes until the write succeeds — a PowerLossError
  // may have landed part of a multi-chunk write already, and the retry
  // converges the region back onto the shadow.
  std::vector<std::thread> writers;
  const int64_t region = cap / kWriters;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      Pcg32 rng(500 + static_cast<uint64_t>(t));
      const int64_t begin = t * region;
      uint64_t round = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t len = std::min<int64_t>(
            region, pool.chunk_bytes() +
                        static_cast<int64_t>(rng.next_u32() % 1024));
        const int64_t offset =
            begin + static_cast<int64_t>(rng.next_u32()) % (region - len + 1);
        std::vector<uint8_t> data = random_bytes(
            static_cast<size_t>(len), 700 + round++ * kWriters + t);
        for (;;) {
          try {
            pool.write(offset, data);
            break;
          } catch (const raid::PowerLossError&) {
            power_loss_hits.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          } catch (...) {
            unexpected_errors.fetch_add(1);
            return;
          }
        }
        std::memcpy(shadow.data() + offset, data.data(), data.size());
      }
    });
  }

  // Crash shard 0 under the running traffic, give the writers time to
  // pile into the crashed shard, then reboot the pool while they are
  // still submitting.
  pool.shard_array(0).inject_power_loss_after(16);
  while (!pool.shard_array(0).crashed()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(pool.restart_all(), 1);

  // Post-reboot traffic, then settle.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true);
  for (auto& th : writers) th.join();

  EXPECT_EQ(unexpected_errors.load(), 0);
  EXPECT_GT(power_loss_hits.load(), 0);
  EXPECT_EQ(pool.journal_open_intents(), 0);
  EXPECT_EQ(pool.scrub_all(), 0);
  std::vector<uint8_t> got(static_cast<size_t>(cap));
  pool.read(0, got);
  EXPECT_EQ(got, shadow);
}

// Pool ops run on the caller's thread: with the shard's only pipeline
// worker parked on a slow op submitted straight to the shard, a pool op
// on a disjoint stripe and disk completes without waiting for it.
TEST(StoragePool, PoolOpsRunInlineNotOnPipelineWorkers) {
  ShardSpec spec = small_spec();
  obs::Registry reg;
  PoolOptions opts = chunked(spec, 16);
  opts.pipeline.workers = 1;
  StoragePool pool(spec, 1, opts, &reg);
  auto blob = random_bytes(static_cast<size_t>(pool.capacity()), 5);
  pool.write(0, blob);

  raid::Raid6Array& array = pool.shard_array(0);
  raid::AddressMap map(array.layout());
  const int64_t esize = static_cast<int64_t>(spec.element_size);
  const int slow_disk = map.locate(0).disk;
  // An element of stripe 2 on another disk: disjoint stripe, fast device.
  int64_t elem = 2 * array.layout().data_count();
  while (map.locate(elem).disk == slow_disk) ++elem;

  array.disk(slow_disk).faults().set_latency_ns(300'000'000);
  std::vector<uint8_t> parked(static_cast<size_t>(esize));
  raid::OpFuture busy = pool.shard_pipeline(0).submit_read(0, parked);
  std::vector<uint8_t> got(static_cast<size_t>(esize));
  pool.read(elem * esize, got);
  EXPECT_FALSE(busy.ready());  // the worker is still asleep on slow_disk
  EXPECT_EQ(0, std::memcmp(got.data(), blob.data() + elem * esize,
                           got.size()));
  busy.get();
  array.disk(slow_disk).faults().set_latency_ns(0);
  EXPECT_EQ(0, std::memcmp(parked.data(), blob.data(), parked.size()));
  EXPECT_EQ(reg.counter("shard0.pipeline.ops_submitted").value(),
            reg.counter("shard0.pipeline.ops_completed").value());
  // Pool ops never enter the pipeline: after the fill and the read, the
  // direct submit_read is its only op and its only admission.
  EXPECT_EQ(reg.counter("shard0.pipeline.ops_submitted").value(), 1);
  EXPECT_EQ(reg.histogram("shard0.pipeline.admission_wait_ns",
                          obs::latency_bounds_ns())
                .count(),
            1);
}

TEST(StoragePool, AddShardWhileRestripingRejected) {
  ShardSpec spec = small_spec();
  obs::Registry reg;
  PoolOptions opts = chunked(spec, 8);
  opts.restripe_rate_chunks_per_sec = 20.0;  // slow enough to catch
  opts.restripe_burst_chunks = 1.0;
  StoragePool pool(spec, 2, opts, &reg);
  pool.add_shard();
  if (pool.restripe_in_progress()) {
    EXPECT_THROW(pool.add_shard(), std::logic_error);
  }
  pool.set_restripe_rate(0.0);
  ASSERT_TRUE(pool.wait_for_restripe());
  EXPECT_NO_THROW(pool.add_shard());
  ASSERT_TRUE(pool.wait_for_restripe());
  EXPECT_EQ(pool.shard_count(), 4);
}

}  // namespace
}  // namespace dcode::volume

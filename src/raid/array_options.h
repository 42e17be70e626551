// ArrayOptions: the one configuration struct of the RAID stack.
//
// The Raid6Array owns the only copy; its StripeIoEngine reads the same
// object by reference, so the device backend, the engine's execution
// flags, its retry policy and the integrity sidecar are set in exactly
// one place. ShardSpec::array hands every shard of a StoragePool one of
// these.
#pragma once

#include <cstdint>
#include <string>

#include "raid/block_device.h"
#include "raid/health_monitor.h"

namespace dcode::raid {

// Which device backend the array runs on and how the StripeIoEngine
// executes its I/O. The defaults reproduce the fast path (coalesced +
// parallel over the process-default backend); benches flip the flags off
// to measure what each layer buys.
struct ArrayOptions {
  DeviceFactory device_factory;   // null => default_device_factory()
  bool coalesce = true;           // merge adjacent same-disk accesses
  bool parallel_user_io = true;   // fan per-disk runs across the pool
  // kTransient retries per transfer before the engine escalates the
  // device to fail-stop.
  int transient_retry_limit = 3;
  // Exponential backoff between transient retries: sleep roughly
  // base * 2^attempt, capped at 5 ms and jittered into [delay/2, delay).
  // <= 0 disables the sleep (tests that count retries exactly).
  int64_t retry_backoff_base_ns = 20'000;
  // Health-monitor escalation thresholds (see raid/health_monitor.h).
  HealthPolicy health;
  // When true, a failure that promotes a hot spare rebuilds on a
  // background worker thread (rate-limited by rebuild_rate) while
  // foreground I/O continues; when false, fail_disk() runs the same
  // rebuild pass on its own thread before returning (the legacy
  // behaviour).
  bool background_rebuild = false;
  // Background rebuild throttle in stripes/second; <= 0 = unthrottled.
  double rebuild_rate_stripes_per_sec = 0.0;
  double rebuild_burst_stripes = 8.0;
  // Slots in the sharded stripe lock table (each slot is one
  // cache-line-padded mutex; stripes hash to slots by modulo). More
  // slots = fewer false conflicts between unrelated stripes under high
  // pipeline concurrency.
  int stripe_lock_slots = 64;
  // Slow-op watchdog: a read/write whose wall time reaches this threshold
  // bumps raid.slow_ops, emits a trace event, and asks the global
  // FlightRecorder for a dump (rate-limited; written only when a dump
  // path is set via FlightRecorder::set_dump_path or DCODE_FLIGHT_DUMP).
  // 0 disables the watchdog.
  int64_t slow_op_threshold_ns = 0;
  // --- end-to-end integrity (see raid/integrity.h) ------------------------
  // Maintain a per-element checksum + write-identity sidecar on every
  // disk. This is the only channel that catches the write-failure
  // families parity is structurally blind to (misdirected, torn within
  // an acknowledged element, lost/stale writes).
  bool integrity_checksums = true;
  // Verify every element payload against the sidecar on read; condemned
  // elements are transparently re-served from parity. Off = sidecar
  // still maintained (scrub can use it) but reads skip the hash.
  bool verify_reads = true;
  // Non-empty: persist each disk's sidecar at <dir>/disk<N>.sum with
  // torn-write-safe dual slots (FileDisk deployments survive restart);
  // empty keeps sidecars in memory only (MemDisk).
  std::string integrity_sidecar_dir;
};

}  // namespace dcode::raid

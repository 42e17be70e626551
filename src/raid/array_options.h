// ArrayOptions: the one configuration struct of the RAID stack.
//
// The Raid6Array owns the only copy; its StripeIoEngine reads the same
// object by reference, so the device backend, the engine's execution
// flags and the integrity sidecar are set in exactly one place.
// ShardSpec::array hands every shard of a StoragePool one of these. It
// holds only values some caller varies; the rest are constants where
// they are used (the engine's retry budget and backoff, the health
// monitor's window and thresholds, the stripe-lock table's size) and the
// checksum sidecar is always on.
#pragma once

#include <cstdint>
#include <string>

#include "raid/block_device.h"

namespace dcode::raid {

// Which device backend the array runs on and how the StripeIoEngine
// executes its I/O. The defaults reproduce the fast path (coalesced +
// parallel over the process-default backend); benches flip the flags off
// to measure what each layer buys.
struct ArrayOptions {
  DeviceFactory device_factory;   // null => default_device_factory()
  bool coalesce = true;           // merge adjacent same-disk accesses
  bool parallel_user_io = true;   // fan per-disk runs across the pool
  // A failure that promotes a hot spare starts the rebuild worker. When
  // true, the worker is rate-limited by rebuild_rate while foreground
  // I/O continues; when false, it runs unthrottled and fail_disk() waits
  // for it before returning.
  bool background_rebuild = false;
  // Background rebuild throttle in stripes/second; <= 0 = unthrottled.
  double rebuild_rate_stripes_per_sec = 0.0;
  double rebuild_burst_stripes = 8.0;
  // Slow-op watchdog: a read/write whose wall time reaches this threshold
  // bumps raid.slow_ops, emits a trace event, and asks the global
  // FlightRecorder for a dump (rate-limited; written only when a dump
  // path is set via FlightRecorder::set_dump_path or DCODE_FLIGHT_DUMP).
  // 0 disables the watchdog.
  int64_t slow_op_threshold_ns = 0;
  // --- end-to-end integrity (see raid/integrity.h) ------------------------
  // Every disk keeps a per-element checksum + write-identity sidecar: the
  // only channel that catches the write-failure families parity is
  // structurally blind to (misdirected, torn within an acknowledged
  // element, lost/stale writes).
  //
  // Verify every element payload against the sidecar on read; condemned
  // elements are transparently re-served from parity. Off = sidecar
  // still maintained (scrub can use it) but reads skip the hash.
  bool verify_reads = true;
  // Non-empty: persist each disk's sidecar at <dir>/disk<N>.sum with
  // torn-write-safe dual slots (FileDisk deployments survive restart);
  // empty keeps sidecars in memory only (MemDisk). An existing file is
  // reloaded only over a device that kept its contents
  // (kDeviceReopened); a blank device starts a blank sidecar.
  std::string integrity_sidecar_dir;
};

}  // namespace dcode::raid

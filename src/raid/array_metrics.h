// The Raid6Array's metric handles, resolved once at array construction.
//
// All metrics live in an obs::Registry (the process-global one unless the
// array was given its own) and are additive across arrays sharing a
// registry: counters only ever inc(), so two arrays on the global
// registry simply sum, Prometheus-style. The per-disk element access
// counters mirror sim::IoStats semantics at runtime — one increment per
// element read or written on that physical disk — so a scripted workload
// can be checked against the planner's IoPlan predictions (see
// tests/runtime_metrics_test.cc). The full catalogue with meanings is in
// docs/observability.md.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace dcode::raid {

struct ArrayMetrics {
  ArrayMetrics(obs::Registry& registry, int disks) : reg(&registry) {
    using obs::Labels;
    reads = &registry.counter("raid.reads", {}, "healthy-mode read ops");
    writes = &registry.counter("raid.writes", {}, "healthy-mode write ops");
    degraded_reads = &registry.counter("raid.degraded_reads", {},
                                       "read ops served with failed disks");
    degraded_writes = &registry.counter(
        "raid.degraded_writes", {}, "write ops served with failed disks");
    bytes_read =
        &registry.counter("raid.bytes_read", {}, "user bytes returned");
    bytes_written =
        &registry.counter("raid.bytes_written", {}, "user bytes accepted");
    rebuilds = &registry.counter("raid.rebuilds", {}, "rebuild operations");
    elements_reconstructed = &registry.counter(
        "raid.elements_reconstructed", {},
        "elements recomputed from parity (degraded reads + rebuilds)");
    scrubs = &registry.counter("raid.scrubs", {}, "scrub operations");
    scrub_stripes_checked = &registry.counter(
        "raid.scrub.stripes_checked", {}, "stripes verified by scrub");
    scrub_stripes_inconsistent =
        &registry.counter("raid.scrub.stripes_inconsistent", {},
                          "stripes whose parity failed verification");
    disks_failed = &registry.gauge("raid.disks_failed", {},
                                   "currently failed disks");
    engine_transient_retries = &registry.counter(
        "raid.engine.transient_retries", {},
        "transient device errors retried by the engine");
    engine_retry_exhausted = &registry.counter(
        "raid.engine.retry_exhausted", {},
        "transfers whose transient-retry budget ran out, escalating the "
        "device to fail-stop");
    failovers = &registry.counter(
        "raid.failovers", {},
        "user ops re-planned after a disk failed mid-operation");
    spare_promotions = &registry.counter(
        "raid.spare_promotions", {},
        "hot spares automatically promoted into failed slots");
    rebuild_stripes = &registry.counter(
        "raid.rebuild.stripes_rebuilt", {},
        "stripes reconstructed by the background rebuild worker");
    rebuild_in_progress = &registry.gauge(
        "raid.rebuild.in_progress", {},
        "1 while a background rebuild worker is active");
    scrub_equations_skipped = &registry.counter(
        "raid.scrub.equations_skipped", {},
        "parity equations skipped by scrub (a member on a degraded disk)");
    scrub_elements_located = &registry.counter(
        "raid.scrub.elements_located", {},
        "corrupted elements localized via the parity-family syndromes");
    scrub_elements_repaired = &registry.counter(
        "raid.scrub.elements_repaired", {},
        "corrupted elements rewritten by repair-mode scrub");
    scrub_stripes_unrepairable = &registry.counter(
        "raid.scrub.stripes_unrepairable", {},
        "inconsistent stripes repair-mode scrub could not localize");
    scrub_stripes_skipped_degraded = &registry.counter(
        "raid.scrub.stripes_skipped_degraded", {},
        "inconsistent stripes scrub could not attempt (degraded "
        "equations: a member disk is dead)");
    scrub_family_disagreements = &registry.counter(
        "raid.scrub.family_disagreements", {},
        "inconsistent stripes whose two parity-family syndromes "
        "disagreed (repairable only via checksums)");
    scrub_checksum_located = &registry.counter(
        "raid.scrub.checksum_located", {},
        "corrupted elements localized via the checksum sidecar (subset "
        "of elements_located)");
    scrub_elements_stale = &registry.counter(
        "raid.scrub.elements_stale", {},
        "elements whose payload matched their previous checksum (lost "
        "or stale writes found by scrub)");
    scrub_stripes_stale = &registry.counter(
        "raid.scrub.stripes_stale", {},
        "parity-consistent stripes flagged stale by identity tags "
        "(whole-stripe lost write; reported, not repaired)");
    integrity_elements_verified = &registry.counter(
        "raid.integrity.elements_verified", {},
        "element payloads checksum-verified on read");
    integrity_mismatch_corrupt = &registry.counter(
        "raid.integrity.read_mismatches", {{"kind", "corrupt"}},
        "verify-on-read verdicts: payload matches no known checksum "
        "(torn write or bit rot)");
    integrity_mismatch_misdirected = &registry.counter(
        "raid.integrity.read_mismatches", {{"kind", "misdirected"}},
        "verify-on-read verdicts: payload is another element's current "
        "content (write landed on the wrong LBA)");
    integrity_mismatch_stale = &registry.counter(
        "raid.integrity.read_mismatches", {{"kind", "stale"}},
        "verify-on-read verdicts: payload is this element's previous "
        "content (lost/stale write)");
    integrity_read_fallbacks = &registry.counter(
        "raid.integrity.read_fallbacks", {},
        "reads re-served from parity after verify-on-read condemned an "
        "element");
    integrity_write_repairs = &registry.counter(
        "raid.integrity.write_repairs", {},
        "stripes cleaned in the write path after a verified pre-read "
        "failed integrity");
    journal_intents_opened =
        &registry.counter("raid.journal.intents_opened", {},
                          "write-intent records newly opened");
    journal_commits = &registry.counter("raid.journal.commits", {},
                                        "write-intent records committed");
    journal_replayed_stripes =
        &registry.counter("raid.journal.replayed_stripes", {},
                          "stripes re-encoded by journal recovery");
    journal_recoveries = &registry.counter(
        "raid.journal.recoveries", {}, "journal recovery passes");
    read_latency_ns = &registry.histogram(
        "raid.read_latency_ns", obs::latency_bounds_ns(), {},
        "wall time per read op");
    write_latency_ns = &registry.histogram(
        "raid.write_latency_ns", obs::latency_bounds_ns(), {},
        "wall time per write op");
    slow_ops = &registry.counter(
        "raid.slow_ops", {},
        "ops over ArrayOptions::slow_op_threshold_ns (each triggers a "
        "flight-recorder dump request)");
    rebuild_latency_ns = &registry.histogram(
        "raid.rebuild_latency_ns", obs::latency_bounds_ns(), {},
        "wall time per rebuild");
    scrub_latency_ns = &registry.histogram(
        "raid.scrub_latency_ns", obs::latency_bounds_ns(), {},
        "wall time per scrub");
    engine_retry_backoff_ns = &registry.histogram(
        "raid.engine.retry_backoff_ns", obs::latency_bounds_ns(), {},
        "backoff slept before each transient retry");
    rebuild_throttle_wait_ns = &registry.histogram(
        "raid.rebuild.throttle_wait_ns", obs::latency_bounds_ns(), {},
        "time the background rebuild worker waited on its token bucket, "
        "per stripe");
    stripe_lock_wait_ns = &registry.histogram(
        "raid.stripe_lock_wait_ns", obs::latency_bounds_ns(), {},
        "time a writer, degraded reader, rebuild pass or journal replay "
        "blocked on a stripe lock (contended acquisitions only)");
    read_bytes = &registry.histogram("raid.read_bytes",
                                     obs::size_bounds_bytes(), {},
                                     "user bytes per read op");
    write_bytes = &registry.histogram("raid.write_bytes",
                                      obs::size_bounds_bytes(), {},
                                      "user bytes per write op");
    disk_element_reads.reserve(static_cast<size_t>(disks));
    disk_element_writes.reserve(static_cast<size_t>(disks));
    disk_failures.reserve(static_cast<size_t>(disks));
    for (int d = 0; d < disks; ++d) {
      Labels l = {{"disk", std::to_string(d)}};
      disk_element_reads.push_back(&registry.counter(
          "raid.disk.element_reads", l, "element reads per physical disk"));
      disk_element_writes.push_back(&registry.counter(
          "raid.disk.element_writes", l,
          "element writes per physical disk"));
      disk_failures.push_back(&registry.counter(
          "raid.disk.failures", l, "failure injections per physical disk"));
    }
  }

  obs::Registry* reg;
  obs::Counter* reads;
  obs::Counter* writes;
  obs::Counter* degraded_reads;
  obs::Counter* degraded_writes;
  obs::Counter* bytes_read;
  obs::Counter* bytes_written;
  obs::Counter* rebuilds;
  obs::Counter* elements_reconstructed;
  obs::Counter* scrubs;
  obs::Counter* scrub_stripes_checked;
  obs::Counter* scrub_stripes_inconsistent;
  obs::Gauge* disks_failed;
  obs::Counter* engine_transient_retries;
  obs::Counter* engine_retry_exhausted;
  obs::Counter* failovers;
  obs::Counter* spare_promotions;
  obs::Counter* rebuild_stripes;
  obs::Gauge* rebuild_in_progress;
  obs::Counter* scrub_equations_skipped;
  obs::Counter* scrub_elements_located;
  obs::Counter* scrub_elements_repaired;
  obs::Counter* scrub_stripes_unrepairable;
  obs::Counter* scrub_stripes_skipped_degraded;
  obs::Counter* scrub_family_disagreements;
  obs::Counter* scrub_checksum_located;
  obs::Counter* scrub_elements_stale;
  obs::Counter* scrub_stripes_stale;
  obs::Counter* integrity_elements_verified;
  obs::Counter* integrity_mismatch_corrupt;
  obs::Counter* integrity_mismatch_misdirected;
  obs::Counter* integrity_mismatch_stale;
  obs::Counter* integrity_read_fallbacks;
  obs::Counter* integrity_write_repairs;
  obs::Counter* journal_intents_opened;
  obs::Counter* journal_commits;
  obs::Counter* journal_replayed_stripes;
  obs::Counter* journal_recoveries;
  obs::Histogram* read_latency_ns;
  obs::Histogram* write_latency_ns;
  obs::Counter* slow_ops;
  obs::Histogram* rebuild_latency_ns;
  obs::Histogram* scrub_latency_ns;
  obs::Histogram* engine_retry_backoff_ns;
  obs::Histogram* rebuild_throttle_wait_ns;
  obs::Histogram* stripe_lock_wait_ns;
  obs::Histogram* read_bytes;
  obs::Histogram* write_bytes;
  std::vector<obs::Counter*> disk_element_reads;
  std::vector<obs::Counter*> disk_element_writes;
  std::vector<obs::Counter*> disk_failures;
};

}  // namespace dcode::raid

// Farm-level service metrics: admission counters, cycle totals, and
// latency distributions (p50/p95/p99) computed from JobOutcome
// timestamps. Workers accumulate a private FarmMetrics each; snapshots
// merge them (RunningStats::merge is an exact parallel reduction, and
// the latency QuantileSketch is exact below its reservoir capacity —
// every regime the tests exercise — and bounded-memory past it, unlike
// the old runtime/metrics.hpp store that kept every sample forever).
#pragma once

#include <cstdint>
#include <string>

#include "common/stats.hpp"
#include "obs/metrics.hpp"

namespace vlsip::scaling {
struct JobOutcome;
}  // namespace vlsip::scaling

namespace vlsip::obs {

struct FarmMetrics {
  // Admission control.
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cancelled = 0;
  // Served outcomes.
  std::uint64_t completed = 0;
  std::uint64_t deadlocked = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t no_allocation = 0;
  std::uint64_t errors = 0;
  // Batching effectiveness.
  std::uint64_t batches = 0;
  /// Jobs that reused a predecessor's fused processor — each one is a
  /// configuration wormhole amortised away.
  std::uint64_t fuse_reuses = 0;
  // Simulated work.
  std::uint64_t config_cycles = 0;
  std::uint64_t exec_cycles = 0;
  std::uint64_t faults = 0;
  // Fault tolerance / degraded mode (zero unless fault injection or the
  // self-healing path ran).
  /// Failed service attempts re-admitted for another try.
  std::uint64_t retries = 0;
  /// Worker stalls consumed from the fault plan.
  std::uint64_t worker_stalls = 0;
  /// Worker chips crashed mid-batch by the fault plan.
  std::uint64_t worker_crashes = 0;
  /// Chips pulled from service and replaced with fresh silicon.
  std::uint64_t quarantined_chips = 0;
  /// Jobs that completed but needed more than one service attempt.
  std::uint64_t degraded_completed = 0;
  /// Post-batch health checks run.
  std::uint64_t health_checks = 0;
  /// Health checks that found fragmentation and compacted the chip.
  std::uint64_t health_compactions = 0;
  /// Fault-plan events applied to chips through the farm.
  std::uint64_t injected_faults = 0;
  // Injected-vs-recovered accounting (from fault::InjectionStats).
  /// Chip-level plan events that actually changed chip state.
  std::uint64_t fault_events_applied = 0;
  /// Plan events with nothing to hit (target already dead, no host).
  std::uint64_t fault_events_skipped = 0;
  /// Recoveries: replacement processors re-fused after cluster kills.
  std::uint64_t fault_refusals = 0;
  /// Recoveries: CSD routes that found a healthy span after a segment
  /// kill (vs. routes_dropped, which must re-handshake later).
  std::uint64_t routes_rerouted = 0;
  std::uint64_t routes_dropped = 0;
  // Checkpoint/restore (zero unless FarmConfig::checkpoint_every_batches).
  /// Chip checkpoints taken at batch boundaries.
  std::uint64_t checkpoints = 0;
  /// Replacement chips restored from the last checkpoint after a
  /// quarantine (vs. starting from fresh silicon).
  std::uint64_t chip_restores = 0;
  // Energy accounting (zero unless FarmConfig::dvs or chip energy
  // metering is enabled — every export below is presence-gated on it).
  /// Femtojoules billed to served jobs (sum of JobOutcome::energy_fj).
  std::uint64_t energy_fj = 0;
  /// DVS ladder steps the governor actually took.
  std::uint64_t dvs_level_changes = 0;

  /// Turnaround (finished_at - queued_at) and queue wait
  /// (started_at - queued_at), in farm ticks.
  RunningStats latency;
  RunningStats queue_wait;
  /// Turnaround distribution; exact percentiles below the reservoir
  /// capacity, bounded-memory estimates past it.
  QuantileSketch latency_sketch;
  /// Host-side checkpoint cost: serialised bytes per checkpoint, and
  /// wall microseconds spent serialising (telemetry only — never feeds
  /// back into deterministic outcomes).
  RunningStats checkpoint_bytes;
  RunningStats checkpoint_micros;
  /// Per-job energy bill distribution, femtojoules.
  RunningStats job_energy_fj;

  /// Folds one served outcome into the counters and distributions.
  void record(const scaling::JobOutcome& outcome);

  /// Exact parallel reduction of another worker's metrics.
  void merge(const FarmMetrics& other);

  std::uint64_t served() const {
    return completed + deadlocked + timed_out + no_allocation + errors;
  }

  /// Latency percentile over the recorded distribution, q in [0, 1].
  double latency_percentile(double q) const {
    return latency_sketch.quantile(q);
  }

  /// Multi-line human-readable summary (ticks labelled by the caller).
  std::string render(const std::string& tick_unit = "us") const;

  /// Exports every counter and distribution into `registry` under
  /// "farm." names — the bridge from the farm's private accumulation to
  /// the ObsSnapshot exporters.
  void export_into(MetricRegistry& registry) const;
};

}  // namespace vlsip::obs

#include "obs/farm_metrics.hpp"

#include <sstream>

#include "common/table.hpp"
#include "scaling/job.hpp"

namespace vlsip::obs {

void FarmMetrics::record(const scaling::JobOutcome& outcome) {
  switch (outcome.status) {
    case scaling::JobStatus::kCompleted: ++completed; break;
    case scaling::JobStatus::kDeadlocked: ++deadlocked; break;
    case scaling::JobStatus::kTimedOut: ++timed_out; break;
    case scaling::JobStatus::kNoAllocation: ++no_allocation; break;
    case scaling::JobStatus::kRejected: ++rejected; return;
    case scaling::JobStatus::kCancelled: ++cancelled; return;
    case scaling::JobStatus::kError:
    case scaling::JobStatus::kPending: ++errors; break;
  }
  config_cycles += outcome.config_cycles;
  exec_cycles += outcome.exec_cycles;
  faults += outcome.faults;
  if (outcome.status == scaling::JobStatus::kCompleted &&
      outcome.attempts > 1) {
    ++degraded_completed;
  }
  if (outcome.energy_fj > 0) {
    energy_fj += outcome.energy_fj;
    job_energy_fj.add(static_cast<double>(outcome.energy_fj));
  }
  const double turnaround = static_cast<double>(outcome.turnaround());
  latency.add(turnaround);
  latency_sketch.add(turnaround);
  queue_wait.add(
      static_cast<double>(outcome.started_at - outcome.queued_at));
}

void FarmMetrics::merge(const FarmMetrics& other) {
  submitted += other.submitted;
  admitted += other.admitted;
  rejected += other.rejected;
  cancelled += other.cancelled;
  completed += other.completed;
  deadlocked += other.deadlocked;
  timed_out += other.timed_out;
  no_allocation += other.no_allocation;
  errors += other.errors;
  batches += other.batches;
  fuse_reuses += other.fuse_reuses;
  config_cycles += other.config_cycles;
  exec_cycles += other.exec_cycles;
  faults += other.faults;
  retries += other.retries;
  worker_stalls += other.worker_stalls;
  worker_crashes += other.worker_crashes;
  quarantined_chips += other.quarantined_chips;
  degraded_completed += other.degraded_completed;
  health_checks += other.health_checks;
  health_compactions += other.health_compactions;
  injected_faults += other.injected_faults;
  fault_events_applied += other.fault_events_applied;
  fault_events_skipped += other.fault_events_skipped;
  fault_refusals += other.fault_refusals;
  routes_rerouted += other.routes_rerouted;
  routes_dropped += other.routes_dropped;
  checkpoints += other.checkpoints;
  chip_restores += other.chip_restores;
  energy_fj += other.energy_fj;
  dvs_level_changes += other.dvs_level_changes;
  job_energy_fj.merge(other.job_energy_fj);
  latency.merge(other.latency);
  queue_wait.merge(other.queue_wait);
  latency_sketch.merge(other.latency_sketch);
  checkpoint_bytes.merge(other.checkpoint_bytes);
  checkpoint_micros.merge(other.checkpoint_micros);
}

std::string FarmMetrics::render(const std::string& tick_unit) const {
  std::ostringstream out;
  out << "jobs: " << served() << " served (" << completed << " completed, "
      << deadlocked << " deadlocked, " << timed_out << " timed out, "
      << no_allocation << " unallocatable, " << errors << " errored); "
      << rejected << " rejected, " << cancelled << " cancelled\n";
  out << "batches: " << batches << " (" << fuse_reuses
      << " fuse reuses)\n";
  out << "simulated: " << config_cycles << " config + " << exec_cycles
      << " exec cycles, " << faults << " faults\n";
  if (injected_faults + retries + quarantined_chips + worker_stalls +
          worker_crashes + health_compactions >
      0) {
    out << "degraded: " << injected_faults << " injected faults, "
        << retries << " retries, " << degraded_completed
        << " completed degraded, " << worker_stalls << " stalls, "
        << worker_crashes << " crashes, " << quarantined_chips
        << " chips quarantined, " << health_compactions << "/"
        << health_checks << " health checks compacted\n";
  }
  if (checkpoints > 0) {
    out << "checkpoints: " << checkpoints << " taken ("
        << format_sig(checkpoint_bytes.mean(), 4) << " bytes mean), "
        << chip_restores << " chips restored\n";
  }
  if (energy_fj > 0) {
    out << "energy: " << energy_fj << " fJ billed to jobs (mean "
        << format_sig(job_energy_fj.mean(), 4) << " fJ/job), "
        << dvs_level_changes << " DVS level changes\n";
  }
  if (latency.count() > 0) {
    out << "latency (" << tick_unit << "): mean "
        << format_sig(latency.mean(), 4) << ", p50 "
        << format_sig(latency_percentile(0.50), 4) << ", p95 "
        << format_sig(latency_percentile(0.95), 4) << ", p99 "
        << format_sig(latency_percentile(0.99), 4) << ", max "
        << format_sig(latency.max(), 4) << "\n";
    out << "queue wait (" << tick_unit << "): mean "
        << format_sig(queue_wait.mean(), 4) << ", max "
        << format_sig(queue_wait.max(), 4) << "\n";
  }
  return out.str();
}

void FarmMetrics::export_into(MetricRegistry& registry) const {
  registry.counter("farm.submitted") += submitted;
  registry.counter("farm.admitted") += admitted;
  registry.counter("farm.rejected") += rejected;
  registry.counter("farm.cancelled") += cancelled;
  registry.counter("farm.served") += served();
  registry.counter("farm.completed") += completed;
  registry.counter("farm.deadlocked") += deadlocked;
  registry.counter("farm.timed_out") += timed_out;
  registry.counter("farm.no_allocation") += no_allocation;
  registry.counter("farm.errors") += errors;
  registry.counter("farm.batches") += batches;
  registry.counter("farm.fuse_reuses") += fuse_reuses;
  registry.counter("farm.config_cycles") += config_cycles;
  registry.counter("farm.exec_cycles") += exec_cycles;
  registry.counter("farm.faults") += faults;
  registry.counter("farm.retries") += retries;
  registry.counter("farm.worker_stalls") += worker_stalls;
  registry.counter("farm.worker_crashes") += worker_crashes;
  registry.counter("farm.quarantined_chips") += quarantined_chips;
  registry.counter("farm.degraded_completed") += degraded_completed;
  registry.counter("farm.health_checks") += health_checks;
  registry.counter("farm.health_compactions") += health_compactions;
  registry.counter("fault.injected") += injected_faults;
  registry.counter("fault.applied") += fault_events_applied;
  registry.counter("fault.skipped") += fault_events_skipped;
  registry.counter("fault.refusals") += fault_refusals;
  registry.counter("fault.routes_rerouted") += routes_rerouted;
  registry.counter("fault.routes_dropped") += routes_dropped;
  registry.counter("farm.checkpoints") += checkpoints;
  registry.counter("farm.chip_restores") += chip_restores;
  if (checkpoint_bytes.count() > 0) {
    registry.gauge("farm.checkpoint_bytes_mean") = checkpoint_bytes.mean();
    registry.gauge("farm.checkpoint_micros_mean") = checkpoint_micros.mean();
    registry.gauge("farm.checkpoint_micros_max") = checkpoint_micros.max();
  }
  if (energy_fj > 0 || dvs_level_changes > 0) {
    registry.counter("farm.energy_fj") += energy_fj;
    registry.counter("farm.dvs_level_changes") += dvs_level_changes;
    if (job_energy_fj.count() > 0) {
      registry.gauge("farm.job_energy_fj_mean") = job_energy_fj.mean();
      registry.gauge("farm.job_energy_fj_max") = job_energy_fj.max();
    }
  }
  registry.sketch("farm.latency").merge(latency_sketch);
  if (queue_wait.count() > 0) {
    registry.gauge("farm.queue_wait_mean") = queue_wait.mean();
    registry.gauge("farm.queue_wait_max") = queue_wait.max();
  }
}

}  // namespace vlsip::obs

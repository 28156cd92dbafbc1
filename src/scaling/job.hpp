// Jobs — the unit of work a chip serves.
//
// A Job bundles a program, its input streams and the cluster count the
// application designer requests (§1: "Application designers know the
// optimal amount of resources"). A JobOutcome records what actually
// happened: cycle breakdown, completion status and collected outputs.
// Both types are shared between the single-chip JobScheduler
// (scaling/job_scheduler.*) and the multi-chip farm (runtime/).
//
// run_job_on() is the per-chip execution core: configure + feed + run
// on an already-fused processor, without allocating or releasing it —
// callers own placement, so a batcher can amortise one configuration
// wormhole over many jobs. The farm (runtime/chip_farm.*) is its one
// serving loop, a resumed checkpoint included (runtime/replay.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/datapath.hpp"
#include "scaling/scaling_manager.hpp"

namespace vlsip::scaling {

struct Job {
  std::string name;
  arch::Program program;
  std::map<std::string, std::vector<arch::Word>> inputs;
  /// Tokens expected at every output before the job is complete.
  std::size_t expected_per_output = 1;
  /// Clusters the application designer requests (§1: "Application
  /// designers know the optimal amount of resources").
  std::size_t requested_clusters = 1;
  /// Per-job execution-cycle budget; 0 = use the caller's default.
  std::uint64_t max_cycles = 0;
};

/// What happened to a job, beyond the bare completed bit.
enum class JobStatus : std::uint8_t {
  kPending = 0,    ///< not yet run
  kCompleted,      ///< every output collected its expected tokens
  kDeadlocked,     ///< executor wait-for cycle, will never finish
  kTimedOut,       ///< hit the cycle budget
  kNoAllocation,   ///< the chip could not host requested_clusters
  kRejected,       ///< admission control refused it (queue full)
  kCancelled,      ///< cancelled or deadline expired before start
  kError,          ///< the run threw (invalid job, model violation)
};

const char* to_string(JobStatus status);

struct JobOutcome {
  std::string name;
  /// Farm-assigned admission id (0 outside the farm).
  std::uint64_t id = 0;
  bool completed = false;
  JobStatus status = JobStatus::kPending;
  /// Human-readable reason when not completed (rejection reason,
  /// deadlock report, ...). Empty on success.
  std::string detail;
  /// Timestamps in the scheduler's ticks: simulated cycles for the
  /// discrete-event JobScheduler, farm ticks (wall microseconds, or
  /// virtual cycles in deterministic mode) for the ChipFarm.
  std::uint64_t queued_at = 0;
  std::uint64_t started_at = 0;
  std::uint64_t finished_at = 0;
  std::size_t clusters_used = 0;
  std::uint64_t config_cycles = 0;
  std::uint64_t exec_cycles = 0;
  std::uint64_t faults = 0;
  /// Service attempts the farm made (1 = served first try; > 1 = the
  /// fault-tolerance path retried it; 0 = never reached a chip).
  std::uint32_t attempts = 0;
  /// Farm tick of the checkpoint the serving chip was restored from,
  /// when this job ran on a replacement chip resumed after a
  /// quarantine. 0 = the chip's history was uninterrupted.
  std::uint64_t resumed_from_cycle = 0;
  /// Femtojoules the serving chip's energy meter advanced by while this
  /// job ran (0 when the farm's energy accounting is off). Integer and
  /// derived from serialized counters, so deterministic per seed.
  std::uint64_t energy_fj = 0;
  /// Output tokens by port name, collected after a completed run.
  std::map<std::string, std::vector<arch::Word>> outputs;

  std::uint64_t turnaround() const { return finished_at - queued_at; }
};

/// Configures and executes `job` on the already-fused processor `proc`
/// (which must be inactive and sized by the caller). Does not allocate
/// or release: reusing one fused processor across several jobs is what
/// amortises the configuration wormhole. Fills status, cycle counts,
/// faults, clusters_used and outputs; timestamps stay 0 (the caller
/// owns the clock).
JobOutcome run_job_on(ScalingManager& manager, ProcId proc, const Job& job,
                      std::uint64_t default_max_cycles);

}  // namespace vlsip::scaling

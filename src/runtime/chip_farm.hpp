// ChipFarm — a concurrent multi-chip job-serving runtime.
//
// The paper sizes one dynamic CMP to one job at a time; a production
// service sizes a *fleet*. The farm owns N worker threads, each driving
// an independent VlsiProcessor (one simulated chip), behind a bounded
// admission queue with caller-chosen backpressure (block or reject with
// a reason). Workers pull batches grouped by requested_clusters
// (runtime/batcher.*) and keep one fused processor alive across a
// batch, paying the §3.3 configuration wormhole once per batch instead
// of once per job. Completion is asynchronous: submit() returns a
// std::future<JobOutcome>, with an optional callback invoked on the
// worker thread. Per-job deadlines cancel jobs still queued when their
// time passes; per-job cycle budgets time out runaway programs.
//
// Two clocks:
//   * threaded mode (default): ticks are wall-clock microseconds since
//     farm construction — real service latency under real concurrency;
//   * deterministic mode: one worker, and ticks are the virtual cycle
//     clock advanced by each job's simulated config+exec cycles. The
//     farm constructs paused with an unbounded queue and drain()/
//     resume() starts service, so submissions never race the worker:
//     the same manifest yields bit-identical JobOutcome sequences on
//     every run (tests pin this down).
//
// Metrics aggregate per-worker FarmMetrics into farm-level throughput
// and p50/p95/p99 latency (obs/farm_metrics.*; exact below the latency
// sketch's reservoir capacity, bounded-memory past it). obs_metrics()
// additionally merges every worker chip's layer probes (noc/scaling/ap)
// into one MetricRegistry for the ObsSnapshot exporters, and
// FarmConfig::trace accepts a TraceSink that receives structured
// farm-level events (admission, batches, faults, healing) suitable for
// chrome-trace export.
//
// Fault tolerance (FaultToleranceConfig): the farm can replay a seeded
// fault::FaultPlan — events keyed to the global serve-sequence number,
// so deterministic mode stays bit-identical — injecting chip faults
// (cluster / object / switch / CSD-segment / memory) plus worker stalls
// and crashes. The self-healing path retries environment-induced
// failures with exponential backoff, quarantines chips that fault
// repeatedly (fresh silicon takes the slot), health-checks chips
// between batches (compacting fragmentation), and surfaces it all via
// degraded-mode metrics and health() snapshots. The invariant the chaos
// tests pin: no admitted job is ever lost — every future resolves.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/vlsi_processor.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/farm_metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "runtime/admission_queue.hpp"
#include "runtime/dvs_governor.hpp"
#include "scaling/job.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::runtime {

/// Self-healing knobs. When enabled, the farm consumes a FaultPlan
/// (events triggered by the global serve-sequence number, so
/// deterministic mode stays bit-identical), retries environment-induced
/// failures with exponential backoff, quarantines chips that fault
/// repeatedly, and health-checks chips between batches.
struct FaultToleranceConfig {
  bool enabled = false;
  /// Fault plan to replay. Event `at` fields are global serve-sequence
  /// numbers: event e fires just before the farm's e.at-th service
  /// attempt (farm-wide), on the worker performing it.
  fault::FaultPlan plan;
  /// Extra service attempts for a job whose failure the farm classifies
  /// as environment-induced (chip error / crash / no-allocation while
  /// fault injection is active). 0 disables retry.
  std::size_t max_retries = 2;
  /// Backoff before retry attempt k is served: base << (k - 1) farm
  /// ticks (virtual cycles in deterministic mode, microseconds
  /// threaded). 0 retries immediately.
  std::uint64_t retry_backoff_ticks = 64;
  /// Consecutive faulty services after which a worker's chip is pulled
  /// from service and replaced with a fresh one (0 = never).
  std::size_t quarantine_after = 3;
};

struct FarmConfig {
  /// Worker threads = independent chips (deterministic mode forces 1).
  std::size_t workers = 4;
  std::size_t queue_capacity = 64;
  /// Backpressure when the queue is full: block the submitter until
  /// space frees (true) or reject with a reason (false).
  bool block_when_full = false;
  BatchPolicy batch;
  /// Single worker + virtual cycle clock; bit-identical outcomes.
  /// Starts paused with an unbounded queue (queue_capacity and
  /// block_when_full are ignored): submit everything, then drain().
  bool deterministic = false;
  /// Cycle budget for jobs that don't carry their own.
  std::uint64_t default_max_cycles = 1u << 22;
  /// Emulated silicon clock in Hz. When non-zero (threaded mode only),
  /// each job's service is paced so it occupies the chip for
  /// (config+exec cycles)/chip_hz of wall time, as real silicon would.
  /// Throughput then measures farm-level concurrency — how well chips
  /// overlap — rather than how fast the host simulates one chip.
  /// 0 = serve as fast as the host can simulate. With DVS, chip_hz is
  /// the *nominal* clock; the effective clock is chip_hz scaled by the
  /// chip's current ladder point. In deterministic mode the virtual
  /// clock advances by cycles · 100 / freq_pct instead, so a throttled
  /// chip's longer service time is visible in p99 without wall sleeps.
  double chip_hz = 0.0;
  /// Energy-aware scheduling (runtime/dvs_governor.hpp). When enabled,
  /// per-chip energy accounting is forced on (chip.energy.enabled) and
  /// each worker's governor re-picks the chip's DVS level after every
  /// batch, trading p99 latency against joules-per-job under
  /// `dvs.energy_budget_fj_per_job`. The chip's ladder and starting
  /// level come from FarmConfig::chip.energy.
  DvsConfig dvs;
  /// Keep every served outcome for outcome_log() (tests, serve verb).
  bool keep_outcome_log = true;
  /// Checkpoint each worker's chip every N completed batches (at the
  /// post-batch health check, when the chip is quiescent). 0 = off —
  /// checkpointing is never on the job-serving hot path. When on, a
  /// quarantine restores the replacement chip from the slot's last
  /// checkpoint instead of starting from fresh silicon, and outcomes
  /// served on the resumed chip carry resumed_from_cycle.
  std::size_t checkpoint_every_batches = 0;
  /// Template for each worker's chip.
  core::ChipConfig chip;
  /// Fault injection + self-healing (off by default).
  FaultToleranceConfig fault_tolerance;
  /// Borrowed structured-event sink for farm-level events (admission,
  /// batching, fault injection, self-healing). Null or disabled = no
  /// events, no cost beyond one branch. The farm serialises its own
  /// writes; don't share a sink with concurrent non-farm writers.
  obs::TraceSink* trace = nullptr;
};

struct SubmitOptions {
  /// Absolute farm tick (see ChipFarm::now()) after which the job is
  /// cancelled instead of started; 0 = none.
  std::uint64_t deadline = 0;
  /// Absolute farm tick at which the job nominally arrives; 0 = now.
  /// The job is not served before this tick, and its queued_at stamp —
  /// the base for latency metrics — is the arrival, so open-loop
  /// traffic (scenario packs) can be submitted up front and still
  /// yield release-time latencies. In deterministic mode the virtual
  /// clock advances to the arrival instead of sleeping.
  std::uint64_t arrival_tick = 0;
  /// Overrides the job's cycle budget when non-zero.
  std::uint64_t max_cycles = 0;
  /// Invoked on the worker thread right after the future is fulfilled.
  std::function<void(const scaling::JobOutcome&)> on_complete;
};

/// Result of admission control. On rejection `outcome` is invalid and
/// `reason` says why; on admission the future delivers the JobOutcome.
struct Admission {
  bool admitted = false;
  std::uint64_t id = 0;
  std::string reason;
  std::future<scaling::JobOutcome> outcome;
};

class ChipFarm {
 public:
  explicit ChipFarm(FarmConfig config = {});
  /// Serves everything still admitted, then joins the workers.
  ~ChipFarm();

  ChipFarm(const ChipFarm&) = delete;
  ChipFarm& operator=(const ChipFarm&) = delete;

  /// Admission control. Validates the job (throws PreconditionError on
  /// an empty program or zero clusters, like JobScheduler::submit),
  /// then admits, blocks, or rejects per FarmConfig::block_when_full.
  Admission submit(scaling::Job job, SubmitOptions options = {});

  /// Cancels a job still in the queue: its future resolves to a
  /// kCancelled outcome. Returns false when the job already started
  /// (running jobs are not preempted) or finished.
  bool cancel(std::uint64_t id);

  /// Freeze/unfreeze consumption (admission unaffected) — lets tests
  /// stage exact queue states.
  void pause();
  void resume();

  /// Blocks until every admitted job has been served. The farm must
  /// not be paused — except in deterministic mode, where drain()
  /// itself ends the staging pause and starts service.
  void drain();

  /// Stops admission, serves the backlog, joins workers. Idempotent;
  /// the destructor calls it.
  void shutdown();

  /// Current farm tick: wall microseconds since construction, or the
  /// virtual cycle clock in deterministic mode.
  std::uint64_t now() const;

  std::size_t workers() const { return workers_.size(); }
  std::size_t queue_depth() const { return queue_.size(); }

  /// Aggregated snapshot across all workers + admission counters.
  obs::FarmMetrics metrics() const;

  /// One-call observability export: the aggregated FarmMetrics (under
  /// "farm." / "fault." names) merged with every worker chip's layer
  /// probes ("noc.", "scaling.", "ap.", "chip."), as published by each
  /// worker at its last health check — chips mutate only on their own
  /// worker thread, so snapshots never read a live chip.
  obs::MetricRegistry obs_metrics() const;

  /// Served outcomes in completion order (requires keep_outcome_log).
  std::vector<scaling::JobOutcome> outcome_log() const;

  /// One worker's chip condition, as of its last completed batch (the
  /// snapshot a worker publishes after each batch; chips mutate only on
  /// their own worker thread, so live reads would race).
  struct ChipHealth {
    std::size_t worker = 0;
    std::size_t total_clusters = 0;
    std::size_t defective_clusters = 0;
    std::size_t free_clusters = 0;
    std::size_t largest_free_run = 0;
    /// Consecutive faulty services; reset by a clean one or a chip swap.
    std::uint64_t consecutive_faults = 0;
    /// Chips this slot has retired to quarantine so far.
    std::uint64_t chips_retired = 0;
    /// Why the last chip was retired ("worker crash", "repeated
    /// faults"); empty if this slot never quarantined.
    std::string last_quarantine_reason;
  };

  /// Health snapshots for every worker slot.
  std::vector<ChipHealth> health() const;

  // --- checkpoint hooks --------------------------------------------------
  //
  // A chip snapshot goes back into service one way: restored into a farm
  // slot, whose serving loop takes it from there. Quarantine restores
  // its spare through the routine restore_chip uses; a daemon peer
  // resumes a migrated checkpoint with restore_chip (runtime/replay.hpp).
  // Both hooks require the farm to be idle — before the first submit(),
  // or after drain() has returned and before any further submit(): a
  // worker then blocks on the admission queue and never touches its
  // chip until a new job arrives.

  /// Serialises worker `index`'s chip into `out` (a complete .vsnap
  /// buffer, restorable by VlsiProcessor::restore or restore_chip).
  /// kInvalidArgument on a bad index.
  Status save_chip(std::size_t index, snapshot::Snapshot& out) const;

  /// Replaces worker `index`'s chip with fresh silicon restored from
  /// `snapshot`; outcomes the slot serves from then on carry
  /// resumed_from_cycle = `resumed_from_tick`. kInvalidArgument on a bad
  /// index; kCorruptSnapshot when the bytes do not restore into
  /// FarmConfig::chip's geometry, leaving the slot's chip unchanged.
  Status restore_chip(std::size_t index, const snapshot::Snapshot& snapshot,
                      std::uint64_t resumed_from_tick);

 private:
  struct Worker {
    std::size_t index = 0;
    std::unique_ptr<core::VlsiProcessor> chip;
    std::thread thread;
    obs::FarmMetrics metrics;  // guarded by ChipFarm::metrics_mutex_
    ChipHealth health;         // guarded by ChipFarm::metrics_mutex_
    /// Chip-layer metric snapshot (noc/scaling/ap probes), re-published
    /// by the owning worker at each health check / quarantine; guarded
    /// by ChipFarm::metrics_mutex_.
    obs::MetricRegistry chip_obs;
    /// Worker-thread-private storage publish_obs() builds the next
    /// chip_obs in, then swaps with it.
    obs::MetricRegistry chip_obs_next;
    /// Layer probes of chips this slot already retired to quarantine —
    /// worker-thread private (only the owning worker reads or writes).
    obs::MetricRegistry retired_obs;
    /// Worker-thread-private fault state (set by the fault pump, read
    /// while serving).
    std::uint64_t consecutive_faults = 0;
    std::uint64_t stall_pending = 0;
    bool crash_pending = false;
    /// Checkpoint state (worker-thread private). last_checkpoint is the
    /// most recent post-batch chip snapshot; empty until the first one.
    snapshot::Snapshot last_checkpoint;
    std::uint64_t last_checkpoint_tick = 0;
    std::size_t batches_since_checkpoint = 0;
    /// Tick of the checkpoint the current chip was restored from
    /// (0 = uninterrupted silicon); stamped onto served outcomes.
    std::uint64_t resumed_from = 0;
    /// Energy/DVS governor state (worker-thread private). The chip's
    /// ladder level itself lives in the chip (and its snapshots);
    /// these are the governor's decision window and the worker's
    /// lifetime served-with-energy counters feeding it.
    DvsGovernor governor;
    std::uint64_t jobs_served = 0;
  };

  void worker_loop(Worker& worker);
  /// Serves one batch on one chip, reusing a single fused processor
  /// when the batch shares a cluster count.
  void serve_batch(Worker& worker, std::vector<PendingJob> batch);
  void finish_job(Worker& worker, PendingJob& pending,
                  scaling::JobOutcome outcome);
  scaling::JobOutcome cancelled_outcome(const PendingJob& pending,
                                        const std::string& why) const;

  // --- fault tolerance internals (no-ops unless enabled) ----------------

  /// Fires every plan event due at serve-sequence `seq` against the
  /// serving worker: chip events through fault::apply_chip_event,
  /// stalls/crashes onto the worker's pending flags.
  void pump_faults(Worker& worker, std::uint64_t seq);
  /// True when the farm should re-admit this failed service attempt.
  bool should_retry(const PendingJob& pending,
                    const scaling::JobOutcome& outcome) const;
  /// Re-admits a failed job with exponential backoff.
  void requeue_for_retry(Worker& worker, PendingJob& pending);
  /// Retires the worker's chip; the spare resumes from the slot's last
  /// checkpoint (restore_into) or, without one, starts blank.
  void quarantine_chip(Worker& worker, const char* why);
  /// The one restore: fresh silicon restored from `snapshot` replaces
  /// the worker's chip, with a re-seated governor; counts
  /// farm.chip_restores. On failure the worker keeps its chip.
  Status restore_into(Worker& worker, const snapshot::Snapshot& snapshot,
                      std::uint64_t resumed_from_tick);
  /// Post-batch health check: publishes a ChipHealth snapshot and
  /// compacts a fragmented chip.
  void health_check(Worker& worker);
  /// Serialises the worker's chip into its checkpoint slot when the
  /// batch cadence (FarmConfig::checkpoint_every_batches) is due.
  void maybe_checkpoint(Worker& worker);
  /// Sleeps (threaded) or advances the virtual clock (deterministic)
  /// until `tick`; used by retry backoff and worker stalls.
  void wait_until_tick(std::uint64_t tick);
  void publish_health(Worker& worker);
  /// Re-exports the worker chip's layer probes into Worker::chip_obs
  /// (on the owning worker thread; the write is mutex-published).
  void publish_obs(Worker& worker);
  /// True when FarmConfig::trace is an enabled sink. The per-job
  /// callers (submit, serve_batch, finish_job) test it before formatting
  /// a trace_event() message, so a probe that is off costs them one
  /// branch and builds no string.
  bool tracing() const {
    return config_.trace != nullptr && config_.trace->enabled();
  }
  /// Farm-level structured event; no-op unless tracing(). Serialised by
  /// trace_mutex_ — never called with metrics_mutex_ held.
  void trace_event(obs::Layer layer, std::int64_t id, const char* category,
                   std::string message, std::uint64_t cycle,
                   std::uint64_t dur = 0);

  FarmConfig config_;
  AdmissionQueue queue_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex metrics_mutex_;
  obs::FarmMetrics admission_metrics_;  // submitted/rejected/cancelled
  std::vector<scaling::JobOutcome> outcome_log_;
  /// Serialises writes to the borrowed FarmConfig::trace sink.
  std::mutex trace_mutex_;

  /// Fault-plan cursor (sorted at construction); shared across workers.
  std::mutex fault_mutex_;
  std::size_t next_fault_ = 0;

  /// Virtual clock (deterministic mode); atomic so now() is callable
  /// from any thread.
  std::atomic<std::uint64_t> vclock_{0};
  std::atomic<std::uint64_t> next_id_{1};
  /// Global service-attempt counter — the fault plan's trigger axis.
  std::atomic<std::uint64_t> serve_seq_{0};
  bool shut_down_ = false;
};

}  // namespace vlsip::runtime

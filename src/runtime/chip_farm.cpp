#include "runtime/chip_farm.hpp"

#include <algorithm>
#include <exception>

#include "common/require.hpp"

namespace vlsip::runtime {

ChipFarm::ChipFarm(FarmConfig config)
    : config_(std::move(config)),
      // Deterministic mode stages every submission before service (see
      // below), so a bounded queue would deadlock blocking admission
      // and make rejections depth-dependent: unbounded instead.
      queue_(config_.deterministic ? SIZE_MAX : config_.queue_capacity),
      epoch_(std::chrono::steady_clock::now()) {
  VLSIP_REQUIRE(config_.workers >= 1, "the farm needs at least one worker");
  // Checked here rather than in take_batch(), which runs on a worker
  // thread where a throw would terminate the process.
  VLSIP_REQUIRE(config_.batch.max_jobs >= 1,
                "batches must hold at least one job");
  // The fault pump walks the plan with one cursor: sorted, in order.
  config_.fault_tolerance.plan.sort();
  // DVS implies energy accounting: the governor prices jobs off the
  // chip's energy meter, so the two cannot be configured apart.
  if (config_.dvs.enabled) config_.chip.energy.enabled = true;
  const std::size_t n = config_.deterministic ? 1 : config_.workers;
  // Deterministic mode starts paused: if the worker consumed while the
  // caller was still submitting, batch composition and queued_at stamps
  // would depend on thread scheduling. drain() lifts the pause, so the
  // natural submit-everything-then-drain flow is race-free.
  if (config_.deterministic) queue_.set_paused(true);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;
    worker->chip = std::make_unique<core::VlsiProcessor>(config_.chip);
    worker->health.worker = i;
    worker->health.total_clusters = worker->chip->total_clusters();
    worker->health.free_clusters = worker->chip->free_clusters();
    worker->health.largest_free_run =
        worker->chip->manager().largest_free_run();
    worker->governor = DvsGovernor(config_.dvs, worker->chip->energy_model());
    workers_.push_back(std::move(worker));
  }
  // Chips first, threads second: a worker thread must never observe a
  // half-built fleet.
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] {
      worker_loop(*w);
    });
  }
}

ChipFarm::~ChipFarm() { shutdown(); }

std::uint64_t ChipFarm::now() const {
  if (config_.deterministic) return vclock_.load(std::memory_order_relaxed);
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
          .count());
}

Admission ChipFarm::submit(scaling::Job job, SubmitOptions options) {
  VLSIP_REQUIRE(!job.program.stream.empty(), "job has an empty program");
  VLSIP_REQUIRE(job.requested_clusters >= 1,
                "job must request at least one cluster");
  if (options.max_cycles != 0) job.max_cycles = options.max_cycles;

  PendingJob pending;
  pending.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  pending.job = std::move(job);
  pending.deadline = options.deadline;
  pending.queued_at = now();
  if (options.arrival_tick > pending.queued_at) {
    pending.queued_at = options.arrival_tick;
    pending.not_before = options.arrival_tick;
  }
  pending.on_complete = std::move(options.on_complete);

  Admission admission;
  admission.id = pending.id;
  admission.outcome = pending.promise.get_future();

  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++admission_metrics_.submitted;
  }

  bool ok;
  std::string reason;
  if (config_.block_when_full) {
    ok = queue_.push_wait(std::move(pending));
    if (!ok) reason = "queue closed";
  } else {
    ok = queue_.try_push(std::move(pending), &reason);
  }

  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    if (ok) {
      ++admission_metrics_.admitted;
      admission.admitted = true;
    } else {
      ++admission_metrics_.rejected;
      admission.admitted = false;
      admission.reason = reason;
      admission.outcome = {};
      admission.id = 0;
    }
  }
  if (tracing()) {
    if (ok) {
      trace_event(obs::Layer::kRuntime,
                  static_cast<std::int64_t>(admission.id), "admission",
                  "job " + std::to_string(admission.id) + " admitted", now());
    } else {
      trace_event(obs::Layer::kRuntime, -1, "admission",
                  "job rejected: " + reason, now());
    }
  }
  return admission;
}

scaling::JobOutcome ChipFarm::cancelled_outcome(
    const PendingJob& pending, const std::string& why) const {
  scaling::JobOutcome outcome;
  outcome.name = pending.job.name;
  outcome.id = pending.id;
  outcome.status = scaling::JobStatus::kCancelled;
  outcome.detail = why;
  outcome.queued_at = pending.queued_at;
  const std::uint64_t t = now();
  outcome.started_at = t;
  outcome.finished_at = t;
  return outcome;
}

bool ChipFarm::cancel(std::uint64_t id) {
  PendingJob pending;
  if (!queue_.cancel(id, pending)) return false;
  scaling::JobOutcome outcome = cancelled_outcome(pending, "cancelled");
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++admission_metrics_.cancelled;
    if (config_.keep_outcome_log) outcome_log_.push_back(outcome);
  }
  pending.promise.set_value(outcome);
  if (pending.on_complete) pending.on_complete(outcome);
  return true;
}

void ChipFarm::pause() { queue_.set_paused(true); }
void ChipFarm::resume() { queue_.set_paused(false); }
void ChipFarm::drain() {
  // In deterministic mode the farm pauses itself at construction;
  // drain is the point where staging ends and service begins.
  if (config_.deterministic) queue_.set_paused(false);
  queue_.wait_idle();
}

void ChipFarm::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  queue_.close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void ChipFarm::worker_loop(Worker& worker) {
  for (;;) {
    std::vector<PendingJob> batch = queue_.pop_batch(config_.batch);
    if (batch.empty()) return;  // closed and drained
    serve_batch(worker, std::move(batch));
    // Health check before finish_batch(): drain() must observe a chip
    // that has already been compacted/snapshotted for this batch.
    health_check(worker);
    queue_.finish_batch();
  }
}

void ChipFarm::serve_batch(Worker& worker, std::vector<PendingJob> batch) {
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++worker.metrics.batches;
  }
  if (tracing()) {
    trace_event(obs::Layer::kRuntime,
                static_cast<std::int64_t>(worker.index), "batch",
                "worker " + std::to_string(worker.index) +
                    " serving batch of " + std::to_string(batch.size()) +
                    " jobs (" +
                    std::to_string(batch.front().job.requested_clusters) +
                    " clusters)",
                now());
  }
  const FaultToleranceConfig& ft = config_.fault_tolerance;

  // One fused processor for the whole batch (take_batch groups by
  // requested_clusters): the configuration wormhole is paid once here,
  // then each job only re-runs the AP-level configuration pipeline.
  // Fault injection can kill the fused processor (or the whole chip)
  // mid-batch, so `proc` is re-fused as needed and the chip is always
  // reached through worker.chip (quarantine swaps it).
  const std::size_t clusters = batch.front().job.requested_clusters;
  scaling::ProcId proc = worker.chip->fuse(clusters);
  std::size_t fuses = proc != scaling::kNoProc ? 1 : 0;
  std::size_t ran_on_shared = 0;

  const auto account_reuse = [&] {
    if (ran_on_shared > fuses) {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      worker.metrics.fuse_reuses += ran_on_shared - fuses;
    }
  };

  for (std::size_t i = 0; i < batch.size(); ++i) {
    PendingJob& pending = batch[i];

    if (ft.enabled) {
      // Global serve-sequence number: the fault plan's trigger axis.
      const std::uint64_t seq =
          serve_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
      pump_faults(worker, seq);
    }

    if (worker.crash_pending) {
      // The chip died mid-batch. Retire it, fuse in a spare, and push
      // this job and the rest of the batch back through admission so
      // they land on healthy silicon (none of them consumed a service
      // attempt — the crash pre-empted them).
      worker.crash_pending = false;
      {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        ++worker.metrics.worker_crashes;
      }
      trace_event(obs::Layer::kFault,
                  static_cast<std::int64_t>(worker.index), "crash",
                  "worker " + std::to_string(worker.index) +
                      " chip crashed mid-batch; requeueing " +
                      std::to_string(batch.size() - i) + " jobs",
                  now());
      quarantine_chip(worker, "worker crash");
      proc = scaling::kNoProc;  // died with the chip
      for (std::size_t j = i; j < batch.size(); ++j) {
        queue_.requeue(std::move(batch[j]));
      }
      account_reuse();
      return;
    }

    if (worker.stall_pending > 0) {
      // A stall occupies the chip without serving: latency, not loss.
      const std::uint64_t ticks = worker.stall_pending;
      worker.stall_pending = 0;
      {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        ++worker.metrics.worker_stalls;
      }
      trace_event(obs::Layer::kFault,
                  static_cast<std::int64_t>(worker.index), "stall",
                  "worker " + std::to_string(worker.index) + " stalled " +
                      std::to_string(ticks) + " ticks",
                  now(), ticks);
      wait_until_tick(now() + ticks);
    }

    // Retry backoff: the job may not be served before not_before.
    if (pending.not_before > now()) wait_until_tick(pending.not_before);

    if (pending.deadline != 0 && now() > pending.deadline) {
      finish_job(worker, pending,
                 cancelled_outcome(pending, "deadline expired before start"));
      continue;
    }

    // Heal the batch's shared processor: a cluster fault may have
    // driven it through release, or a quarantine swapped the chip.
    if (ft.enabled &&
        (proc == scaling::kNoProc || !worker.chip->manager().alive(proc))) {
      proc = worker.chip->fuse(clusters);
      if (proc != scaling::kNoProc) ++fuses;
    }

    ++pending.attempts;
    scaling::JobOutcome outcome;
    const std::uint64_t started = now();
    if (proc == scaling::kNoProc) {
      outcome.name = pending.job.name;
      outcome.status = scaling::JobStatus::kNoAllocation;
      outcome.detail = "cannot fuse " + std::to_string(clusters) +
                       " clusters on a " +
                       std::to_string(worker.chip->total_clusters()) +
                       "-cluster chip";
    } else {
      // The chip's energy meter brackets the service: the delta is the
      // job's bill. Counter-derived, so deterministic per seed.
      const std::uint64_t fj_before = worker.chip->energy_enabled()
                                          ? worker.chip->energy_total_fj()
                                          : 0;
      try {
        outcome = run_job_on(worker.chip->manager(), proc, pending.job,
                             config_.default_max_cycles);
        ++ran_on_shared;
      } catch (const std::exception& e) {
        outcome.name = pending.job.name;
        outcome.status = scaling::JobStatus::kError;
        outcome.detail = e.what();
      }
      if (worker.chip->energy_enabled()) {
        outcome.energy_fj = worker.chip->energy_total_fj() - fj_before;
        ++worker.jobs_served;
      }
    }

    if (ft.enabled) {
      const bool faulty =
          outcome.status == scaling::JobStatus::kError ||
          outcome.status == scaling::JobStatus::kNoAllocation;
      if (faulty) {
        ++worker.consecutive_faults;
      } else {
        worker.consecutive_faults = 0;
      }
      if (faulty && should_retry(pending, outcome)) {
        requeue_for_retry(worker, pending);
        if (ft.quarantine_after > 0 &&
            worker.consecutive_faults >= ft.quarantine_after) {
          quarantine_chip(worker, "repeated faults");
          proc = scaling::kNoProc;
        }
        continue;  // promise unresolved; the retry owns it now
      }
      if (faulty && pending.attempts > 1) {
        outcome.detail +=
            " (after " + std::to_string(pending.attempts) + " attempts)";
      }
      if (ft.quarantine_after > 0 &&
          worker.consecutive_faults >= ft.quarantine_after) {
        quarantine_chip(worker, "repeated faults");
        proc = scaling::kNoProc;
      }
    }

    if (!config_.deterministic && config_.chip_hz > 0.0) {
      // Occupy the chip for as long as the silicon would have: the
      // simulator tells us the cycle count, the clock rate tells us
      // the seconds. Zero-cycle outcomes (unallocatable, errored)
      // don't sleep. chip_hz is the *nominal* clock; the chip's DVS
      // operating point scales the effective rate.
      const auto cycles =
          static_cast<double>(outcome.config_cycles + outcome.exec_cycles);
      double hz = config_.chip_hz;
      if (worker.chip->energy_enabled()) {
        hz = hz * static_cast<double>(worker.chip->dvs_point().freq_pct) /
             100.0;
      }
      const auto pace_ns = static_cast<std::int64_t>(cycles * 1e9 / hz);
      if (pace_ns > 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(pace_ns));
    }

    outcome.started_at = started;
    if (config_.deterministic) {
      // Virtual ticks are nominal-clock time: a throttled chip takes
      // cycles * 100 / freq_pct ticks for the same work, so DVS shows
      // up as latency exactly as on silicon — and at the nominal level
      // (freq_pct == 100) the schedule is bit-identical to energy-off.
      std::uint64_t ticks = outcome.config_cycles + outcome.exec_cycles;
      if (worker.chip->energy_enabled()) {
        ticks = ticks * 100 / worker.chip->dvs_point().freq_pct;
      }
      outcome.finished_at =
          vclock_.fetch_add(ticks, std::memory_order_relaxed) + ticks;
      outcome.started_at = outcome.finished_at - ticks;
    } else {
      outcome.finished_at = now();
    }
    finish_job(worker, pending, std::move(outcome));
  }

  if (proc != scaling::kNoProc && worker.chip->manager().alive(proc)) {
    worker.chip->release(proc);
  }
  account_reuse();
}

void ChipFarm::finish_job(Worker& worker, PendingJob& pending,
                          scaling::JobOutcome outcome) {
  outcome.id = pending.id;
  outcome.queued_at = pending.queued_at;
  outcome.attempts = pending.attempts;
  outcome.resumed_from_cycle = worker.resumed_from;
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    worker.metrics.record(outcome);
    if (config_.keep_outcome_log) outcome_log_.push_back(outcome);
  }
  // The job's service renders as a chrome-trace span on the worker's
  // track: [started_at, finished_at] in farm ticks.
  if (tracing()) {
    trace_event(obs::Layer::kRuntime,
                static_cast<std::int64_t>(worker.index), "job",
                "job " + std::to_string(outcome.id) + " " +
                    scaling::to_string(outcome.status) + " on worker " +
                    std::to_string(worker.index),
                outcome.started_at, outcome.finished_at - outcome.started_at);
  }
  pending.promise.set_value(outcome);
  if (pending.on_complete) pending.on_complete(outcome);
}

void ChipFarm::wait_until_tick(std::uint64_t tick) {
  if (config_.deterministic) {
    std::uint64_t current = vclock_.load(std::memory_order_relaxed);
    while (current < tick &&
           !vclock_.compare_exchange_weak(current, tick,
                                          std::memory_order_relaxed)) {
    }
    return;
  }
  const std::uint64_t current = now();
  if (tick > current) {
    std::this_thread::sleep_for(std::chrono::microseconds(tick - current));
  }
}

void ChipFarm::pump_faults(Worker& worker, std::uint64_t seq) {
  const fault::FaultPlan& plan = config_.fault_tolerance.plan;
  fault::InjectionStats stats;
  std::uint64_t consumed = 0;
  {
    // The cursor is shared across workers; events fire on whichever
    // worker reaches their serve-sequence point (always the same one
    // in deterministic mode).
    std::lock_guard<std::mutex> lock(fault_mutex_);
    while (next_fault_ < plan.events.size() &&
           plan.events[next_fault_].at <= seq) {
      const fault::FaultEvent& event = plan.events[next_fault_++];
      ++consumed;
      switch (event.kind) {
        case fault::FaultKind::kWorkerStall:
          worker.stall_pending += std::max<std::uint64_t>(1, event.arg);
          break;
        case fault::FaultKind::kWorkerCrash:
          worker.crash_pending = true;
          break;
        default:
          fault::apply_chip_event(*worker.chip, event, stats);
          break;
      }
    }
  }
  if (consumed > 0) {
    {
      // Injected-vs-recovered accounting: the chip-level injection
      // stats (applied/skipped, reroute/drop recoveries) used to be
      // discarded here; fold them into the farm metrics.
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      worker.metrics.injected_faults += consumed;
      worker.metrics.fault_events_applied += stats.applied;
      worker.metrics.fault_events_skipped += stats.skipped;
      worker.metrics.fault_refusals += stats.refusals;
      worker.metrics.routes_rerouted += stats.routes_rerouted;
      worker.metrics.routes_dropped += stats.routes_dropped;
    }
    trace_event(obs::Layer::kFault,
                static_cast<std::int64_t>(worker.index), "inject",
                "worker " + std::to_string(worker.index) + " consumed " +
                    std::to_string(consumed) + " fault events (" +
                    std::to_string(stats.applied) + " applied, " +
                    std::to_string(stats.skipped) + " skipped, " +
                    std::to_string(stats.routes_rerouted) + " rerouted, " +
                    std::to_string(stats.routes_dropped) + " dropped)",
                now());
  }
}

bool ChipFarm::should_retry(const PendingJob& pending,
                            const scaling::JobOutcome& outcome) const {
  const FaultToleranceConfig& ft = config_.fault_tolerance;
  if (!ft.enabled) return false;
  // attempts counts services including the one that just failed, so
  // retries used = attempts - 1.
  if (pending.attempts > ft.max_retries) return false;
  return outcome.status == scaling::JobStatus::kError ||
         outcome.status == scaling::JobStatus::kNoAllocation;
}

void ChipFarm::requeue_for_retry(Worker& worker, PendingJob& pending) {
  const FaultToleranceConfig& ft = config_.fault_tolerance;
  if (ft.retry_backoff_ticks > 0) {
    // Exponential: attempt k waits base << (k - 1) ticks.
    pending.not_before =
        now() + (ft.retry_backoff_ticks << (pending.attempts - 1));
  }
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++worker.metrics.retries;
  }
  trace_event(obs::Layer::kRuntime,
              static_cast<std::int64_t>(pending.id), "retry",
              "job " + std::to_string(pending.id) +
                  " requeued for retry (attempt " +
                  std::to_string(pending.attempts + 1) + ")",
              now());
  queue_.requeue(std::move(pending));
}

Status ChipFarm::save_chip(std::size_t index, snapshot::Snapshot& out) const {
  if (index >= workers_.size()) {
    return Status(StatusCode::kInvalidArgument,
                  "no worker slot " + std::to_string(index));
  }
  // Precondition (header): farm idle. Locking metrics_mutex_ acquires
  // the publication the worker's last post-batch health check released,
  // so this thread reads the chip's final state, not a stale view.
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  return workers_[index]->chip->save(out);
}

Status ChipFarm::restore_chip(std::size_t index,
                              const snapshot::Snapshot& snapshot,
                              std::uint64_t resumed_from_tick) {
  if (index >= workers_.size()) {
    return Status(StatusCode::kInvalidArgument,
                  "no worker slot " + std::to_string(index));
  }
  // Precondition (header): farm idle, so the slot's worker is parked on
  // the admission queue, whose mutex publishes these writes to it.
  Worker& worker = *workers_[index];
  const Status restored = restore_into(worker, snapshot, resumed_from_tick);
  if (restored.ok()) {
    publish_health(worker);
    publish_obs(worker);
  }
  return restored;
}

Status ChipFarm::restore_into(Worker& worker,
                              const snapshot::Snapshot& snapshot,
                              std::uint64_t resumed_from_tick) {
  // Restore off to the side: a half-restored chip must never serve.
  auto chip = std::make_unique<core::VlsiProcessor>(config_.chip);
  const Status restored = chip->restore(snapshot);
  if (!restored.ok()) return restored;
  worker.chip = std::move(chip);
  // The governor's model pointer and meter anchors died with the old
  // chip; re-seat both on the restored one.
  worker.governor = DvsGovernor(config_.dvs, worker.chip->energy_model());
  worker.jobs_served = 0;
  worker.resumed_from = resumed_from_tick;
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++worker.metrics.chip_restores;
  }
  trace_event(obs::Layer::kRuntime, static_cast<std::int64_t>(worker.index),
              "restore",
              "worker " + std::to_string(worker.index) +
                  " restored its chip from the checkpoint at tick " +
                  std::to_string(resumed_from_tick),
              now());
  return Status::Ok();
}

void ChipFarm::quarantine_chip(Worker& worker, const char* why) {
  // The defective chip leaves the fleet; a spare of the same shape
  // takes over its slot. Any state on the old chip is gone — jobs it
  // was serving have already been requeued or finished. Its layer
  // probes are folded into the slot's retired registry first so the
  // counters survive the silicon.
  worker.chip->export_obs(worker.retired_obs);
  worker.chip = std::make_unique<core::VlsiProcessor>(config_.chip);
  // The governor's model pointer and meter anchors died with the old
  // chip; re-seat both on the replacement.
  worker.governor = DvsGovernor(config_.dvs, worker.chip->energy_model());
  worker.jobs_served = 0;
  worker.consecutive_faults = 0;
  worker.stall_pending = 0;
  worker.resumed_from = 0;
  if (config_.checkpoint_every_batches > 0 &&
      !worker.last_checkpoint.empty()) {
    // Resume the replacement from the slot's last known-good state
    // instead of blank silicon: quarantined defects, region layout and
    // accumulated AP state all carry over from the checkpoint.
    const Status restored = restore_into(worker, worker.last_checkpoint,
                                         worker.last_checkpoint_tick);
    if (!restored.ok()) {
      trace_event(obs::Layer::kRuntime,
                  static_cast<std::int64_t>(worker.index), "restore",
                  "worker " + std::to_string(worker.index) +
                      " checkpoint restore failed (" + restored.to_string() +
                      "); serving on fresh silicon",
                  now());
    }
  }
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++worker.metrics.quarantined_chips;
    ++worker.health.chips_retired;
    worker.health.last_quarantine_reason = why;
  }
  trace_event(obs::Layer::kRuntime,
              static_cast<std::int64_t>(worker.index), "quarantine",
              "worker " + std::to_string(worker.index) +
                  " quarantined its chip (" + why + ")",
              now());
  publish_health(worker);
  publish_obs(worker);
}

void ChipFarm::health_check(Worker& worker) {
  const FaultToleranceConfig& ft = config_.fault_tolerance;
  if (ft.enabled) {
    {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      ++worker.metrics.health_checks;
    }
    auto& manager = worker.chip->manager();
    if (manager.largest_free_run() < manager.free_clusters()) {
      if (manager.compact() > 0) {
        {
          std::lock_guard<std::mutex> lock(metrics_mutex_);
          ++worker.metrics.health_compactions;
        }
        trace_event(obs::Layer::kRuntime,
                    static_cast<std::int64_t>(worker.index), "health",
                    "worker " + std::to_string(worker.index) +
                        " compacted its chip at health check",
                    now());
      }
    }
  }
  if (config_.dvs.enabled && worker.chip->energy_enabled()) {
    // The governor steps at most one ladder level per health check,
    // reading the worker's own latency distribution (deterministic mode
    // runs one worker, so this is the farm-wide p99).
    double p99 = 0.0;
    {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      p99 = worker.metrics.latency_percentile(0.99);
    }
    const std::size_t current = worker.chip->dvs_level();
    const std::size_t next = worker.governor.decide(
        current, worker.jobs_served, worker.chip->energy_total_fj(),
        static_cast<std::uint64_t>(p99));
    if (next != current) {
      worker.chip->set_dvs_level(next);
      {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        ++worker.metrics.dvs_level_changes;
      }
      const auto point = worker.chip->dvs_point();
      trace_event(obs::Layer::kRuntime,
                  static_cast<std::int64_t>(worker.index), "dvs",
                  "worker " + std::to_string(worker.index) +
                      " stepped DVS level " + std::to_string(current) +
                      " -> " + std::to_string(next) + " (f " +
                      std::to_string(point.freq_pct) + "%, V " +
                      std::to_string(point.volt_pct) + "%)",
                  now());
    }
  }
  // Checkpoint after any compaction so the snapshot captures the
  // defragmented layout; the chip is quiescent between batches. The
  // governor steps first so the snapshot carries the new DVS level.
  maybe_checkpoint(worker);
  publish_health(worker);
  // Post-batch is the safe publication point for the chip's layer
  // probes: the chip mutates only on this thread, and the registry swap
  // below is mutex-published for snapshot readers.
  publish_obs(worker);
}

void ChipFarm::maybe_checkpoint(Worker& worker) {
  if (config_.checkpoint_every_batches == 0) return;
  if (++worker.batches_since_checkpoint < config_.checkpoint_every_batches) {
    return;
  }
  worker.batches_since_checkpoint = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const Status saved = worker.chip->save(worker.last_checkpoint);
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  if (!saved.ok()) {
    // A failed save must not leave a half-written checkpoint for the
    // quarantine path to restore.
    worker.last_checkpoint.clear();
    trace_event(obs::Layer::kRuntime,
                static_cast<std::int64_t>(worker.index), "checkpoint",
                "worker " + std::to_string(worker.index) +
                    " checkpoint failed (" + saved.to_string() + ")",
                now());
    return;
  }
  worker.last_checkpoint_tick = now();
  {
    // Serialisation cost is host telemetry: it feeds metrics only, never
    // the virtual clock, so deterministic outcomes stay bit-identical.
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++worker.metrics.checkpoints;
    worker.metrics.checkpoint_bytes.add(
        static_cast<double>(worker.last_checkpoint.size()));
    worker.metrics.checkpoint_micros.add(static_cast<double>(micros));
  }
  trace_event(obs::Layer::kRuntime,
              static_cast<std::int64_t>(worker.index), "checkpoint",
              "worker " + std::to_string(worker.index) + " checkpointed (" +
                  std::to_string(worker.last_checkpoint.size()) + " bytes)",
              now());
}

void ChipFarm::publish_obs(Worker& worker) {
  // Copy-assignment reuses the previous publication's storage.
  worker.chip_obs_next = worker.retired_obs;
  worker.chip->export_obs(worker.chip_obs_next);
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  worker.chip_obs.swap(worker.chip_obs_next);
}

void ChipFarm::trace_event(obs::Layer layer, std::int64_t id,
                           const char* category, std::string message,
                           std::uint64_t cycle, std::uint64_t dur) {
  if (!tracing()) return;
  std::lock_guard<std::mutex> lock(trace_mutex_);
  config_.trace->event(cycle, layer, category, id, std::move(message), dur);
}

void ChipFarm::publish_health(Worker& worker) {
  // Chip reads happen on the owning worker thread; only the snapshot
  // write is shared state.
  const std::size_t total = worker.chip->total_clusters();
  const std::size_t defective = worker.chip->defective_clusters();
  const std::size_t free_now = worker.chip->free_clusters();
  const std::size_t run = worker.chip->manager().largest_free_run();
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  worker.health.total_clusters = total;
  worker.health.defective_clusters = defective;
  worker.health.free_clusters = free_now;
  worker.health.largest_free_run = run;
  worker.health.consecutive_faults = worker.consecutive_faults;
}

std::vector<ChipFarm::ChipHealth> ChipFarm::health() const {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  std::vector<ChipHealth> out;
  out.reserve(workers_.size());
  for (const auto& worker : workers_) out.push_back(worker->health);
  return out;
}

obs::FarmMetrics ChipFarm::metrics() const {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  obs::FarmMetrics total = admission_metrics_;
  for (const auto& worker : workers_) total.merge(worker->metrics);
  return total;
}

obs::MetricRegistry ChipFarm::obs_metrics() const {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  obs::FarmMetrics total = admission_metrics_;
  for (const auto& worker : workers_) total.merge(worker->metrics);
  obs::MetricRegistry out;
  total.export_into(out);
  out.gauge("farm.workers") = static_cast<double>(workers_.size());
  out.gauge("farm.queue_depth") = static_cast<double>(queue_.size());
  for (const auto& worker : workers_) out.merge(worker->chip_obs);
  return out;
}

std::vector<scaling::JobOutcome> ChipFarm::outcome_log() const {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  return outcome_log_;
}

}  // namespace vlsip::runtime

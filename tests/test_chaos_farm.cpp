// Deterministic chaos harness for the self-healing chip farm.
//
// The invariants every test here pins down:
//   * no job is silently lost — every admitted job's future resolves to
//     completed, failed-with-reason, or cancelled;
//   * the metrics balance: admitted == served + cancelled;
//   * deterministic mode is bit-identical run to run under the same
//     (manifest seed, fault seed).
// Plus the targeted recovery paths: worker crashes requeue the batch
// and quarantine the chip, stalls cost latency not jobs, retry/backoff
// re-serves environment-induced failures, and the empty-plan farm is
// bit-identical to the fault-tolerance-disabled code path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/manifest.hpp"

namespace vlsip::runtime {
namespace {

using scaling::JobOutcome;
using scaling::JobStatus;

std::vector<scaling::Job> chaos_manifest(std::size_t jobs,
                                         std::uint64_t seed) {
  SyntheticSpec spec;
  spec.jobs = jobs;
  spec.min_stages = 2;
  spec.max_stages = 4;
  spec.min_clusters = 1;
  spec.max_clusters = 4;
  spec.tokens = 2;
  spec.seed = seed;
  return synthetic_jobs(spec);
}

FarmConfig chaos_config(const fault::FaultPlan& plan) {
  FarmConfig cfg;
  cfg.deterministic = true;
  cfg.fault_tolerance.enabled = true;
  cfg.fault_tolerance.plan = plan;
  return cfg;
}

struct ChaosRun {
  obs::FarmMetrics metrics;
  std::vector<JobOutcome> log;
  std::vector<ChipFarm::ChipHealth> health;
};

ChaosRun run_chaos(const std::vector<scaling::Job>& jobs,
                   const FarmConfig& cfg) {
  ChipFarm farm(cfg);
  for (const auto& job : jobs) {
    const auto admission = farm.submit(job);
    EXPECT_TRUE(admission.admitted);
  }
  farm.drain();
  ChaosRun run;
  run.metrics = farm.metrics();
  run.log = farm.outcome_log();
  run.health = farm.health();
  farm.shutdown();
  return run;
}

void expect_no_job_lost(const obs::FarmMetrics& m) {
  EXPECT_EQ(m.submitted, m.admitted + m.rejected);
  // Every admitted job resolved: served (completed or failed with a
  // status/reason) or cancelled. Nothing vanished.
  EXPECT_EQ(m.admitted, m.served() + m.cancelled);
}

void expect_every_outcome_resolved(const std::vector<JobOutcome>& log) {
  for (const auto& o : log) {
    EXPECT_NE(o.status, JobStatus::kPending) << o.name;
    if (!o.completed && o.status != JobStatus::kCompleted) {
      // Failed-with-reason: either a classified status or a detail.
      EXPECT_TRUE(o.status != JobStatus::kError || !o.detail.empty())
          << o.name;
    }
  }
}

void expect_identical(const ChaosRun& a, const ChaosRun& b) {
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    const auto& x = a.log[i];
    const auto& y = b.log[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.status, y.status);
    EXPECT_EQ(x.detail, y.detail);
    EXPECT_EQ(x.attempts, y.attempts);
    EXPECT_EQ(x.queued_at, y.queued_at);
    EXPECT_EQ(x.started_at, y.started_at);
    EXPECT_EQ(x.finished_at, y.finished_at);
    EXPECT_EQ(x.config_cycles, y.config_cycles);
    EXPECT_EQ(x.exec_cycles, y.exec_cycles);
    EXPECT_EQ(x.faults, y.faults);
    ASSERT_EQ(x.outputs.size(), y.outputs.size());
    for (const auto& [port, words] : x.outputs) {
      const auto it = y.outputs.find(port);
      ASSERT_NE(it, y.outputs.end());
      ASSERT_EQ(words.size(), it->second.size());
      for (std::size_t w = 0; w < words.size(); ++w) {
        EXPECT_EQ(words[w].u, it->second[w].u);
      }
    }
  }
  EXPECT_EQ(a.metrics.retries, b.metrics.retries);
  EXPECT_EQ(a.metrics.injected_faults, b.metrics.injected_faults);
  EXPECT_EQ(a.metrics.quarantined_chips, b.metrics.quarantined_chips);
}

// --- the acceptance sweep -----------------------------------------------

TEST(ChaosFarm, FiveHundredJobSweepSurvivesBitIdentically) {
  // The ISSUE acceptance bar: <= 20% of clusters faulted (the plan
  // generator's cap) with spare clusters available, a 500-job manifest
  // must fully resolve — and do so bit-identically across two runs of
  // the same seed.
  const auto jobs = chaos_manifest(500, 99);
  fault::FaultPlanSpec spec;
  spec.seed = 2026;
  spec.events = 40;
  spec.horizon = 500;
  spec.clusters = 64;  // 8x8 default chip
  spec.w_worker_stall = 0.5;
  spec.w_worker_crash = 0.25;
  const auto plan = fault::random_fault_plan(spec);
  const auto cfg = chaos_config(plan);

  const ChaosRun first = run_chaos(jobs, cfg);
  expect_no_job_lost(first.metrics);
  expect_every_outcome_resolved(first.log);
  ASSERT_EQ(first.log.size(), 500u);
  EXPECT_EQ(first.metrics.injected_faults, plan.size());
  // The overwhelming majority must still complete.
  EXPECT_GE(first.metrics.completed, 490u);

  const ChaosRun second = run_chaos(jobs, cfg);
  expect_identical(first, second);
}

TEST(ChaosFarm, SeededSweepNeverLosesAJob) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto jobs = chaos_manifest(32, seed * 31);
    fault::FaultPlanSpec spec;
    spec.seed = seed;
    spec.events = 10;
    spec.horizon = 32;
    spec.clusters = 64;
    spec.w_worker_stall = 1.0;
    spec.w_worker_crash = 0.5;
    const ChaosRun run =
        run_chaos(jobs, chaos_config(fault::random_fault_plan(spec)));
    expect_no_job_lost(run.metrics);
    expect_every_outcome_resolved(run.log);
  }
}

// --- differential: empty plan == fault path off -------------------------

TEST(ChaosFarm, EmptyPlanIsBitIdenticalToNonFaultPath) {
  const auto jobs = chaos_manifest(64, 7);

  FarmConfig plain;
  plain.deterministic = true;  // fault_tolerance.enabled = false
  const ChaosRun baseline = run_chaos(jobs, plain);

  FarmConfig with_ft;
  with_ft.deterministic = true;
  with_ft.fault_tolerance.enabled = true;  // plan left empty
  const ChaosRun empty_plan = run_chaos(jobs, with_ft);

  expect_identical(baseline, empty_plan);
  EXPECT_EQ(empty_plan.metrics.injected_faults, 0u);
  EXPECT_EQ(empty_plan.metrics.retries, 0u);
  EXPECT_EQ(empty_plan.metrics.quarantined_chips, 0u);
}

// --- differential: obs sinks off == obs sinks on ------------------------

TEST(ChaosFarm, ObsSinksDoNotPerturbTheSimulation) {
  // The observability spine must be read-only with respect to the
  // simulation: a farm run with a trace sink attached and the metric
  // registry polled mid-flight resolves every job bit-identically to
  // the bare run. 100 seeds, faults included.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const auto jobs = chaos_manifest(6, seed * 17 + 1);
    fault::FaultPlanSpec spec;
    spec.seed = seed;
    spec.events = 4;
    spec.horizon = 6;
    spec.clusters = 64;
    spec.w_worker_stall = 0.5;
    spec.w_worker_crash = 0.25;
    const auto plan = fault::random_fault_plan(spec);

    const ChaosRun bare = run_chaos(jobs, chaos_config(plan));

    obs::TraceSink sink(true);
    sink.set_capacity(4096);
    FarmConfig observed_cfg = chaos_config(plan);
    observed_cfg.trace = &sink;
    ChipFarm farm(observed_cfg);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_TRUE(farm.submit(jobs[i]).admitted);
      // Poll the registry mid-run — snapshots must not perturb either.
      if (i == jobs.size() / 2) (void)farm.obs_metrics();
    }
    farm.drain();
    ChaosRun observed;
    observed.metrics = farm.metrics();
    observed.log = farm.outcome_log();
    observed.health = farm.health();
    const auto registry = farm.obs_metrics();
    farm.shutdown();

    expect_identical(bare, observed);
    // And the trace actually saw the session.
    EXPECT_FALSE(sink.entries().empty()) << "seed " << seed;
    EXPECT_EQ(registry.counters().at("farm.completed"),
              observed.metrics.completed)
        << "seed " << seed;
  }
}

// --- targeted recovery paths --------------------------------------------

TEST(ChaosFarm, WorkerCrashRequeuesBatchAndQuarantinesChip) {
  const auto jobs = chaos_manifest(16, 3);
  fault::FaultPlan plan;
  plan.events = {{4, fault::FaultKind::kWorkerCrash, 0, 0}};
  const ChaosRun run = run_chaos(jobs, chaos_config(plan));

  expect_no_job_lost(run.metrics);
  EXPECT_EQ(run.metrics.worker_crashes, 1u);
  EXPECT_EQ(run.metrics.quarantined_chips, 1u);
  EXPECT_EQ(run.metrics.completed, 16u);
  ASSERT_EQ(run.health.size(), 1u);
  EXPECT_EQ(run.health[0].chips_retired, 1u);
  EXPECT_EQ(run.health[0].last_quarantine_reason, "worker crash");
}

TEST(ChaosFarm, WorkerStallCostsLatencyNotJobs) {
  const auto jobs = chaos_manifest(4, 5);
  fault::FaultPlan plan;
  plan.events = {{1, fault::FaultKind::kWorkerStall, 0, 5000}};
  const auto cfg = chaos_config(plan);

  FarmConfig no_faults = cfg;
  no_faults.fault_tolerance.plan = {};
  ChipFarm quiet(no_faults);
  for (const auto& job : jobs) quiet.submit(job);
  quiet.drain();
  const std::uint64_t quiet_clock = quiet.now();
  quiet.shutdown();

  const ChaosRun run = run_chaos(jobs, cfg);
  expect_no_job_lost(run.metrics);
  EXPECT_EQ(run.metrics.worker_stalls, 1u);
  EXPECT_EQ(run.metrics.completed, 4u);

  ChipFarm stalled(cfg);
  for (const auto& job : jobs) stalled.submit(job);
  stalled.drain();
  // The stall advanced the virtual clock by its full duration.
  EXPECT_GE(stalled.now(), quiet_clock + 5000);
  stalled.shutdown();
}

FarmConfig tiny_chip_config() {
  // A 2x2 chip whose jobs need all four clusters: one quarantined
  // cluster makes the job unallocatable, exercising retry/quarantine.
  FarmConfig cfg;
  cfg.deterministic = true;
  cfg.chip.width = 2;
  cfg.chip.height = 2;
  cfg.fault_tolerance.enabled = true;
  return cfg;
}

scaling::Job whole_chip_job(const std::string& name) {
  scaling::Job job;
  job.name = name;
  job.program = arch::linear_pipeline_program(3);
  job.inputs = {{"in", {arch::make_word_i(1)}}};
  job.expected_per_output = 1;
  job.requested_clusters = 4;
  return job;
}

TEST(ChaosFarm, RetryLandsOnFreshChipAfterQuarantine) {
  FarmConfig cfg = tiny_chip_config();
  cfg.fault_tolerance.plan.events = {
      {1, fault::FaultKind::kCluster, 0, 0}};
  cfg.fault_tolerance.max_retries = 2;
  cfg.fault_tolerance.quarantine_after = 1;
  cfg.fault_tolerance.retry_backoff_ticks = 16;

  ChipFarm farm(cfg);
  const auto admission = farm.submit(whole_chip_job("phoenix"));
  ASSERT_TRUE(admission.admitted);
  farm.drain();
  const auto metrics = farm.metrics();
  const auto log = farm.outcome_log();
  const auto health = farm.health();
  farm.shutdown();

  // First attempt hits the quarantined cluster (4-cluster fuse on 3
  // healthy clusters fails), the chip is quarantined, the retry runs on
  // fresh silicon and completes — degraded.
  expect_no_job_lost(metrics);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].status, JobStatus::kCompleted);
  EXPECT_EQ(log[0].attempts, 2u);
  EXPECT_EQ(metrics.retries, 1u);
  EXPECT_EQ(metrics.quarantined_chips, 1u);
  EXPECT_EQ(metrics.degraded_completed, 1u);
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].last_quarantine_reason, "repeated faults");
  EXPECT_EQ(health[0].defective_clusters, 0u);  // fresh chip
}

TEST(ChaosFarm, RetriesExhaustedFailWithReasonNotSilently) {
  FarmConfig cfg = tiny_chip_config();
  cfg.fault_tolerance.plan.events = {
      {1, fault::FaultKind::kCluster, 0, 0}};
  cfg.fault_tolerance.max_retries = 2;
  cfg.fault_tolerance.quarantine_after = 0;  // never swap the chip
  cfg.fault_tolerance.retry_backoff_ticks = 8;

  ChipFarm farm(cfg);
  farm.submit(whole_chip_job("doomed"));
  farm.drain();
  const auto metrics = farm.metrics();
  const auto log = farm.outcome_log();
  farm.shutdown();

  expect_no_job_lost(metrics);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].status, JobStatus::kNoAllocation);
  EXPECT_EQ(log[0].attempts, 3u);  // 1 + max_retries
  EXPECT_NE(log[0].detail.find("after 3 attempts"), std::string::npos);
  EXPECT_EQ(metrics.retries, 2u);
}

TEST(ChaosFarm, RetryBackoffIsExponentialOnTheVirtualClock) {
  FarmConfig cfg = tiny_chip_config();
  cfg.fault_tolerance.plan.events = {
      {1, fault::FaultKind::kCluster, 0, 0}};
  cfg.fault_tolerance.max_retries = 2;
  cfg.fault_tolerance.quarantine_after = 0;
  cfg.fault_tolerance.retry_backoff_ticks = 1000;

  ChipFarm farm(cfg);
  farm.submit(whole_chip_job("backoff"));
  farm.drain();
  const std::uint64_t clock = farm.now();
  farm.shutdown();
  // Two retries: backoff 1000 then 2000 virtual ticks, both must have
  // elapsed on the virtual clock (kNoAllocation itself costs 0 cycles).
  EXPECT_GE(clock, 3000u);
}

TEST(ChaosFarm, HealthChecksCompactFragmentedChips) {
  // Mixed-size jobs fragment the chip; with faults quarantining
  // clusters mid-run, the post-batch health check should compact at
  // least once across the sweep.
  const auto jobs = chaos_manifest(64, 17);
  fault::FaultPlanSpec spec;
  spec.seed = 5;
  spec.events = 12;
  spec.horizon = 64;
  spec.clusters = 64;
  spec.w_object = 0.0;
  spec.w_switch = 0.0;
  spec.w_csd_segment = 0.0;
  spec.w_memory = 0.0;  // cluster faults only
  const ChaosRun run =
      run_chaos(jobs, chaos_config(fault::random_fault_plan(spec)));
  expect_no_job_lost(run.metrics);
  EXPECT_GT(run.metrics.health_checks, 0u);
}

TEST(ChaosFarm, ThreadedChaosStillResolvesEverything) {
  // Threaded mode gives up bit-identical ordering but must keep the
  // no-job-lost invariant under concurrency + crashes + stalls.
  const auto jobs = chaos_manifest(96, 23);
  fault::FaultPlanSpec spec;
  spec.seed = 11;
  spec.events = 16;
  spec.horizon = 96;
  spec.clusters = 64;
  spec.workers = 4;
  spec.w_worker_stall = 1.0;
  spec.w_worker_crash = 0.5;
  spec.max_stall = 200;  // microseconds in threaded mode

  FarmConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 128;
  cfg.block_when_full = true;
  cfg.fault_tolerance.enabled = true;
  cfg.fault_tolerance.plan = fault::random_fault_plan(spec);

  const ChaosRun run = run_chaos(jobs, cfg);
  expect_no_job_lost(run.metrics);
  expect_every_outcome_resolved(run.log);
  EXPECT_EQ(run.metrics.injected_faults, cfg.fault_tolerance.plan.size());
}

}  // namespace
}  // namespace vlsip::runtime

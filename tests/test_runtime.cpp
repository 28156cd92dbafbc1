// Tests for the multi-chip job-serving runtime (runtime/): admission
// control and backpressure, batching, deadlines/timeouts/cancellation,
// determinism, and a multi-worker stress run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "runtime/admission_queue.hpp"
#include "runtime/batcher.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/manifest.hpp"
#include "obs/farm_metrics.hpp"

namespace vlsip::runtime {
namespace {

using scaling::Job;
using scaling::JobOutcome;
using scaling::JobStatus;

Job make_job(const std::string& name, int stages, std::size_t clusters) {
  Job j;
  j.name = name;
  j.program = arch::linear_pipeline_program(stages);
  j.inputs = {{"in", {arch::make_word_i(1)}}};
  j.expected_per_output = 1;
  j.requested_clusters = clusters;
  return j;
}

// --- batcher ------------------------------------------------------------

PendingJob pending(const std::string& name, std::size_t clusters) {
  PendingJob p;
  p.job = make_job(name, 2, clusters);
  return p;
}

TEST(Batcher, GroupsByClusterCountPreservingOrder) {
  std::deque<PendingJob> queue;
  queue.push_back(pending("a1", 2));
  queue.push_back(pending("b1", 4));
  queue.push_back(pending("a2", 2));
  queue.push_back(pending("b2", 4));
  queue.push_back(pending("a3", 2));

  BatchPolicy policy;
  policy.max_jobs = 8;
  auto batch = take_batch(queue, policy);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].job.name, "a1");
  EXPECT_EQ(batch[1].job.name, "a2");
  EXPECT_EQ(batch[2].job.name, "a3");
  // The non-matching jobs stay, in order.
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue[0].job.name, "b1");
  EXPECT_EQ(queue[1].job.name, "b2");
}

TEST(Batcher, RespectsMaxJobsAndGroupingOff) {
  std::deque<PendingJob> queue;
  for (int i = 0; i < 5; ++i) queue.push_back(pending("j", 1));

  BatchPolicy capped;
  capped.max_jobs = 3;
  EXPECT_EQ(take_batch(queue, capped).size(), 3u);

  BatchPolicy fcfs;
  fcfs.max_jobs = 1;  // strict FCFS: no grouping past the head
  EXPECT_EQ(take_batch(queue, fcfs).size(), 1u);
  EXPECT_EQ(queue.size(), 1u);
}

/// The batcher before it became one pass: one mid-deque erase per
/// match. The reference for the equivalence test below.
std::vector<PendingJob> take_batch_by_erase(std::deque<PendingJob>& queue,
                                            const BatchPolicy& policy) {
  std::vector<PendingJob> batch;
  if (queue.empty()) return batch;
  batch.push_back(std::move(queue.front()));
  queue.pop_front();
  const std::size_t clusters = batch.front().job.requested_clusters;
  for (auto it = queue.begin();
       it != queue.end() && batch.size() < policy.max_jobs;) {
    if (it->job.requested_clusters == clusters) {
      batch.push_back(std::move(*it));
      it = queue.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

std::vector<std::string> names(const std::vector<PendingJob>& jobs) {
  std::vector<std::string> out;
  for (const auto& p : jobs) out.push_back(p.job.name);
  return out;
}

std::vector<std::string> names(const std::deque<PendingJob>& jobs) {
  std::vector<std::string> out;
  for (const auto& p : jobs) out.push_back(p.job.name);
  return out;
}

TEST(Batcher, OnePassMatchesEraseLoopOnRandomQueues) {
  Xoshiro256 rng(20);
  const std::size_t cluster_choices[] = {1, 2, 4};
  for (int trial = 0; trial < 300; ++trial) {
    const auto length = static_cast<std::size_t>(rng.uniform(24));
    BatchPolicy policy;
    policy.max_jobs = 1 + static_cast<std::size_t>(rng.uniform(10));
    std::deque<PendingJob> fast;
    std::deque<PendingJob> reference;
    for (std::size_t i = 0; i < length; ++i) {
      const std::size_t clusters = cluster_choices[rng.uniform(3)];
      const std::string name = "j" + std::to_string(i);
      fast.push_back(pending(name, clusters));
      reference.push_back(pending(name, clusters));
    }
    // Drain both queues batch by batch: every batch and every leftover
    // queue must agree in content and order.
    while (!reference.empty()) {
      const auto want = take_batch_by_erase(reference, policy);
      const auto got = take_batch(fast, policy);
      ASSERT_EQ(names(got), names(want)) << "trial " << trial;
      ASSERT_EQ(names(fast), names(reference)) << "trial " << trial;
    }
    EXPECT_TRUE(take_batch(fast, policy).empty());
  }
}

TEST(Batcher, DeepQueueLeavesTheTailInPlace) {
  // A deterministic farm stages every submission before serving, so the
  // batcher sees deep queues. Taking a batch must move only the short
  // front part of the queue: the job at the back is never moved (a
  // pass that closed up the whole queue would move it every call), so
  // draining N jobs costs O(N), not O(N^2).
  constexpr std::size_t kDepth = 50000;
  for (const std::size_t max_jobs : {std::size_t{1}, std::size_t{8}}) {
    std::deque<PendingJob> queue;
    for (std::size_t i = 0; i < kDepth; ++i) {
      PendingJob p;
      p.id = i;
      p.job.requested_clusters = std::size_t{1} << (i % 3);
      queue.push_back(std::move(p));
    }
    BatchPolicy policy;
    policy.max_jobs = max_jobs;
    const PendingJob* back = &queue.back();
    std::size_t taken = 0;
    while (queue.size() > 64) {
      taken += take_batch(queue, policy).size();
      ASSERT_EQ(&queue.back(), back) << "max_jobs " << max_jobs;
      ASSERT_EQ(queue.back().id, kDepth - 1);
    }
    while (!queue.empty()) taken += take_batch(queue, policy).size();
    EXPECT_EQ(taken, kDepth) << "max_jobs " << max_jobs;
  }
}

// --- admission queue ----------------------------------------------------

TEST(AdmissionQueue, RejectsWhenFullWithReason) {
  AdmissionQueue q(2);
  std::string reason;
  EXPECT_TRUE(q.try_push(pending("a", 1), &reason));
  EXPECT_TRUE(q.try_push(pending("b", 1), &reason));
  EXPECT_FALSE(q.try_push(pending("c", 1), &reason));
  EXPECT_NE(reason.find("queue full"), std::string::npos);
  EXPECT_EQ(q.size(), 2u);
}

TEST(AdmissionQueue, CancelRemovesQueuedJob) {
  AdmissionQueue q(4);
  auto p = pending("a", 1);
  p.id = 7;
  ASSERT_TRUE(q.try_push(std::move(p)));
  PendingJob out;
  EXPECT_FALSE(q.cancel(99, out));
  EXPECT_TRUE(q.cancel(7, out));
  EXPECT_EQ(out.job.name, "a");
  EXPECT_EQ(q.size(), 0u);
}

TEST(AdmissionQueue, CloseDrainsThenStopsWorkers) {
  AdmissionQueue q(4);
  ASSERT_TRUE(q.try_push(pending("a", 1)));
  q.close();
  EXPECT_FALSE(q.try_push(pending("late", 1)));
  BatchPolicy policy;
  EXPECT_EQ(q.pop_batch(policy).size(), 1u);  // backlog still served
  q.finish_batch();
  EXPECT_TRUE(q.pop_batch(policy).empty());  // then workers exit
}

// drain() is wait_idle(): it must return once the queue is empty with
// no batch in flight, however the last job leaves.

/// Runs wait_idle() on its own thread.
std::future<void> wait_idle_async(AdmissionQueue& q) {
  return std::async(std::launch::async, [&q] { q.wait_idle(); });
}

bool returns(std::future<void>& idle) {
  return idle.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
}

bool still_waiting(std::future<void>& idle) {
  return idle.wait_for(std::chrono::milliseconds(20)) ==
         std::future_status::timeout;
}

TEST(AdmissionQueue, DrainReturnsAfterLastBatch) {
  AdmissionQueue q(8);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.try_push(pending("a", 1)));
  BatchPolicy one;
  one.max_jobs = 1;
  auto idle = wait_idle_async(q);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(still_waiting(idle)) << "batch " << i;
    ASSERT_EQ(q.pop_batch(one).size(), 1u);
    q.finish_batch();
  }
  EXPECT_TRUE(returns(idle));
}

TEST(AdmissionQueue, DrainReturnsAfterRequeuedRetryIsServed) {
  AdmissionQueue q(8);
  ASSERT_TRUE(q.try_push(pending("a", 1)));
  BatchPolicy policy;
  auto idle = wait_idle_async(q);
  auto batch = q.pop_batch(policy);
  ASSERT_EQ(batch.size(), 1u);
  // The last batch faults and requeues its job for a retry.
  q.requeue(std::move(batch.front()));
  q.finish_batch();
  EXPECT_TRUE(still_waiting(idle));
  ASSERT_EQ(q.pop_batch(policy).size(), 1u);
  EXPECT_TRUE(still_waiting(idle));
  q.finish_batch();
  EXPECT_TRUE(returns(idle));
}

TEST(AdmissionQueue, DrainReturnsWhenLastQueuedJobIsCancelled) {
  AdmissionQueue q(8);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    auto p = pending("a", 1);
    p.id = id;
    ASSERT_TRUE(q.try_push(std::move(p)));
  }
  BatchPolicy one;
  one.max_jobs = 1;
  auto idle = wait_idle_async(q);
  ASSERT_EQ(q.pop_batch(one).size(), 1u);
  PendingJob out;
  ASSERT_TRUE(q.cancel(2, out));  // a batch is still in flight
  q.finish_batch();
  EXPECT_TRUE(still_waiting(idle));
  ASSERT_TRUE(q.cancel(3, out));  // the last queued job
  EXPECT_TRUE(returns(idle));
}

// --- farm ---------------------------------------------------------------

TEST(ChipFarm, ServesOneJobAsync) {
  FarmConfig cfg;
  cfg.workers = 1;
  ChipFarm farm(cfg);
  auto admission = farm.submit(make_job("a", 3, 2));
  ASSERT_TRUE(admission.admitted);
  const JobOutcome outcome = admission.outcome.get();
  EXPECT_EQ(outcome.status, JobStatus::kCompleted);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.clusters_used, 2u);
  EXPECT_GT(outcome.exec_cycles, 0u);
  EXPECT_GE(outcome.finished_at, outcome.started_at);
  EXPECT_GE(outcome.started_at, outcome.queued_at);
  ASSERT_EQ(outcome.outputs.count("out"), 1u);
  EXPECT_EQ(outcome.outputs.at("out").size(), 1u);
}

TEST(ChipFarm, ChipHzPacesServiceTime) {
  FarmConfig cfg;
  cfg.workers = 1;
  cfg.chip_hz = 1e5;  // 100 kHz: each simulated cycle costs 10 us
  ChipFarm farm(cfg);
  auto admission = farm.submit(make_job("paced", 3, 2));
  ASSERT_TRUE(admission.admitted);
  const JobOutcome outcome = admission.outcome.get();
  ASSERT_EQ(outcome.status, JobStatus::kCompleted);
  // sleep_for guarantees at least the requested duration, so service
  // latency (microsecond ticks) must cover cycles/chip_hz.
  const std::uint64_t cycles = outcome.config_cycles + outcome.exec_cycles;
  const std::uint64_t floor_us =
      static_cast<std::uint64_t>(static_cast<double>(cycles) * 1e6 / 1e5);
  EXPECT_GT(cycles, 0u);
  EXPECT_GE(outcome.finished_at - outcome.started_at, floor_us);
}

TEST(ChipFarm, DeterministicModeIsBitIdentical) {
  auto run_once = [] {
    FarmConfig cfg;
    cfg.deterministic = true;
    ChipFarm farm(cfg);
    SyntheticSpec spec;
    spec.jobs = 16;
    spec.seed = 7;
    for (auto& job : synthetic_jobs(spec)) {
      EXPECT_TRUE(farm.submit(std::move(job)).admitted);
    }
    farm.drain();
    return farm.outcome_log();
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), 16u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    const auto& a = first[i];
    const auto& b = second[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.queued_at, b.queued_at);
    EXPECT_EQ(a.started_at, b.started_at);
    EXPECT_EQ(a.finished_at, b.finished_at);
    EXPECT_EQ(a.clusters_used, b.clusters_used);
    EXPECT_EQ(a.config_cycles, b.config_cycles);
    EXPECT_EQ(a.exec_cycles, b.exec_cycles);
    EXPECT_EQ(a.faults, b.faults);
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (const auto& [port, words] : a.outputs) {
      const auto& other = b.outputs.at(port);
      ASSERT_EQ(words.size(), other.size());
      for (std::size_t k = 0; k < words.size(); ++k) {
        EXPECT_EQ(words[k].i, other[k].i);
      }
    }
  }
}

TEST(ChipFarm, BackpressureRejectsWhenQueueIsFull) {
  FarmConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.block_when_full = false;
  ChipFarm farm(cfg);
  farm.pause();  // nothing drains: the queue must fill

  auto a = farm.submit(make_job("a", 2, 1));
  auto b = farm.submit(make_job("b", 2, 1));
  auto c = farm.submit(make_job("c", 2, 1));
  EXPECT_TRUE(a.admitted);
  EXPECT_TRUE(b.admitted);
  EXPECT_FALSE(c.admitted);
  EXPECT_NE(c.reason.find("queue full"), std::string::npos);

  farm.resume();
  farm.drain();
  const auto metrics = farm.metrics();
  EXPECT_EQ(metrics.submitted, 3u);
  EXPECT_EQ(metrics.admitted, 2u);
  EXPECT_EQ(metrics.rejected, 1u);
  EXPECT_EQ(metrics.completed, 2u);
}

TEST(ChipFarm, TimeoutYieldsTimedOutOutcome) {
  FarmConfig cfg;
  cfg.workers = 1;
  ChipFarm farm(cfg);
  SubmitOptions options;
  options.max_cycles = 1;  // no pipeline finishes in one cycle
  auto admission = farm.submit(make_job("slow", 6, 1), options);
  ASSERT_TRUE(admission.admitted);
  const JobOutcome outcome = admission.outcome.get();
  EXPECT_EQ(outcome.status, JobStatus::kTimedOut);
  EXPECT_FALSE(outcome.completed);
  EXPECT_NE(outcome.detail.find("cycle budget"), std::string::npos);
  EXPECT_EQ(farm.metrics().timed_out, 1u);
}

TEST(ChipFarm, CancelQueuedJob) {
  FarmConfig cfg;
  cfg.workers = 1;
  ChipFarm farm(cfg);
  farm.pause();
  auto keep = farm.submit(make_job("keep", 2, 1));
  auto drop = farm.submit(make_job("drop", 2, 1));
  ASSERT_TRUE(keep.admitted);
  ASSERT_TRUE(drop.admitted);

  EXPECT_TRUE(farm.cancel(drop.id));
  EXPECT_FALSE(farm.cancel(drop.id));  // already gone
  const JobOutcome dropped = drop.outcome.get();
  EXPECT_EQ(dropped.status, JobStatus::kCancelled);

  farm.resume();
  farm.drain();
  EXPECT_EQ(keep.outcome.get().status, JobStatus::kCompleted);
  const auto metrics = farm.metrics();
  EXPECT_EQ(metrics.cancelled, 1u);
  EXPECT_EQ(metrics.completed, 1u);
}

TEST(ChipFarm, DeadlineExpiresBeforeStart) {
  FarmConfig cfg;
  cfg.deterministic = true;  // virtual clock: advances per job served
  ChipFarm farm(cfg);
  farm.pause();
  auto first = farm.submit(make_job("first", 4, 1));
  SubmitOptions options;
  options.deadline = 1;  // expires once "first" advances the clock
  auto late = farm.submit(make_job("late", 4, 1), options);
  ASSERT_TRUE(first.admitted);
  ASSERT_TRUE(late.admitted);

  farm.resume();
  farm.drain();
  EXPECT_EQ(first.outcome.get().status, JobStatus::kCompleted);
  const JobOutcome missed = late.outcome.get();
  EXPECT_EQ(missed.status, JobStatus::kCancelled);
  EXPECT_NE(missed.detail.find("deadline"), std::string::npos);
}

TEST(ChipFarm, BatchingReusesOneFusedProcessor) {
  FarmConfig cfg;
  cfg.deterministic = true;
  cfg.batch.max_jobs = 8;
  ChipFarm farm(cfg);
  farm.pause();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(farm.submit(make_job("j" + std::to_string(i), 3, 2))
                    .admitted);
  }
  farm.resume();
  farm.drain();
  const auto metrics = farm.metrics();
  EXPECT_EQ(metrics.completed, 4u);
  EXPECT_EQ(metrics.batches, 1u);
  EXPECT_EQ(metrics.fuse_reuses, 3u);
}

TEST(ChipFarm, UnallocatableJobFailsCleanly) {
  FarmConfig cfg;
  cfg.workers = 1;
  ChipFarm farm(cfg);  // default chip: 64 clusters
  auto admission = farm.submit(make_job("huge", 2, 999));
  ASSERT_TRUE(admission.admitted);
  const JobOutcome outcome = admission.outcome.get();
  EXPECT_EQ(outcome.status, JobStatus::kNoAllocation);
  // The farm keeps serving afterwards.
  EXPECT_EQ(farm.submit(make_job("ok", 2, 1)).outcome.get().status,
            JobStatus::kCompleted);
}

TEST(ChipFarm, CompletionCallbackFires) {
  FarmConfig cfg;
  cfg.workers = 1;
  ChipFarm farm(cfg);
  std::atomic<int> calls{0};
  SubmitOptions options;
  options.on_complete = [&](const JobOutcome& o) {
    if (o.status == JobStatus::kCompleted) calls.fetch_add(1);
  };
  auto admission = farm.submit(make_job("cb", 2, 1), options);
  ASSERT_TRUE(admission.admitted);
  admission.outcome.get();
  farm.drain();
  EXPECT_EQ(calls.load(), 1);
}

TEST(ChipFarm, SubmitValidation) {
  ChipFarm farm;
  Job empty;
  empty.name = "empty";
  EXPECT_THROW(farm.submit(std::move(empty)), vlsip::PreconditionError);
  auto zero = make_job("z", 2, 1);
  zero.requested_clusters = 0;
  EXPECT_THROW(farm.submit(std::move(zero)), vlsip::PreconditionError);
}

// A zero batch ceiling is refused on the caller's thread: left to the
// batcher, it would throw on a worker thread and abort the process.
TEST(ChipFarm, ZeroBatchCeilingIsRefusedAtConstruction) {
  for (const bool deterministic : {false, true}) {
    FarmConfig config;
    config.deterministic = deterministic;
    config.batch.max_jobs = 0;
    EXPECT_THROW(ChipFarm farm(config), vlsip::PreconditionError)
        << "deterministic=" << deterministic;
  }
}

TEST(ChipFarm, FourWorkerStressRun) {
  FarmConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 32;
  cfg.block_when_full = true;  // throttle: 64 jobs through a 32-deep queue
  ChipFarm farm(cfg);
  SyntheticSpec spec;
  spec.jobs = 64;
  spec.seed = 42;
  std::vector<std::future<JobOutcome>> futures;
  for (auto& job : synthetic_jobs(spec)) {
    auto admission = farm.submit(std::move(job));
    ASSERT_TRUE(admission.admitted);
    futures.push_back(std::move(admission.outcome));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, JobStatus::kCompleted);
  }
  farm.drain();
  const auto metrics = farm.metrics();
  EXPECT_EQ(metrics.completed, 64u);
  EXPECT_EQ(metrics.latency.count(), 64u);
  EXPECT_GT(metrics.latency_percentile(0.50), 0.0);
  EXPECT_GE(metrics.latency_percentile(0.99),
            metrics.latency_percentile(0.50));
  EXPECT_EQ(farm.outcome_log().size(), 64u);
}

TEST(ChipFarm, ShutdownServesBacklog) {
  FarmConfig cfg;
  cfg.workers = 2;
  ChipFarm farm(cfg);
  farm.pause();
  std::vector<std::future<JobOutcome>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        farm.submit(make_job("b" + std::to_string(i), 2, 1)).outcome);
  }
  farm.shutdown();  // close() unpauses; the backlog must still be served
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, JobStatus::kCompleted);
  }
}

// --- manifest -----------------------------------------------------------

TEST(Manifest, ParsesJobsRepeatsAndBuiltins) {
  const std::string text =
      "# comment\n"
      "\n"
      "pipe @pipeline:4 clusters=2 expect=2 in=5,7 repeat=3\n"
      "solo @pipeline:2 in=1\n";
  const auto jobs = parse_manifest(text);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].name, "pipe#0");
  EXPECT_EQ(jobs[2].name, "pipe#2");
  EXPECT_EQ(jobs[3].name, "solo");
  EXPECT_EQ(jobs[0].requested_clusters, 2u);
  EXPECT_EQ(jobs[0].expected_per_output, 2u);
  ASSERT_EQ(jobs[0].inputs.count("in"), 1u);
  EXPECT_EQ(jobs[0].inputs.at("in").size(), 2u);
  EXPECT_EQ(jobs[0].inputs.at("in")[1].i, 7);
}

TEST(Manifest, RejectsMalformedLines) {
  EXPECT_THROW(parse_manifest("lonely\n"), vlsip::PreconditionError);
  EXPECT_THROW(parse_manifest("j @pipeline:2 notkv\n"),
               vlsip::PreconditionError);
  EXPECT_THROW(parse_manifest("j @pipeline:2 bogus=1\n"),
               vlsip::PreconditionError);
}

TEST(Manifest, SyntheticJobsAreSeedDeterministic) {
  SyntheticSpec spec;
  spec.jobs = 8;
  spec.seed = 99;
  const auto a = synthetic_jobs(spec);
  const auto b = synthetic_jobs(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].requested_clusters, b[i].requested_clusters);
    EXPECT_EQ(a[i].program.object_count(), b[i].program.object_count());
    EXPECT_EQ(a[i].inputs.at("in")[0].i, b[i].inputs.at("in")[0].i);
  }
}

// --- metrics ------------------------------------------------------------

TEST(FarmMetrics, MergeMatchesSequentialRecording) {
  JobOutcome o1;
  o1.status = JobStatus::kCompleted;
  o1.queued_at = 0;
  o1.started_at = 10;
  o1.finished_at = 110;
  JobOutcome o2 = o1;
  o2.finished_at = 210;

  obs::FarmMetrics a;
  a.record(o1);
  obs::FarmMetrics b;
  b.record(o2);
  a.merge(b);
  EXPECT_EQ(a.completed, 2u);
  EXPECT_EQ(a.latency.count(), 2u);
  EXPECT_DOUBLE_EQ(a.latency.mean(), 160.0);
  EXPECT_DOUBLE_EQ(a.latency_percentile(0.0), 110.0);
  EXPECT_DOUBLE_EQ(a.latency_percentile(1.0), 210.0);
}

}  // namespace
}  // namespace vlsip::runtime

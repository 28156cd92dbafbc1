// ThreadSanitizer smoke test for the chip farm (no gtest: a plain
// binary so it can be compiled with -fsanitize=thread together with the
// runtime/ sources — see tests/CMakeLists.txt, VLSIP_TSAN_SMOKE).
//
// Exercises every concurrent path at once: multi-worker serving,
// blocking and rejecting admission, cancellation racing consumption,
// metrics snapshots racing workers, shutdown with a backlog — and, in a
// second phase, the fault-tolerance machinery under concurrency (fault
// pump, retry requeue, chip quarantine, health snapshots racing
// health() readers) and, in a third, the obs spine: workers publishing
// their chips' probes while a reader renders obs_metrics() to JSON and
// other threads intern new metric names at once.
#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/manifest.hpp"

namespace {

int run_plain_phase() {
  using namespace vlsip;

  runtime::FarmConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 8;
  cfg.block_when_full = true;
  runtime::ChipFarm farm(cfg);

  runtime::SyntheticSpec spec;
  spec.jobs = 48;
  spec.seed = 3;
  std::vector<std::future<scaling::JobOutcome>> futures;
  std::vector<std::uint64_t> ids;
  for (auto& job : runtime::synthetic_jobs(spec)) {
    auto admission = farm.submit(std::move(job));
    if (!admission.admitted) continue;
    ids.push_back(admission.id);
    futures.push_back(std::move(admission.outcome));
    // Metrics snapshots race the workers on purpose.
    (void)farm.metrics();
    // Try to cancel an older job; most will have run already.
    if (ids.size() > 4) (void)farm.cancel(ids[ids.size() - 5]);
  }
  for (auto& f : futures) (void)f.get();
  farm.drain();
  const auto metrics = farm.metrics();
  farm.shutdown();

  std::printf("tsan smoke: %llu served, %llu cancelled, %llu batches\n",
              static_cast<unsigned long long>(metrics.served()),
              static_cast<unsigned long long>(metrics.cancelled),
              static_cast<unsigned long long>(metrics.batches));
  const bool accounted =
      metrics.served() + metrics.cancelled == metrics.admitted;
  std::printf("plain phase %s\n", accounted ? "ok" : "MISCOUNT");
  return accounted ? 0 : 1;
}

int run_chaos_phase() {
  using namespace vlsip;

  fault::FaultPlanSpec plan_spec;
  plan_spec.seed = 9;
  plan_spec.events = 16;
  plan_spec.horizon = 64;
  plan_spec.clusters = 64;
  plan_spec.workers = 4;
  plan_spec.w_worker_stall = 1.0;
  plan_spec.w_worker_crash = 0.5;
  plan_spec.max_stall = 200;  // microseconds under the threaded clock

  runtime::FarmConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 16;
  cfg.block_when_full = true;
  cfg.fault_tolerance.enabled = true;
  cfg.fault_tolerance.plan = fault::random_fault_plan(plan_spec);
  cfg.fault_tolerance.retry_backoff_ticks = 50;
  cfg.fault_tolerance.quarantine_after = 1;
  runtime::ChipFarm farm(cfg);

  runtime::SyntheticSpec spec;
  spec.jobs = 64;
  spec.seed = 17;
  std::vector<std::future<scaling::JobOutcome>> futures;
  for (auto& job : runtime::synthetic_jobs(spec)) {
    auto admission = farm.submit(std::move(job));
    if (!admission.admitted) continue;
    futures.push_back(std::move(admission.outcome));
    // Health and metrics snapshots race the fault pump and the
    // quarantine chip swap on purpose.
    (void)farm.health();
    (void)farm.metrics();
  }
  for (auto& f : futures) (void)f.get();
  farm.drain();
  const auto metrics = farm.metrics();
  farm.shutdown();

  std::printf(
      "chaos phase: %llu served, %llu faults, %llu retries, "
      "%llu quarantined\n",
      static_cast<unsigned long long>(metrics.served()),
      static_cast<unsigned long long>(metrics.injected_faults),
      static_cast<unsigned long long>(metrics.retries),
      static_cast<unsigned long long>(metrics.quarantined_chips));
  const bool accounted =
      metrics.served() + metrics.cancelled == metrics.admitted;
  std::printf("chaos phase %s\n", accounted ? "ok" : "MISCOUNT");
  return accounted ? 0 : 1;
}

int run_obs_phase() {
  using namespace vlsip;

  runtime::FarmConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 8;
  cfg.block_when_full = true;
  runtime::ChipFarm farm(cfg);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> renders{0};
  std::thread reader([&] {
    while (!done.load()) {
      const obs::MetricRegistry snapshot = farm.obs_metrics();
      std::ostringstream out;
      obs::JsonWriter w(out);
      snapshot.write_json(w);
      if (!out.str().empty()) ++renders;
    }
  });
  // Interners race each other (shared names) and the exporters' first
  // lookups; every id must map back to the name it was interned from.
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> interners;
  for (int t = 0; t < 3; ++t) {
    interners.emplace_back([t, &mismatches] {
      for (int i = 0; i < 300; ++i) {
        const std::string shared = "tsan.shared." + std::to_string(i);
        const std::string own =
            "tsan.t" + std::to_string(t) + "." + std::to_string(i);
        for (const std::string& name : {shared, own}) {
          if (obs::metric_name(obs::metric_id(name)) != name) ++mismatches;
        }
      }
    });
  }

  runtime::SyntheticSpec spec;
  spec.jobs = 96;
  spec.seed = 5;
  std::vector<std::future<scaling::JobOutcome>> futures;
  for (auto& job : runtime::synthetic_jobs(spec)) {
    auto admission = farm.submit(std::move(job));
    if (admission.admitted) futures.push_back(std::move(admission.outcome));
  }
  for (auto& f : futures) (void)f.get();
  farm.drain();
  for (auto& t : interners) t.join();
  done = true;
  reader.join();
  const obs::MetricRegistry final_metrics = farm.obs_metrics();
  farm.shutdown();

  const auto counters = final_metrics.counters();
  const auto served = counters.find("farm.served");
  const bool ok = mismatches.load() == 0 && served != counters.end() &&
                  served->second == futures.size();
  std::printf("obs phase: %zu renders, %zu name mismatches, %s\n",
              renders.load(), mismatches.load(), ok ? "ok" : "MISCOUNT");
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  const int plain = run_plain_phase();
  const int chaos = run_chaos_phase();
  const int obs = run_obs_phase();
  const bool ok = plain == 0 && chaos == 0 && obs == 0;
  std::printf("%s\n", ok ? "OK" : "MISCOUNT");
  return ok ? 0 : 1;
}

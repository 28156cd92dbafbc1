// Chip-farm throughput: jobs/sec and tail latency as the fleet scales.
//
// Sweeps worker count x admission-queue depth over one seed-fixed
// synthetic manifest (mixed pipeline depths and cluster requests) and
// reports wall-clock jobs/sec plus p50/p95/p99 service latency. Each
// chip is paced at an emulated silicon clock (FarmConfig::chip_hz), so
// a job occupies its chip for cycles/chip_hz of wall time — throughput
// then measures farm-level concurrency (chips overlapping in real
// time) rather than host simulation speed, and scales with worker
// count even on a single-core host. A deeper queue mostly trades
// memory for fewer producer stalls (admission blocks when full).
//
//   runtime_throughput [jobs] [seed] [chip_khz]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/manifest.hpp"

namespace {

struct Sweep {
  std::size_t workers;
  std::size_t queue_depth;
  double wall_s = 0.0;
  double jobs_per_sec = 0.0;
  vlsip::obs::FarmMetrics metrics;
};

Sweep run_sweep(std::size_t workers, std::size_t queue_depth,
                double chip_hz,
                const std::vector<vlsip::scaling::Job>& jobs) {
  using namespace vlsip;
  Sweep sweep;
  sweep.workers = workers;
  sweep.queue_depth = queue_depth;

  runtime::FarmConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue_depth;
  cfg.block_when_full = true;
  cfg.keep_outcome_log = false;
  cfg.chip_hz = chip_hz;
  runtime::ChipFarm farm(cfg);

  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& job : jobs) (void)farm.submit(job);
  farm.drain();
  sweep.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  sweep.metrics = farm.metrics();
  sweep.jobs_per_sec =
      sweep.wall_s > 0.0
          ? static_cast<double>(sweep.metrics.served()) / sweep.wall_s
          : 0.0;
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vlsip;

  runtime::SyntheticSpec spec;
  spec.jobs = argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 96;
  spec.seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 42;
  const double chip_khz = argc > 3 ? std::atof(argv[3]) : 100.0;
  const double chip_hz = chip_khz * 1e3;
  const auto jobs = runtime::synthetic_jobs(spec);

  std::printf("chip-farm throughput: %zu synthetic jobs (seed %llu), "
              "blocking admission,\nchips paced at %.0f kHz emulated "
              "silicon clock (service = cycles / chip_hz)\n\n",
              jobs.size(), static_cast<unsigned long long>(spec.seed),
              chip_khz);

  AsciiTable table({"workers", "queue", "wall s", "jobs/sec", "p50 us",
                    "p95 us", "p99 us", "batches", "fuse reuses"});
  std::map<std::size_t, double> best_rate_by_workers;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    for (const std::size_t queue_depth : {16u, 256u}) {
      const Sweep s = run_sweep(workers, queue_depth, chip_hz, jobs);
      table.add_row(
          {std::to_string(s.workers), std::to_string(s.queue_depth),
           format_sig(s.wall_s, 3), format_sig(s.jobs_per_sec, 4),
           format_sig(s.metrics.latency_percentile(0.50), 4),
           format_sig(s.metrics.latency_percentile(0.95), 4),
           format_sig(s.metrics.latency_percentile(0.99), 4),
           std::to_string(s.metrics.batches),
           std::to_string(s.metrics.fuse_reuses)});
      auto& best = best_rate_by_workers[s.workers];
      if (s.jobs_per_sec > best) best = s.jobs_per_sec;
    }
    table.add_separator();
  }
  std::printf("%s\n", table.render().c_str());

  const double at1 = best_rate_by_workers[1];
  const double at4 = best_rate_by_workers[4];
  if (at1 > 0.0) {
    std::printf("scaling: 1 -> 4 workers = %.2fx jobs/sec "
                "(%.1f -> %.1f)\n",
                at4 / at1, at1, at4);
  }
  return 0;
}

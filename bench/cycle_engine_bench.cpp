// Cycle-engine perf harness: measures the event-driven engine against
// the dense every-object-every-cycle reference scan and records the
// speedup RATIOS into BENCH_cycle_engine.json.
//
// Ratios — not absolute rates — are what the committed baseline stores:
// both engines run in the same process on the same host, so their
// quotient is stable across machines while cycles/sec is not. The CI
// perf-smoke job re-measures and fails when a ratio falls below its
// hard floor or regresses more than 25% against the committed baseline
// (scripts/bench_baseline --check).
//
// Scenarios:
//   executor_sparse       — one wave trickling through a 100-stage
//                           pipeline on a 256-object AP: ~1 active
//                           object per cycle, the quiescence case the
//                           activity set targets.
//   executor_sparse_1024  — the same quiescence case at Epiphany-V
//                           scale: a 1000-stage pipeline on a
//                           1024-object AP, guarding that per-cycle
//                           cost tracks activity, not object count.
//   executor_dense        — a 48-stage pipeline saturated with 64
//                           waves: every object fires every cycle, so
//                           this measures the event engine's
//                           bookkeeping overhead (must stay within
//                           tolerance of the dense scan).
//   chip_sparse           — end to end: one active AP (16 fused
//                           clusters) on a 16x16-cluster chip running
//                           a 64-stage program.
//   chip_sparse_1024      — the same single active AP on a
//                           32x32-cluster (1024-cluster) chip.
//   simd_scan             — dispatched vs forced-scalar
//                           simd::first_nonzero_word over a sparse
//                           64 KiB word buffer (only recorded on
//                           x86-SIMD builds; scalar/NEON hosts keep
//                           the committed value via --merge).
//   farm / chaos          — deterministic chip farm serving synthetic
//                           jobs, without and with fault injection +
//                           self-healing.
//   energy / dvs          — deterministic energy meter quotients (not
//                           wall-clock): jobs per microjoule at the
//                           nominal DVS level, and the joules-per-job
//                           ratio the governor wins by walking the
//                           ladder under a tight energy budget.
//   kernel_throughput     — deterministic quotient from the workload
//                           library: a fixed-seed mixed scenario pack
//                           (compiled dot/fir/gas/reduce/filter
//                           kernels, bursty arrivals, churn, deadline
//                           pressure) served on a deterministic farm;
//                           jobs per million executed cycles.
//   jobs_per_kilo_handshake, jobs_per_kilo_config_cycle
//                         — deterministic counts of the configure path
//                           from serving the same pack: jobs per
//                           thousand CSD handshakes (ap.csd.requests)
//                           and per thousand configuration cycles.
//
// Usage: cycle_engine_bench                 human-readable table
//        cycle_engine_bench --json          JSON to stdout (baseline)
//        cycle_engine_bench --check F       compare against baseline F
//        cycle_engine_bench --filter RE     only scenarios whose metric
//                                           key matches regex RE
//        cycle_engine_bench --merge F       with --json --filter: carry
//                                           unmeasured keys over from F
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "ap/adaptive_processor.hpp"
#include "arch/datapath.hpp"
#include "common/simd.hpp"
#include "core/vlsi_processor.hpp"
#include "fault/fault_plan.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/manifest.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace vlsip;

/// Regression tolerance against the committed baseline: fail below 75%
/// of the recorded ratio (a >25% regression).
constexpr double kTolerance = 0.75;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs `once` (returning simulated work units) repeatedly for at least
/// `min_wall` seconds after one warm-up call; returns units per second.
template <typename F>
double measure_rate(F&& once, double min_wall = 0.25) {
  once();  // warm-up: page in code, fill arenas
  double units = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    units += once();
    elapsed = seconds_since(t0);
  } while (elapsed < min_wall);
  return units / elapsed;
}

/// Measures two sides of a ratio by alternating ~25 ms slices for
/// `min_wall` seconds total. Back-to-back whole-side measurement biases
/// the quotient whenever the host drifts (thermal throttling, boost
/// decay, a noisy neighbour arriving mid-scenario): the side measured
/// second sees a different machine. Interleaving samples both sides
/// under the same drift so it cancels, which is the entire premise of
/// storing machine-independent ratios.
template <typename A, typename B>
double interleaved_ratio(A&& numer_once, B&& denom_once,
                         double& numer_rate, double& denom_rate,
                         double min_wall = 0.5) {
  numer_once();  // warm-up both sides
  denom_once();
  constexpr double kSlice = 0.025;
  double nu = 0.0, ns = 0.0, du = 0.0, ds = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    auto t = std::chrono::steady_clock::now();
    do {
      du += denom_once();
    } while (seconds_since(t) < kSlice);
    ds += seconds_since(t);
    t = std::chrono::steady_clock::now();
    do {
      nu += numer_once();
    } while (seconds_since(t) < kSlice);
    ns += seconds_since(t);
  } while (seconds_since(t0) < min_wall);
  numer_rate = nu / ns;
  denom_rate = du / ds;
  return numer_rate / denom_rate;
}

/// One-AP executor workload as a reusable runner (state lives in the
/// closure so interleaved slices continue the same simulation). Each
/// call feeds one batch of waves, runs to completion and returns cycles
/// simulated. Sparse: one wave in flight (activity ~1 object among the
/// residents). Dense: 64 waves saturate every stage. The object space
/// is sized so the whole datapath is resident — fault churn is a
/// different scenario (the chaos farm covers it), not what this pair
/// isolates.
auto make_executor_once(bool event_driven, bool dense_workload,
                        int capacity = 256, int stages = 0) {
  ap::ApConfig cfg;
  cfg.capacity = capacity;
  cfg.memory_blocks = 8;
  cfg.exec.event_driven = event_driven;
  auto ap = std::make_shared<ap::AdaptiveProcessor>(cfg);
  if (stages == 0) stages = dense_workload ? 48 : 100;
  ap->configure(arch::linear_pipeline_program(stages));
  const int waves = dense_workload ? 64 : 1;
  return [ap, waves, expected = std::make_shared<std::uint64_t>(0)] {
    for (int w = 0; w < waves; ++w) ap->feed("in", arch::make_word_i(w));
    *expected += static_cast<std::uint64_t>(waves);
    const auto r = ap->run(*expected, 1u << 22);
    return static_cast<double>(r.cycles);
  };
}

/// Chip-level sparse execution: one active AP (16 fused clusters) on a
/// side x side cluster fabric, configured once with a 64-stage
/// pipeline, then fed one wave per call — the "1 active AP on a big
/// chip" quiescence case. Configuration cost stays outside the runner
/// (BM_PipelineConfigure guards configure).
auto make_chip_once(bool event_driven, int side = 16) {
  core::ChipConfig cc;
  cc.width = side;
  cc.height = side;
  cc.scaling.ap_template.exec.event_driven = event_driven;
  auto chip = std::make_shared<core::VlsiProcessor>(cc);
  const auto proc = chip->fuse(16);
  ap::AdaptiveProcessor* ap = &chip->manager().processor(proc);
  ap->configure(arch::linear_pipeline_program(64));
  chip->activate(proc);
  return [chip, ap, expected = std::make_shared<std::uint64_t>(0)] {
    ap->feed("in", arch::make_word_i(7));
    const auto r = ap->run(++*expected, 1u << 22);
    return static_cast<double>(r.cycles);
  };
}

/// Deterministic chip farm serving a fixed synthetic manifest; each
/// call builds a farm, serves every job and returns jobs served. With
/// `chaos` a fault plan is replayed and self-healing is on.
auto make_farm_once(bool event_driven, bool chaos) {
  runtime::SyntheticSpec spec;
  spec.jobs = 32;
  spec.seed = 11;
  auto jobs = std::make_shared<const std::vector<scaling::Job>>(
      runtime::synthetic_jobs(spec));
  fault::FaultPlan plan;
  if (chaos) {
    fault::FaultPlanSpec fs;
    fs.seed = 5;
    fs.events = 16;
    fs.horizon = spec.jobs;
    plan = fault::random_fault_plan(fs);
  }
  return [jobs, event_driven, chaos, plan] {
    runtime::FarmConfig cfg;
    cfg.deterministic = true;
    cfg.keep_outcome_log = false;
    cfg.chip.scaling.ap_template.exec.event_driven = event_driven;
    if (chaos) {
      cfg.fault_tolerance.enabled = true;
      cfg.fault_tolerance.plan = plan;
    }
    runtime::ChipFarm farm(cfg);
    for (const auto& job : *jobs) (void)farm.submit(job);
    farm.drain();
    const auto served = farm.metrics().served();
    farm.shutdown();
    return static_cast<double>(served);
  };
}

/// Words scanned per call by simd::first_nonzero_word over a sparse
/// 64 KiB-word buffer (one hit, at the end — the worst case for the
/// scan and the common case for a quiescent summary level). The same
/// binary measures both sides via the runtime force-scalar switch, so
/// the quotient cancels the host out exactly like the engine ratios.
auto make_scan_once(bool force_scalar) {
  auto words = std::make_shared<std::vector<std::uint64_t>>(
      std::size_t{1} << 16, 0);
  words->back() = 1;
  return [words, force_scalar] {
    simd::set_force_scalar(force_scalar);
    if (simd::first_nonzero_word(words->data(), words->size()) !=
        words->size() - 1) {
      std::abort();  // scan broke; the ratio would be meaningless
    }
    simd::set_force_scalar(false);
    return static_cast<double>(words->size());
  };
}

/// Serves the synthetic manifest once on an energy-metered DVS farm
/// and returns mean femtojoules billed per served job. `budget_fj` = 0
/// parks the governor at the nominal ladder level; a tight budget
/// walks it down one level per batch until the ladder floors out.
/// Deterministic farms make the meter byte-identical per seed, so the
/// quotient carries no timing noise at all.
double energy_fj_per_job_round(std::uint64_t budget_fj,
                               const std::vector<scaling::Job>& jobs) {
  runtime::FarmConfig cfg;
  cfg.deterministic = true;
  cfg.keep_outcome_log = false;
  cfg.dvs.enabled = true;
  cfg.dvs.energy_budget_fj_per_job = budget_fj;
  runtime::ChipFarm farm(cfg);
  for (const auto& job : jobs) (void)farm.submit(job);
  farm.drain();
  const auto m = farm.metrics();
  farm.shutdown();
  return static_cast<double>(m.energy_fj) / static_cast<double>(m.served());
}

/// What serving the kernel pack once costs, in deterministic counts.
struct PackCounts {
  double served = 0.0;
  double exec_cycles = 0.0;
  double config_cycles = 0.0;
  double handshakes = 0.0;  // ap.csd.requests
};

/// Serves a fixed-seed mixed kernel pack — compiled workload kernels,
/// bursty arrivals, fuse/split churn, deadline pressure — on a
/// deterministic single-worker farm. Every input is seeded and the farm
/// runs on the virtual cycle clock, so the counts are exact: a change
/// means the kernel lowering, the scheduler, the configuration pipeline
/// or the engine changed, never the host.
PackCounts serve_kernel_pack() {
  const workload::JobStream stream =
      workload::JobStreamBuilder()
          .pack(workload::ScenarioPackBuilder()
                    .name("bench")
                    .seed(11)
                    .jobs(48)
                    .bursty(3, 250)
                    .churn(0.2)
                    .deadline_pressure(0.2, 250000)
                    .build())
          .build();
  runtime::FarmConfig cfg;
  cfg.deterministic = true;
  cfg.keep_outcome_log = false;
  runtime::ChipFarm farm(cfg);
  for (const auto& timed : stream.jobs) {
    runtime::SubmitOptions so;
    so.arrival_tick = timed.arrival;
    so.deadline = timed.deadline;
    (void)farm.submit(timed.job, so);
  }
  farm.drain();
  const auto m = farm.metrics();
  const auto counters = farm.obs_metrics().counters();
  farm.shutdown();
  const auto handshakes = counters.find("ap.csd.requests");
  return {static_cast<double>(m.served()),
          static_cast<double>(m.exec_cycles),
          static_cast<double>(m.config_cycles),
          handshakes == counters.end()
              ? 0.0
              : static_cast<double>(handshakes->second)};
}

struct Metric {
  std::string name;
  double floor;  // hard lower bound, machine-independent
  double value = 0.0;
  double event_rate = 0.0;  // informational, machine-dependent
  double dense_rate = 0.0;
};

/// Every metric key the harness can produce, in baseline-file order.
/// --merge carries keys over from an existing baseline when a --filter
/// run measured only a subset, so a partial refresh never drops keys.
const char* const kAllMetricNames[] = {
    "executor_sparse_speedup",      "executor_sparse_speedup_1024",
    "executor_dense_speedup",       "chip_sparse_speedup",
    "chip_sparse_speedup_1024",     "simd_scan_speedup",
    "farm_throughput_speedup",      "chaos_throughput_speedup",
    "energy_per_job",               "dvs_savings",
    "kernel_throughput",            "jobs_per_kilo_handshake",
    "jobs_per_kilo_config_cycle",
};

std::vector<Metric> run_all(const std::string& filter) {
  const std::regex re(filter.empty() ? ".*" : filter);
  const auto matches = [&re](const char* name) {
    return std::regex_search(name, re);
  };
  std::vector<Metric> metrics;
  // Measured first, before any big-footprint scenario runs: the
  // 1024-object scenarios leave behind freed, pre-faulted (and
  // THP-promotable) pages, and whichever side of a later scenario
  // allocates into them gains ~10% on linear sweeps. Interleaving
  // cancels time-varying drift but not that placement asymmetry, and
  // the near-unity dense ratio is the only metric where ±10% spans
  // the floor. (A fresh `--filter executor_dense` run reproduces this
  // clean-heap measurement by construction.)
  if (matches("executor_dense_speedup")) {
    Metric m{"executor_dense_speedup", 0.95};
    // Ratio of best-of-3 rounds, fresh engine state per round. The
    // two engines' arenas land in different heap spots, and which
    // side gets the better pages is a per-allocation lottery worth
    // ~4% on this near-unity ratio — fixed for a round's lifetime, so
    // interleaving can't average it out. Noise (placement, scheduler)
    // only ever slows a side; each side's best rate across re-rolled
    // rounds is its intrinsic speed, exactly the min-time estimator
    // micro-benchmarks use, applied per side before taking the
    // quotient.
    double best_event = 0.0, best_dense = 0.0;
    for (int round = 0; round < 3; ++round) {
      double ev = 0.0, de = 0.0;
      interleaved_ratio(make_executor_once(true, true),
                        make_executor_once(false, true), ev, de);
      best_event = std::max(best_event, ev);
      best_dense = std::max(best_dense, de);
    }
    m.event_rate = best_event;
    m.dense_rate = best_dense;
    m.value = best_event / best_dense;
    metrics.push_back(m);
  }
  if (matches("executor_sparse_speedup")) {
    Metric m{"executor_sparse_speedup", 3.0};
    m.value = interleaved_ratio(make_executor_once(true, false),
                                make_executor_once(false, false),
                                m.event_rate, m.dense_rate);
    metrics.push_back(m);
  }
  if (matches("executor_sparse_speedup_1024")) {
    // Epiphany-V-class object space: a 500-stage pipeline (~1000
    // resident objects — each stage is an op plus its constant) filling
    // a 1024-object AP, one wave in flight. The dense reference scans
    // every object per cycle; the event engine touches ~1, and its
    // summary level keeps the drain cost flat across the quiet words.
    Metric m{"executor_sparse_speedup_1024", 8.0};
    m.value = interleaved_ratio(make_executor_once(true, false, 1024, 500),
                                make_executor_once(false, false, 1024, 500),
                                m.event_rate, m.dense_rate);
    metrics.push_back(m);
  }
  if (matches("chip_sparse_speedup")) {
    Metric m{"chip_sparse_speedup", 3.0};
    m.value =
        interleaved_ratio(make_chip_once(true), make_chip_once(false),
                          m.event_rate, m.dense_rate);
    metrics.push_back(m);
  }
  if (matches("chip_sparse_speedup_1024")) {
    // One active 16-cluster AP on a 32x32 = 1024-cluster chip.
    Metric m{"chip_sparse_speedup_1024", 3.0};
    m.value =
        interleaved_ratio(make_chip_once(true, 32), make_chip_once(false, 32),
                          m.event_rate, m.dense_rate);
    metrics.push_back(m);
  }
  if (simd::kLevel >= 2 && matches("simd_scan_speedup")) {
    // Only recorded on x86-SIMD builds: on a scalar build both sides
    // are the same code and the ratio pins at ~1.0, which must not
    // overwrite (or be checked against) an AVX2-recorded baseline.
    Metric m{"simd_scan_speedup", 1.5};
    m.value = interleaved_ratio(make_scan_once(false), make_scan_once(true),
                                m.event_rate, m.dense_rate);
    metrics.push_back(m);
  }
  if (matches("farm_throughput_speedup")) {
    Metric m{"farm_throughput_speedup", 0.9};
    m.value = interleaved_ratio(make_farm_once(true, false),
                                make_farm_once(false, false),
                                m.event_rate, m.dense_rate, 0.8);
    metrics.push_back(m);
  }
  if (matches("chaos_throughput_speedup")) {
    Metric m{"chaos_throughput_speedup", 0.9};
    m.value = interleaved_ratio(make_farm_once(true, true),
                                make_farm_once(false, true),
                                m.event_rate, m.dense_rate, 0.8);
    metrics.push_back(m);
  }
  if (matches("energy_per_job") || matches("dvs_savings")) {
    // Quotients of the deterministic energy meter, not wall-clock
    // rates: the same manifest is served twice, once with the governor
    // parked at nominal (budget 0) and once under a 1 fJ budget that
    // floors the ladder. Both femtojoule totals are byte-identical per
    // seed, so tight floors mean "the pricing model or the governor's
    // level sequence changed", never "the host was slow".
    //   energy_per_job — jobs per microjoule at the nominal level
    //                    (higher is better, like every other metric).
    //   dvs_savings    — nominal fJ/job over budget-floored fJ/job.
    //                    The issue's >= 20% joules-per-job reduction is
    //                    a >= 1.25x ratio; the default ladder bottoms
    //                    out at 65% V (dynamic energy ~0.42x), so the
    //                    measured ratio clears the 1.2 floor with
    //                    margin.
    runtime::SyntheticSpec spec;
    spec.jobs = 32;
    spec.seed = 11;
    const auto jobs = runtime::synthetic_jobs(spec);
    const double nominal_fj = energy_fj_per_job_round(0, jobs);
    const double floored_fj = energy_fj_per_job_round(1, jobs);
    if (matches("energy_per_job")) {
      metrics.push_back({"energy_per_job", 3000.0, 1.0e9 / nominal_fj,
                         nominal_fj, floored_fj});
    }
    if (matches("dvs_savings")) {
      metrics.push_back({"dvs_savings", 1.2, nominal_fj / floored_fj,
                         floored_fj, nominal_fj});
    }
  }
  if (matches("kernel_throughput") || matches("jobs_per_kilo_handshake") ||
      matches("jobs_per_kilo_config_cycle")) {
    // Deterministic, so the same numbers every run on every host; the
    // floors only have to absorb intentional re-costing of the kernels
    // or the configure path, not measurement noise. The two configure
    // counts are the served-job path's CI gate: re-handshaking routes a
    // stack shift only moved, or adding configuration cycles, drops them.
    const PackCounts pack = serve_kernel_pack();
    const auto quotient = [&](const char* name, double floor, double value) {
      if (matches(name)) metrics.push_back({name, floor, value, value, value});
    };
    quotient("kernel_throughput", 50000.0,
             1.0e6 * pack.served / pack.exec_cycles);
    quotient("jobs_per_kilo_handshake", 17.0,
             1.0e3 * pack.served / pack.handshakes);
    quotient("jobs_per_kilo_config_cycle", 6.0,
             1.0e3 * pack.served / pack.config_cycles);
  }
  return metrics;
}

/// Minimal extractor for the rigid JSON this tool itself emits: finds
/// `"name"` and reads the number following the next `"field":`.
bool baseline_field(const std::string& json, const std::string& name,
                    const char* field, double& value) {
  const auto key = "\"" + name + "\"";
  auto pos = json.find(key);
  if (pos == std::string::npos) return false;
  pos = json.find("\"" + std::string(field) + "\"", pos);
  if (pos == std::string::npos) return false;
  pos = json.find(':', pos);
  if (pos == std::string::npos) return false;
  value = std::strtod(json.c_str() + pos + 1, nullptr);
  return true;
}

bool baseline_value(const std::string& json, const std::string& name,
                    double& value) {
  return baseline_field(json, name, "value", value);
}

/// Serialises the baseline: every key in kAllMetricNames that was
/// either measured this run or present in `merge_json` (a previous
/// baseline, consulted only for keys the filter skipped), in canonical
/// order.
std::string to_json(const std::vector<Metric>& metrics,
                    const std::string& merge_json) {
  std::vector<Metric> out_metrics;
  for (const char* name : kAllMetricNames) {
    bool measured = false;
    for (const auto& m : metrics) {
      if (m.name == name) {
        out_metrics.push_back(m);
        measured = true;
        break;
      }
    }
    if (measured) continue;
    Metric carried;
    if (baseline_field(merge_json, name, "value", carried.value) &&
        baseline_field(merge_json, name, "floor", carried.floor)) {
      carried.name = name;
      out_metrics.push_back(carried);
    }
  }
  std::ostringstream out;
  out << "{\n"
      << "  \"schema\": 1,\n"
      << "  \"unit\": \"event-engine over dense-engine throughput ratio\",\n"
      << "  \"metrics\": {\n";
  for (std::size_t i = 0; i < out_metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": { \"value\": %.3f, \"floor\": %.2f }%s\n",
                  out_metrics[i].name.c_str(), out_metrics[i].value,
                  out_metrics[i].floor, i + 1 < out_metrics.size() ? "," : "");
    out << buf;
  }
  out << "  }\n}\n";
  return out.str();
}

int check(const std::vector<Metric>& metrics, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open baseline %s\n", path.c_str());
    return 2;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();

  int failures = 0;
  std::vector<std::string> missing;
  std::printf("%-30s %9s %9s %9s  verdict\n", "metric", "measured",
              "baseline", "floor");
  for (const auto& m : metrics) {
    double base = 0.0;
    if (!baseline_value(json, m.name, base)) {
      std::printf("%-30s %9.3f %9s %9.2f  FAIL (missing from baseline)\n",
                  m.name.c_str(), m.value, "-", m.floor);
      missing.push_back(m.name);
      ++failures;
      continue;
    }
    const double bound = base * kTolerance;
    const bool ok = m.value >= m.floor && m.value >= bound;
    std::printf("%-30s %9.3f %9.3f %9.2f  %s\n", m.name.c_str(), m.value,
                base, m.floor,
                ok ? "ok"
                   : (m.value < m.floor ? "FAIL (below floor)"
                                        : "FAIL (>25% regression)"));
    if (!ok) ++failures;
  }
  if (!missing.empty()) {
    // Name exactly what the harness wanted and what the file offers —
    // the usual cause is a new scenario added without re-recording.
    std::fprintf(stderr, "\nbaseline %s is missing %zu metric key(s):\n",
                 path.c_str(), missing.size());
    for (const auto& name : missing) {
      std::fprintf(stderr, "  expected \"%s\": not found in file\n",
                   name.c_str());
    }
    std::fprintf(stderr, "keys present in the baseline:");
    bool any = false;
    for (const auto& m : metrics) {
      double unused = 0.0;
      if (baseline_value(json, m.name, unused)) {
        std::fprintf(stderr, " \"%s\"", m.name.c_str());
        any = true;
      }
    }
    std::fprintf(stderr, "%s\n", any ? "" : " (none recognised)");
    std::fprintf(stderr,
                 "the harness and the committed baseline disagree on the "
                 "scenario list; re-record with: scripts/bench_baseline\n");
  }
  if (failures != 0) {
    std::fprintf(stderr,
                 "\n%d metric(s) regressed. If this is an intended "
                 "trade-off, refresh the baseline with "
                 "scripts/bench_baseline.\n",
                 failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string check_path, filter, merge_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else if (arg == "--filter" && i + 1 < argc) {
      filter = argv[++i];
    } else if (arg == "--merge" && i + 1 < argc) {
      merge_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--check BASELINE] [--filter REGEX] "
                   "[--merge BASELINE]\n",
                   argv[0]);
      return 2;
    }
  }
  std::vector<Metric> metrics;
  try {
    metrics = run_all(filter);
  } catch (const std::regex_error&) {
    std::fprintf(stderr, "--filter '%s' is not a valid regex\n",
                 filter.c_str());
    return 2;
  }
  if (metrics.empty()) {
    std::fprintf(stderr, "--filter '%s' matches no scenario; keys are:\n",
                 filter.c_str());
    for (const char* name : kAllMetricNames) {
      std::fprintf(stderr, "  %s\n", name);
    }
    return 2;
  }
  if (json) {
    std::string merge_json;
    if (!merge_path.empty()) {
      std::ifstream in(merge_path);
      if (!in) {
        std::fprintf(stderr, "cannot open --merge baseline %s\n",
                     merge_path.c_str());
        return 2;
      }
      std::stringstream ss;
      ss << in.rdbuf();
      merge_json = ss.str();
    }
    std::fputs(to_json(metrics, merge_json).c_str(), stdout);
    return 0;
  }
  if (!check_path.empty()) {
    return check(metrics, check_path);
  }
  std::printf("%-30s %9s %9s %14s %14s\n", "metric", "ratio", "floor",
              "event units/s", "dense units/s");
  for (const auto& m : metrics) {
    std::printf("%-30s %9.3f %9.2f %14.0f %14.0f\n", m.name.c_str(),
                m.value, m.floor, m.event_rate, m.dense_rate);
  }
  return 0;
}

// Scenario packs — seeded, declarative traffic for the chip farm.
//
// A ScenarioPack describes a traffic scenario (arrival process, kernel
// mix, size distribution, deadline pressure, fuse/split churn) and a
// seed; JobStreamBuilder expands it into a deterministic JobStream —
// timed, compiled kernel jobs identical across runs and platforms
// (xoshiro256**). Packs are constructed through the validated builders
// (the ChipConfigBuilder/FarmConfigBuilder convention: fluent setters,
// build() throws, try_build() returns StatusOr) or parsed from a
// line-oriented spec file:
//
//   # pack spec
//   name bursty-mix
//   seed 7
//   jobs 120
//   arrival bursty gap=400 burst=6      # or: steady gap=N
//                                       # or: diurnal gap=N period=P
//   mix dot=3 fir=2 gas=1 reduce=2 filter=1
//   width 4 12
//   tokens 2 6
//   deadline 25 200000                  # percent of jobs, allowance ticks
//   churn 30                            # percent of jobs
//   energy on
//
// load_pack() also accepts the builtin "@preset:NAME[:seed[:jobs]]"
// form (steady, bursty, diurnal, churn, deadline, mixed), so smoke
// tests and CI need no files on disk.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "workload/kernels.hpp"

namespace vlsip::workload {

enum class ArrivalModel : std::uint8_t {
  /// Jittered fixed-rate arrivals around `mean_gap` ticks.
  kSteady = 0,
  /// Geometric bursts of simultaneous arrivals separated by long gaps
  /// (mean gap scales with the burst size to hold the average rate).
  kBursty,
  /// The steady process with its gap swept by a triangle wave over
  /// `diurnal_period` jobs: peak rate at the trough, half rate at the
  /// crest.
  kDiurnal,
};

const char* to_string(ArrivalModel model);

struct ScenarioPack {
  std::string name = "pack";
  std::uint64_t seed = 1;
  std::size_t jobs = 64;
  ArrivalModel arrival = ArrivalModel::kSteady;
  /// Mean inter-arrival gap in farm ticks (virtual cycles in
  /// deterministic mode). 0 = everything arrives at tick 0.
  std::uint64_t mean_gap = 400;
  /// Mean burst size for kBursty (>= 1).
  std::size_t mean_burst = 4;
  /// Jobs per diurnal cycle for kDiurnal (>= 2).
  std::size_t diurnal_period = 32;
  /// Relative draw weights per kernel family, indexed by KernelKind.
  std::uint32_t mix[kKernelKinds] = {2, 2, 1, 2, 1};
  int width_min = 2;
  int width_max = 8;
  std::size_t tokens_min = 2;
  std::size_t tokens_max = 6;
  /// Fraction of jobs submitted with a deadline of arrival + allowance.
  double deadline_pressure = 0.0;
  std::uint64_t deadline_allowance = 200000;
  /// Fraction of jobs whose cluster request is inflated by a random
  /// amount — adversarial fuse/split churn that defeats the batcher's
  /// same-size grouping and forces refusion between batches.
  double churn = 0.0;
  /// Meter per-job energy (DVS governor at budget 0: meter, never
  /// throttle) and report energy percentiles.
  bool energy = false;
};

/// One entry of a generated stream: the job plus its traffic timing.
struct TimedJob {
  scaling::Job job;
  /// Absolute farm tick the job arrives at (SubmitOptions::arrival_tick).
  std::uint64_t arrival = 0;
  /// Absolute deadline tick; 0 = none.
  std::uint64_t deadline = 0;
  /// Kernel family label ("dot8") — the per-kernel report key.
  std::string kernel;
};

struct JobStream {
  ScenarioPack pack;
  std::vector<TimedJob> jobs;
};

/// Validated builder for ScenarioPack (the one checked construction
/// path; aggregate-initialising ScenarioPack directly is the legacy
/// escape hatch).
class ScenarioPackBuilder {
 public:
  ScenarioPackBuilder& name(std::string n) {
    pack_.name = std::move(n);
    return *this;
  }
  ScenarioPackBuilder& seed(std::uint64_t s) {
    pack_.seed = s;
    return *this;
  }
  ScenarioPackBuilder& jobs(std::size_t n) {
    pack_.jobs = n;
    return *this;
  }
  ScenarioPackBuilder& steady(std::uint64_t mean_gap) {
    pack_.arrival = ArrivalModel::kSteady;
    pack_.mean_gap = mean_gap;
    return *this;
  }
  ScenarioPackBuilder& bursty(std::size_t mean_burst,
                              std::uint64_t mean_gap) {
    pack_.arrival = ArrivalModel::kBursty;
    pack_.mean_burst = mean_burst;
    pack_.mean_gap = mean_gap;
    return *this;
  }
  ScenarioPackBuilder& diurnal(std::size_t period, std::uint64_t mean_gap) {
    pack_.arrival = ArrivalModel::kDiurnal;
    pack_.diurnal_period = period;
    pack_.mean_gap = mean_gap;
    return *this;
  }
  /// Relative draw weight of one kernel family (default mix otherwise).
  ScenarioPackBuilder& kernel_weight(KernelKind kind, std::uint32_t weight) {
    pack_.mix[static_cast<std::size_t>(kind)] = weight;
    return *this;
  }
  ScenarioPackBuilder& widths(int min, int max) {
    pack_.width_min = min;
    pack_.width_max = max;
    return *this;
  }
  ScenarioPackBuilder& tokens(std::size_t min, std::size_t max) {
    pack_.tokens_min = min;
    pack_.tokens_max = max;
    return *this;
  }
  ScenarioPackBuilder& deadline_pressure(double fraction,
                                         std::uint64_t allowance) {
    pack_.deadline_pressure = fraction;
    pack_.deadline_allowance = allowance;
    return *this;
  }
  ScenarioPackBuilder& churn(double fraction) {
    pack_.churn = fraction;
    return *this;
  }
  ScenarioPackBuilder& energy(bool on = true) {
    pack_.energy = on;
    return *this;
  }

  ScenarioPack build() const;
  StatusOr<ScenarioPack> try_build() const;

  /// The pack as accumulated so far, unvalidated.
  ScenarioPack& raw() { return pack_; }

 private:
  Status validate() const;

  ScenarioPack pack_;
};

/// Expands a pack into its deterministic job stream. The generation is
/// a pure function of the validated pack — same pack, same stream,
/// byte for byte.
class JobStreamBuilder {
 public:
  JobStreamBuilder& pack(ScenarioPack p) {
    pack_ = std::move(p);
    return *this;
  }
  /// Convenience overrides on top of the pack (CLI flags).
  JobStreamBuilder& seed(std::uint64_t s) {
    pack_.seed = s;
    return *this;
  }
  JobStreamBuilder& jobs(std::size_t n) {
    pack_.jobs = n;
    return *this;
  }

  JobStream build() const;
  StatusOr<JobStream> try_build() const;

 private:
  ScenarioPack pack_;
};

/// Parses pack-spec text (format above). kInvalidArgument with a
/// "line N:" message on malformed input.
StatusOr<ScenarioPack> parse_pack(const std::string& text);

/// Resolves `ref`: "@preset:NAME[:seed[:jobs]]" for a builtin pack
/// (steady, bursty, diurnal, churn, deadline, mixed), otherwise a path
/// to a spec file.
StatusOr<ScenarioPack> load_pack(const std::string& ref);

/// The ':'-separated integer fields of a builtin "@...:" reference,
/// from byte `from` of `ref` to its end, at most `max_fields` of them.
/// Every such field obeys this one rule: decimal digits only — no
/// sign, no suffix, not empty. kInvalidArgument otherwise.
StatusOr<std::vector<std::uint64_t>> ref_integers(const std::string& ref,
                                                  std::size_t from,
                                                  std::size_t max_fields);

}  // namespace vlsip::workload

// FarmConfigBuilder — the one construction surface for a chip farm.
//
// The runtime half of the builder pair (core/builder.hpp builds the
// chip template): FarmConfig + FaultToleranceConfig + BatchPolicy used
// to be three nested structs whose interactions carried footguns the
// types did not express — deterministic mode silently ignores
// queue_capacity, a retry budget without fault tolerance enabled is
// dead config, a fault plan without quarantine never heals. The builder
// names the intents (deterministic(), fault_tolerance(),
// checkpoint_every()) and validates the combination in build().
// Aggregate-initialising FarmConfig directly remains the legacy path.
//
//   auto farm_cfg = runtime::FarmConfigBuilder()
//                       .deterministic()
//                       .chip(core::ChipConfigBuilder().grid(4, 4).build())
//                       .fault_tolerance(plan)
//                       .checkpoint_every(2)
//                       .build();
//   runtime::ChipFarm farm(farm_cfg);
#pragma once

#include <cstdint>
#include <utility>

#include "core/builder.hpp"
#include "runtime/chip_farm.hpp"

namespace vlsip::runtime {

class FarmConfigBuilder {
 public:
  FarmConfigBuilder& workers(std::size_t n) {
    config_.workers = n;
    return *this;
  }

  /// Admission queue depth and full-queue backpressure (block the
  /// submitter vs reject with a reason).
  FarmConfigBuilder& queue(std::size_t capacity, bool block_when_full = false) {
    config_.queue_capacity = capacity;
    config_.block_when_full = block_when_full;
    return *this;
  }

  /// One worker on a virtual cycle clock; bit-identical outcomes.
  FarmConfigBuilder& deterministic(bool on = true) {
    config_.deterministic = on;
    return *this;
  }

  FarmConfigBuilder& batch(std::size_t max_jobs) {
    config_.batch.max_jobs = max_jobs;
    return *this;
  }

  FarmConfigBuilder& default_max_cycles(std::uint64_t cycles) {
    config_.default_max_cycles = cycles;
    return *this;
  }

  /// Emulated silicon clock (threaded mode pacing); 0 = unpaced.
  FarmConfigBuilder& chip_hz(double hz) {
    config_.chip_hz = hz;
    return *this;
  }

  FarmConfigBuilder& keep_outcome_log(bool on) {
    config_.keep_outcome_log = on;
    return *this;
  }

  /// The chip template every worker slot is built from.
  FarmConfigBuilder& chip(core::ChipConfig chip_config) {
    config_.chip = std::move(chip_config);
    return *this;
  }

  /// Enables the self-healing path with `plan` as the injected fault
  /// stream (sorted by the farm at construction).
  FarmConfigBuilder& fault_tolerance(fault::FaultPlan plan) {
    config_.fault_tolerance.enabled = true;
    config_.fault_tolerance.plan = std::move(plan);
    return *this;
  }

  FarmConfigBuilder& retries(std::size_t max_retries,
                             std::uint64_t backoff_ticks = 64) {
    config_.fault_tolerance.max_retries = max_retries;
    config_.fault_tolerance.retry_backoff_ticks = backoff_ticks;
    return *this;
  }

  /// Consecutive faulty services before a chip is pulled (0 = never).
  FarmConfigBuilder& quarantine_after(std::size_t services) {
    config_.fault_tolerance.quarantine_after = services;
    return *this;
  }

  /// Checkpoint each worker chip every N batches; quarantines then
  /// restore the replacement from the last checkpoint.
  FarmConfigBuilder& checkpoint_every(std::size_t batches) {
    config_.checkpoint_every_batches = batches;
    return *this;
  }

  /// Energy-aware scheduling: enables per-chip energy accounting (the
  /// chip template's EnergySpec is forced on) and the per-chip
  /// DvsGovernor, throttling toward `budget_fj_per_job` femtojoules
  /// per served job. 0 = meter but never throttle down.
  FarmConfigBuilder& dvs(std::uint64_t budget_fj_per_job) {
    config_.dvs.enabled = true;
    config_.dvs.energy_budget_fj_per_job = budget_fj_per_job;
    return *this;
  }

  /// Step the DVS ladder back up when farm p99 latency exceeds this
  /// many ticks — latency beats energy on ties. 0 = off.
  FarmConfigBuilder& p99_guardrail(std::uint64_t ticks) {
    config_.dvs.p99_guardrail_ticks = ticks;
    return *this;
  }

  /// Borrowed structured-event sink for farm-level events.
  FarmConfigBuilder& trace_sink(obs::TraceSink* sink) {
    config_.trace = sink;
    return *this;
  }

  FarmConfig build() const {
    const Status s = validate();
    VLSIP_REQUIRE(s.ok(), s.to_string());
    return config_;
  }

  StatusOr<FarmConfig> try_build() const {
    const Status s = validate();
    if (!s.ok()) return s;
    return config_;
  }

  /// The config as accumulated so far, unvalidated.
  FarmConfig& raw() { return config_; }

 private:
  Status validate() const {
    if (config_.workers < 1) {
      return Status(StatusCode::kInvalidArgument,
                    "the farm needs at least one worker");
    }
    if (config_.batch.max_jobs < 1) {
      return Status(StatusCode::kInvalidArgument,
                    "batches must hold at least one job");
    }
    if (!config_.deterministic && config_.queue_capacity < 1) {
      return Status(StatusCode::kInvalidArgument,
                    "threaded mode needs a non-empty admission queue");
    }
    if (config_.dvs.p99_guardrail_ticks > 0 && !config_.dvs.enabled) {
      return Status(StatusCode::kInvalidArgument,
                    "a p99 guardrail without dvs() is dead config — the "
                    "governor would never run");
    }
    if (!config_.fault_tolerance.enabled &&
        !config_.fault_tolerance.plan.events.empty()) {
      return Status(StatusCode::kInvalidArgument,
                    "a fault plan without fault_tolerance() is dead "
                    "config — it would never fire");
    }
    // The embedded chip template obeys the chip builder's rules.
    core::ChipConfigBuilder chip_builder;
    chip_builder.raw() = config_.chip;
    const auto chip = chip_builder.try_build();
    return chip.status();
  }

  FarmConfig config_;
};

}  // namespace vlsip::runtime

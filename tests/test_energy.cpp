// Tests for the live energy/DVS accounting spine (docs/ENERGY.md):
// EnergyModel pricing, the chip-level meter and its snapshot section,
// the DvsGovernor policy, and the farm-level energy-aware scheduling
// path — including the headline scenario where an energy budget trades
// p99 latency for a >= 20% joules-per-job reduction.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/vlsi_processor.hpp"
#include "costmodel/energy.hpp"
#include "obs/metrics.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/dvs_governor.hpp"
#include "runtime/farm_config_builder.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip {
namespace {

using cost::DvsPoint;
using cost::EnergyActivity;
using cost::EnergyModel;
using cost::EnergySpec;

EnergyModel make_model(int year = 2012) {
  EnergySpec spec;
  spec.enabled = true;
  spec.node_year = year;
  return EnergyModel(spec);
}

// --- EnergyModel --------------------------------------------------------

TEST(EnergyModel, PerEventCostsArePositiveAndOrdered) {
  const auto model = make_model();
  // Costs are area-derived, so they must follow Table 1: the integer
  // datapath (iMul + iALU/Shift + iDiv, 3.71e8 lambda^2) out-areas the
  // FPU pair (fMul/fAdd + fDiv, 1.56e8 lambda^2), and a memory access
  // touches more silicon than a transport hop.
  EXPECT_GT(model.unit_fj(cost::kEnergyFloatOp, 0), 0u);
  EXPECT_GT(model.unit_fj(cost::kEnergyIntOp, 0),
            model.unit_fj(cost::kEnergyFloatOp, 0));
  EXPECT_GT(model.unit_fj(cost::kEnergyMemOp, 0),
            model.unit_fj(cost::kEnergyTransportOp, 0));
  // Idle cycles are priced as leakage, never switching.
  EXPECT_EQ(model.unit_fj(cost::kEnergyIdleCycle, 0), 0u);
  EXPECT_GT(model.leak_fj_per_idle_cycle(0), 0u);
}

TEST(EnergyModel, LadderScalesDynamicEnergyDown) {
  const auto model = make_model();
  ASSERT_GE(model.levels(), 2u);
  for (std::size_t l = 1; l < model.levels(); ++l) {
    // Every step down the default ladder lowers the voltage, so every
    // dynamic class gets cheaper per event.
    EXPECT_LT(model.point(l).volt_pct, model.point(l - 1).volt_pct);
    EXPECT_LE(model.unit_fj(cost::kEnergyIntOp, l),
              model.unit_fj(cost::kEnergyIntOp, l - 1));
    EXPECT_LT(model.unit_fj(cost::kEnergyFloatOp, l),
              model.unit_fj(cost::kEnergyFloatOp, l - 1));
  }
}

TEST(EnergyModel, NewerNodesAreCheaperPerOp) {
  // Smaller feature -> smaller area -> lower capacitance and voltage.
  EXPECT_LT(make_model(2015).unit_fj(cost::kEnergyIntOp, 0),
            make_model(2010).unit_fj(cost::kEnergyIntOp, 0));
  // ... which is exactly why GOPS/W climbs across Table 4's nodes.
  EXPECT_GT(cost::gops_per_watt(2015), cost::gops_per_watt(2010));
}

TEST(EnergyModel, PricingIsPureIntegerArithmetic) {
  const auto model = make_model();
  EnergyActivity a;
  a.units[cost::kEnergyIntOp] = 1000;
  a.units[cost::kEnergyFloatOp] = 10;
  a.units[cost::kEnergyIdleCycle] = 77;
  const auto priced = model.price(a, 1);
  EXPECT_EQ(priced.dynamic_fj[cost::kEnergyIntOp],
            1000 * model.unit_fj(cost::kEnergyIntOp, 1));
  EXPECT_EQ(priced.dynamic_fj[cost::kEnergyFloatOp],
            10 * model.unit_fj(cost::kEnergyFloatOp, 1));
  EXPECT_EQ(priced.leakage_fj, 77 * model.leak_fj_per_idle_cycle(1));
  EXPECT_EQ(priced.total_fj(),
            priced.dynamic_total_fj() + priced.leakage_fj);
}

TEST(EnergyModel, RejectsBadLadders) {
  EnergySpec bad;
  bad.enabled = true;
  bad.ladder = {{0, 100}};
  EXPECT_THROW(EnergyModel{bad}, PreconditionError);
  bad.ladder = {{100, 101}};
  EXPECT_THROW(EnergyModel{bad}, PreconditionError);
  bad.ladder = {{100, 100}};
  bad.initial_level = 1;
  EXPECT_THROW(EnergyModel{bad}, PreconditionError);
}

// --- DvsGovernor --------------------------------------------------------

runtime::DvsConfig governor_cfg(std::uint64_t budget,
                                std::uint64_t guardrail = 0) {
  runtime::DvsConfig cfg;
  cfg.enabled = true;
  cfg.energy_budget_fj_per_job = budget;
  cfg.p99_guardrail_ticks = guardrail;
  return cfg;
}

TEST(DvsGovernor, ThrottlesDownWhenOverBudget) {
  const auto model = make_model();
  runtime::DvsGovernor gov(governor_cfg(1000), &model);
  // 10 jobs at 5000 fJ mean, budget 1000: one step down per decision.
  EXPECT_EQ(gov.decide(0, 10, 50000, 0), 1u);
  EXPECT_EQ(gov.decide(1, 20, 100000, 0), 2u);
  // At the ladder floor it holds rather than stepping off the end.
  EXPECT_EQ(gov.decide(model.levels() - 1, 30, 150000, 0),
            model.levels() - 1);
}

TEST(DvsGovernor, P99GuardrailBeatsEnergyBudget) {
  const auto model = make_model();
  runtime::DvsGovernor gov(governor_cfg(1000, 500), &model);
  // Over budget AND over the latency guardrail: latency wins, step up.
  EXPECT_EQ(gov.decide(2, 10, 50000, 900), 1u);
  // Guardrail breach at the top level has nowhere to go.
  runtime::DvsGovernor top(governor_cfg(1000, 500), &model);
  EXPECT_EQ(top.decide(0, 10, 50000, 900), 1u);  // still over budget
}

TEST(DvsGovernor, ProbesBackUpWithHeadroom) {
  const auto model = make_model();
  runtime::DvsGovernor gov(governor_cfg(1'000'000), &model);
  // Mean 100 fJ/job at level 2 is far under a 1e6 budget even re-priced
  // at level 1's voltage: probe up.
  EXPECT_EQ(gov.decide(2, 10, 1000, 0), 1u);
}

TEST(DvsGovernor, ReanchorsWhenMetersReset) {
  const auto model = make_model();
  runtime::DvsGovernor gov(governor_cfg(1), &model);
  EXPECT_EQ(gov.decide(0, 10, 50000, 0), 1u);
  // A chip swap rewinds the lifetime meters; the governor must hold
  // steady and re-anchor instead of underflowing the window.
  EXPECT_EQ(gov.decide(1, 2, 300, 0), 1u);
  EXPECT_EQ(gov.decide(1, 4, 90000, 0), 2u);  // window works again
}

TEST(DvsGovernor, DisabledGovernorNeverSteps) {
  const auto model = make_model();
  runtime::DvsGovernor off(runtime::DvsConfig{}, &model);
  EXPECT_EQ(off.decide(0, 10, 1'000'000'000, 1'000'000), 0u);
  runtime::DvsGovernor no_model(governor_cfg(1), nullptr);
  EXPECT_EQ(no_model.decide(0, 10, 1'000'000'000, 0), 0u);
}

// --- chip meter ---------------------------------------------------------

core::ChipConfig energy_chip(int width = 4, int height = 4) {
  return core::ChipConfigBuilder()
      .grid(width, height)
      .cluster(8, 8)
      .energy(true)
      .build();
}

scaling::Job tiny_job(const std::string& name, int stages = 3,
                      std::size_t clusters = 1) {
  scaling::Job j;
  j.name = name;
  j.program = arch::linear_pipeline_program(stages);
  j.inputs = {{"in", {arch::make_word_i(1)}}};
  j.expected_per_output = 1;
  j.requested_clusters = clusters;
  return j;
}

/// Fuses one cluster, serves the job on it and releases it again.
std::uint64_t run_one_job(core::VlsiProcessor& chip) {
  const auto before = chip.energy_total_fj();
  const scaling::ProcId proc = chip.fuse(1);
  EXPECT_NE(proc, scaling::kNoProc);
  const auto outcome =
      scaling::run_job_on(chip.manager(), proc, tiny_job("meter"), 1u << 22);
  chip.release(proc);
  EXPECT_TRUE(outcome.completed);
  return chip.energy_total_fj() - before;
}

TEST(ChipEnergyMeter, DisabledByDefaultAndFreeWhenOff) {
  core::VlsiProcessor chip(core::ChipConfig{});
  EXPECT_FALSE(chip.energy_enabled());
  EXPECT_EQ(chip.energy_model(), nullptr);
  EXPECT_EQ(chip.energy_total_fj(), 0u);
  // The activity fold still works (it is counter-derived) — it just
  // prices to nothing.
  EXPECT_EQ(chip.energy_breakdown().total_fj(), 0u);
}

TEST(ChipEnergyMeter, MeterAdvancesWithWorkAndIsDeterministic) {
  core::VlsiProcessor a(energy_chip());
  core::VlsiProcessor b(energy_chip());
  const auto fj_a = run_one_job(a);
  const auto fj_b = run_one_job(b);
  EXPECT_GT(fj_a, 0u);
  EXPECT_EQ(fj_a, fj_b);  // bit-identical per identical run
  // The breakdown attributes the work: config cycles (the wormhole),
  // NoC flits, CSD handshakes and executor ops all fired.
  const auto breakdown = a.energy_breakdown();
  EXPECT_GT(breakdown.dynamic_fj[cost::kEnergyConfigCycle], 0u);
  EXPECT_GT(breakdown.dynamic_fj[cost::kEnergyNocFlit], 0u);
  EXPECT_GT(breakdown.dynamic_fj[cost::kEnergyCsdHandshake], 0u);
  EXPECT_GT(breakdown.dynamic_fj[cost::kEnergyIntOp], 0u);
}

TEST(ChipEnergyMeter, RetiredProcessorsKeepTheirBill) {
  core::VlsiProcessor chip(energy_chip());
  const auto fj = run_one_job(chip);  // releases the processor
  EXPECT_GT(fj, 0u);
  // The released AP is gone from the manager, but its activity was
  // folded into the retired meter — the total must not shrink.
  EXPECT_GE(chip.energy_total_fj(), fj);
}

TEST(ChipEnergyMeter, SetDvsLevelSettlesWithoutLosingEnergy) {
  core::VlsiProcessor chip(energy_chip());
  run_one_job(chip);
  const auto before = chip.energy_total_fj();
  chip.set_dvs_level(2);
  EXPECT_EQ(chip.dvs_level(), 2u);
  EXPECT_EQ(chip.dvs_transitions(), 1u);
  // Settling re-prices nothing retroactively: the meter is unchanged.
  EXPECT_EQ(chip.energy_total_fj(), before);
  // New work at the lower point is cheaper than the same work was at
  // nominal voltage.
  const auto throttled_fj = run_one_job(chip);
  core::VlsiProcessor nominal(energy_chip());
  const auto first = run_one_job(nominal);
  const auto nominal_fj = run_one_job(nominal);  // same warm-chip state
  EXPECT_GT(first, 0u);
  EXPECT_LT(throttled_fj, nominal_fj);
}

TEST(ChipEnergyMeter, SnapshotRoundTripPreservesDvsState) {
  core::VlsiProcessor chip(energy_chip());
  run_one_job(chip);
  chip.set_dvs_level(1);
  run_one_job(chip);
  const auto total = chip.energy_total_fj();
  const auto breakdown = chip.energy_breakdown();

  snapshot::Snapshot snap;
  ASSERT_TRUE(chip.save(snap).ok());
  core::VlsiProcessor resumed(energy_chip());
  ASSERT_TRUE(resumed.restore(snap).ok());
  EXPECT_EQ(resumed.dvs_level(), 1u);
  EXPECT_EQ(resumed.dvs_transitions(), 1u);
  EXPECT_EQ(resumed.energy_total_fj(), total);
  for (std::size_t c = 0; c < cost::kEnergyClassCount; ++c) {
    EXPECT_EQ(resumed.energy_breakdown().dynamic_fj[c],
              breakdown.dynamic_fj[c])
        << cost::energy_class_name(c);
  }
  // And the resumed chip keeps metering at the restored level.
  const auto more = run_one_job(resumed);
  EXPECT_GT(more, 0u);
}

TEST(ChipEnergyMeter, EnergyOffSnapshotHasNoEnergySection) {
  core::ChipConfig off_cfg;
  off_cfg.width = off_cfg.height = 4;
  core::VlsiProcessor off_chip(off_cfg);
  snapshot::Snapshot snap;
  ASSERT_TRUE(off_chip.save(snap).ok());
  const auto& bytes = snap.bytes();
  const std::string needle = "core.energy";
  const auto it = std::search(bytes.begin(), bytes.end(), needle.begin(),
                              needle.end());
  EXPECT_EQ(it, bytes.end())
      << "energy-off snapshots must stay byte-compatible with "
         "pre-energy builds";
}

TEST(ChipEnergyMeter, ExportObsEmitsEnergyKeysOnlyWhenOn) {
  core::VlsiProcessor on(energy_chip());
  run_one_job(on);
  obs::MetricRegistry reg_on;
  on.export_obs(reg_on);
  bool saw_energy = false;
  for (const auto& [name, value] : reg_on.counters()) {
    if (name.rfind("chip.energy.", 0) == 0) saw_energy = true;
  }
  EXPECT_TRUE(saw_energy);

  core::ChipConfig off_cfg;
  off_cfg.width = off_cfg.height = 4;
  core::VlsiProcessor off(off_cfg);
  obs::MetricRegistry reg_off;
  off.export_obs(reg_off);
  for (const auto& [name, value] : reg_off.counters()) {
    EXPECT_NE(name.rfind("chip.energy.", 0), 0u) << name;
  }
}

// --- farm scheduling ----------------------------------------------------

runtime::FarmConfig farm_cfg(std::uint64_t budget_fj_per_job,
                             bool dvs_on = true) {
  runtime::FarmConfigBuilder b;
  b.deterministic()
      .batch(1)  // one governor decision per job
      .keep_outcome_log(true);
  if (dvs_on) {
    b.chip(energy_chip()).dvs(budget_fj_per_job);
  } else {
    // The true energy-off baseline: no meter, no governor, zero bills.
    b.chip(core::ChipConfigBuilder().grid(4, 4).cluster(8, 8).build());
  }
  return b.build();
}

std::vector<scaling::JobOutcome> serve_jobs(const runtime::FarmConfig& cfg,
                                            int n_jobs) {
  runtime::ChipFarm farm(cfg);
  for (int i = 0; i < n_jobs; ++i) {
    EXPECT_TRUE(farm.submit(tiny_job("job" + std::to_string(i))).admitted);
  }
  farm.drain();
  auto log = farm.outcome_log();
  farm.shutdown();
  return log;
}

TEST(EnergyFarm, OutcomesCarryDeterministicEnergyBills) {
  const auto log_a = serve_jobs(farm_cfg(0), 6);
  const auto log_b = serve_jobs(farm_cfg(0), 6);
  ASSERT_EQ(log_a.size(), 6u);
  ASSERT_EQ(log_a.size(), log_b.size());
  for (std::size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_TRUE(log_a[i].completed) << log_a[i].detail;
    EXPECT_GT(log_a[i].energy_fj, 0u);
    EXPECT_EQ(log_a[i].energy_fj, log_b[i].energy_fj) << "job " << i;
    EXPECT_EQ(log_a[i].finished_at, log_b[i].finished_at) << "job " << i;
  }
}

TEST(EnergyFarm, MeteringAtNominalLevelDoesNotPerturbTheSchedule) {
  // Energy accounting with no budget keeps every chip at 100% frequency,
  // so the virtual-clock schedule must be bit-identical to energy-off.
  const auto with_meter = serve_jobs(farm_cfg(0, true), 6);
  const auto without = serve_jobs(farm_cfg(0, false), 6);
  ASSERT_EQ(with_meter.size(), without.size());
  for (std::size_t i = 0; i < with_meter.size(); ++i) {
    EXPECT_EQ(with_meter[i].finished_at, without[i].finished_at)
        << "job " << i;
    EXPECT_EQ(without[i].energy_fj, 0u);  // off = bills stay zero
  }
}

TEST(EnergyFarm, EnergyBudgetCutsJoulesPerJobTradingP99) {
  // The headline scenario: a tight budget drives the governor down the
  // ladder; joules-per-job must drop >= 20% vs the unbudgeted run, paid
  // for with a strictly higher p99 (slower effective clock).
  const int n_jobs = 30;
  const auto nominal = serve_jobs(farm_cfg(0), n_jobs);
  const auto budgeted = serve_jobs(farm_cfg(1), n_jobs);  // 1 fJ: floor it
  ASSERT_EQ(nominal.size(), budgeted.size());

  auto mean_fj = [](const std::vector<scaling::JobOutcome>& log) {
    std::uint64_t total = 0;
    for (const auto& o : log) total += o.energy_fj;
    return static_cast<double>(total) / static_cast<double>(log.size());
  };
  auto p99_ticks = [](const std::vector<scaling::JobOutcome>& log) {
    std::vector<std::uint64_t> lat;
    lat.reserve(log.size());
    for (const auto& o : log) lat.push_back(o.turnaround());
    std::sort(lat.begin(), lat.end());
    return lat[lat.size() - 1];  // max = p99 upper bound on 30 samples
  };

  const double nominal_fj = mean_fj(nominal);
  const double budgeted_fj = mean_fj(budgeted);
  ASSERT_GT(nominal_fj, 0.0);
  EXPECT_LE(budgeted_fj, nominal_fj * 0.8)
      << "energy budget must cut joules-per-job by >= 20% (nominal "
      << nominal_fj << " fJ, budgeted " << budgeted_fj << " fJ)";
  EXPECT_GT(p99_ticks(budgeted), p99_ticks(nominal))
      << "the joules saving must be paid for in latency";
}

TEST(EnergyFarm, P99GuardrailArrestsTheDescent) {
  // Same tight budget, but a guardrail set below the throttled latency:
  // the governor must bounce back up instead of pinning the floor.
  runtime::FarmConfigBuilder b;
  b.deterministic().batch(1).keep_outcome_log(true).chip(energy_chip());
  b.dvs(1).p99_guardrail(1);  // any latency breaches: never throttle far
  runtime::ChipFarm farm(b.build());
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(farm.submit(tiny_job("g" + std::to_string(i))).admitted);
  }
  farm.drain();
  const auto metrics = farm.metrics();
  farm.shutdown();
  // Down-steps and up-steps both count; with the guardrail fighting the
  // budget the governor oscillates instead of walking to the floor.
  EXPECT_GT(metrics.dvs_level_changes, 2u);
}

TEST(EnergyFarm, FarmMetricsAggregateEnergy) {
  runtime::ChipFarm farm(farm_cfg(0));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(farm.submit(tiny_job("m" + std::to_string(i))).admitted);
  }
  farm.drain();
  const auto metrics = farm.metrics();
  std::uint64_t from_log = 0;
  for (const auto& o : farm.outcome_log()) from_log += o.energy_fj;
  farm.shutdown();
  EXPECT_GT(metrics.energy_fj, 0u);
  EXPECT_EQ(metrics.energy_fj, from_log);
  EXPECT_EQ(metrics.job_energy_fj.count(), 4u);
  const std::string rendered = metrics.render("cycles");
  EXPECT_NE(rendered.find("energy:"), std::string::npos);
}

// --- DVS state across farm checkpoint/resume ----------------------------

TEST(EnergyFarm, QuarantineRestorePreservesDvsLevel) {
  // Throttle a chip via the governor, checkpoint it, then force a
  // quarantine: the replacement restores the checkpoint and must come
  // back at the throttled DVS level, not nominal.
  runtime::FarmConfigBuilder b;
  b.deterministic()
      .batch(1)
      .keep_outcome_log(true)
      .chip(energy_chip())
      .dvs(1)  // floor the ladder fast
      .checkpoint_every(1);
  runtime::ChipFarm farm(b.build());
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(farm.submit(tiny_job("q" + std::to_string(i))).admitted);
  }
  farm.drain();
  snapshot::Snapshot snap;
  ASSERT_TRUE(farm.save_chip(0, snap).ok());
  farm.shutdown();

  core::VlsiProcessor resumed(energy_chip());
  ASSERT_TRUE(resumed.restore(snap).ok());
  EXPECT_GT(resumed.dvs_level(), 0u)
      << "the governor should have throttled below nominal by now";
  EXPECT_GT(resumed.dvs_transitions(), 0u);
}

}  // namespace
}  // namespace vlsip

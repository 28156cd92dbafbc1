// Tests for the workload layer: the kernel library (generated sources
// lower to correct programs, cluster sizing follows the datapath), the
// scenario-pack builders and spec parser, the arrival-tick submit path,
// and the serve-vs-replay byte-identity guarantee of the pack report.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ap/adaptive_processor.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/farm_config_builder.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/kernels.hpp"
#include "workload/runner.hpp"
#include "workload/scenario.hpp"

namespace vlsip::workload {
namespace {

// Mirrors the kernel library's fixed coefficient schedules so expected
// values are computed independently of the generated source text.
/// The farm a pack report is served on: the workload verb's defaults
/// (deterministic, one worker).
/// The pack report of one deterministic one-worker serve of `stream`.
StatusOr<std::string> run_pack(const JobStream& stream) {
  return pack_report(stream, serve(stream, runtime::FarmConfigBuilder()
                                               .deterministic()
                                               .workers(1)
                                               .build()));
}

std::int64_t dot_weight(int i) { return 1 + (i * 3) % 7; }
std::int64_t fir_coeff(int i) { return 1 + (i * 5) % 9; }

/// Lowers `spec`, configures the program on a fresh AP, feeds the
/// inputs, runs, and returns one named output's tokens.
std::vector<arch::Word> run_kernel(
    const KernelSpec& spec,
    const std::map<std::string, std::vector<std::int64_t>>& inputs,
    const std::string& output, std::size_t expected) {
  auto kernel = build_kernel(spec);
  EXPECT_TRUE(kernel.ok()) << kernel.status().to_string();
  ap::ApConfig cfg;
  cfg.capacity = 128;
  cfg.memory_blocks = 8;
  ap::AdaptiveProcessor ap(cfg);
  ap.configure(kernel->program);
  for (const auto& [name, values] : inputs) {
    for (const auto v : values) ap.feed(name, arch::make_word_i(v));
  }
  const auto exec = ap.run(expected, 200000);
  EXPECT_TRUE(exec.completed) << kernel->source;
  return ap.output(output);
}

TEST(Kernels, DotComputesWeightedSum) {
  const auto out = run_kernel({KernelKind::kDot, 4},
                              {{"x0", {3}}, {"x1", {-4}}, {"x2", {5}},
                               {"x3", {7}}},
                              "y", 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].i, 3 * dot_weight(0) - 4 * dot_weight(1) +
                          5 * dot_weight(2) + 7 * dot_weight(3));
}

TEST(Kernels, FirConvolvesDelayLine) {
  // y_t = sum_i c_i * x_{t-i}, delay line initialised to 0.
  const auto out =
      run_kernel({KernelKind::kFir, 3}, {{"x", {10, 20, 30}}}, "y", 3);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].i, 10 * fir_coeff(0));
  EXPECT_EQ(out[1].i, 20 * fir_coeff(0) + 10 * fir_coeff(1));
  EXPECT_EQ(out[2].i,
            30 * fir_coeff(0) + 20 * fir_coeff(1) + 10 * fir_coeff(2));
}

TEST(Kernels, GasTracksRunningMaxPerVertex) {
  // Each round gathers two edges, applies max(state, sum), scatters.
  const auto out = run_kernel({KernelKind::kGas, 1},
                              {{"e0a", {1, 5, 2}}, {"e0b", {2, 0, 1}}},
                              "s0", 3);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].i, 3);  // max(0, 1+2)
  EXPECT_EQ(out[1].i, 5);  // max(3, 5+0)
  EXPECT_EQ(out[2].i, 5);  // max(5, 2+1)
}

TEST(Kernels, ReduceSumsAllLeaves) {
  const auto out = run_kernel(
      {KernelKind::kReduce, 5},
      {{"x0", {1}}, {"x1", {2}}, {"x2", {3}}, {"x3", {4}}, {"x4", {5}}},
      "y", 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].i, 15);
}

TEST(Kernels, FilterPassesOnlyAboveThreshold) {
  // Threshold is the width; passing tokens map through 3x + 7.
  const auto out =
      run_kernel({KernelKind::kFilter, 3}, {{"x", {1, 5, 2, 9}}}, "y", 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].i, 5 * 3 + 7);
  EXPECT_EQ(out[1].i, 9 * 3 + 7);
}

TEST(Kernels, ClusterSizingFollowsDatapathWidth) {
  const auto capacity = static_cast<std::size_t>(16);
  EXPECT_EQ(clusters_for_objects(0), 1u);
  EXPECT_EQ(clusters_for_objects(1), 1u);
  EXPECT_EQ(clusters_for_objects(capacity), 1u);
  EXPECT_EQ(clusters_for_objects(capacity + 1), 2u);

  // The recommendation is exactly the program's own footprint, and it
  // grows with the datapath width.
  auto small = build_kernel({KernelKind::kDot, 2});
  auto large = build_kernel({KernelKind::kDot, 24});
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(small->recommended_clusters,
            clusters_for_objects(small->program.object_count()));
  EXPECT_EQ(large->recommended_clusters,
            clusters_for_objects(large->program.object_count()));
  EXPECT_GT(large->recommended_clusters, small->recommended_clusters);
}

TEST(Kernels, BadSpecsAreTypedErrors) {
  EXPECT_FALSE(build_kernel({KernelKind::kDot, 0}).ok());
  EXPECT_FALSE(build_kernel({static_cast<KernelKind>(99), 4}).ok());
  KernelKind kind;
  EXPECT_TRUE(kernel_kind_from_string("gas", &kind));
  EXPECT_EQ(kind, KernelKind::kGas);
  EXPECT_FALSE(kernel_kind_from_string("tensor", &kind));
}

TEST(Kernels, MakeJobDerivesExactFilterExpectations) {
  auto kernel = build_kernel({KernelKind::kFilter, 4});
  ASSERT_TRUE(kernel.ok());
  Xoshiro256 rng(7);
  const auto job = make_job(*kernel, 6, rng, "filter4#0");
  ASSERT_EQ(job.inputs.count("x"), 1u);
  std::size_t passes = 0;
  for (const auto& w : job.inputs.at("x")) {
    if (w.i > 4) ++passes;
  }
  EXPECT_GE(passes, 1u);
  EXPECT_EQ(job.expected_per_output, passes);
  EXPECT_EQ(job.requested_clusters, kernel->recommended_clusters);
}

TEST(Scenario, BuilderValidatesDeadConfigs) {
  EXPECT_FALSE(ScenarioPackBuilder().jobs(0).try_build().ok());
  EXPECT_FALSE(ScenarioPackBuilder().widths(8, 2).try_build().ok());
  EXPECT_FALSE(ScenarioPackBuilder().tokens(0, 4).try_build().ok());
  EXPECT_FALSE(ScenarioPackBuilder().churn(1.5).try_build().ok());
  EXPECT_FALSE(
      ScenarioPackBuilder().deadline_pressure(0.5, 0).try_build().ok());
  {
    // A mix with every weight zero can never draw a kernel.
    ScenarioPackBuilder builder;
    for (std::size_t k = 0; k < kKernelKinds; ++k) {
      builder.kernel_weight(static_cast<KernelKind>(k), 0);
    }
    EXPECT_FALSE(builder.try_build().ok());
  }
  const auto ok = ScenarioPackBuilder()
                      .name("t")
                      .seed(3)
                      .jobs(5)
                      .bursty(4, 300)
                      .churn(0.25)
                      .try_build();
  ASSERT_TRUE(ok.ok()) << ok.status().to_string();
  EXPECT_EQ(ok->arrival, ArrivalModel::kBursty);
}

TEST(Scenario, ParsePackSpecRoundTrip) {
  const std::string spec =
      "# demo\n"
      "name bursty-mix\n"
      "seed 7\n"
      "jobs 120\n"
      "arrival bursty gap=400 burst=6\n"
      "mix dot=3 fir=2 gas=1 reduce=2 filter=1\n"
      "width 4 12\n"
      "tokens 2 6\n"
      "deadline 25 200000\n"
      "churn 30\n"
      "energy on\n";
  const auto pack = parse_pack(spec);
  ASSERT_TRUE(pack.ok()) << pack.status().to_string();
  EXPECT_EQ(pack->name, "bursty-mix");
  EXPECT_EQ(pack->seed, 7u);
  EXPECT_EQ(pack->jobs, 120u);
  EXPECT_EQ(pack->arrival, ArrivalModel::kBursty);
  EXPECT_EQ(pack->mean_gap, 400u);
  EXPECT_EQ(pack->mean_burst, 6u);
  EXPECT_EQ(pack->mix[static_cast<std::size_t>(KernelKind::kDot)], 3u);
  EXPECT_EQ(pack->width_min, 4);
  EXPECT_EQ(pack->width_max, 12);
  EXPECT_DOUBLE_EQ(pack->deadline_pressure, 0.25);
  EXPECT_EQ(pack->deadline_allowance, 200000u);
  EXPECT_DOUBLE_EQ(pack->churn, 0.30);
  EXPECT_TRUE(pack->energy);
}

TEST(Scenario, ParseErrorsNameTheLine) {
  const auto pack = parse_pack("name ok\nbogus-key 12\n");
  ASSERT_FALSE(pack.ok());
  EXPECT_NE(pack.status().message().find("line 2"), std::string::npos)
      << pack.status().message();
}

TEST(Scenario, PresetsLoadAndUnknownRefsFail) {
  for (const char* name :
       {"steady", "bursty", "diurnal", "churn", "deadline", "mixed"}) {
    const auto pack = load_pack(std::string("@preset:") + name + ":9:12");
    ASSERT_TRUE(pack.ok()) << name << ": " << pack.status().to_string();
    EXPECT_EQ(pack->seed, 9u);
    EXPECT_EQ(pack->jobs, 12u);
  }
  EXPECT_FALSE(load_pack("@preset:nosuch").ok());
  EXPECT_FALSE(load_pack("/no/such/pack.spec").ok());
  // Every "@...:" field obeys one strict integer rule: digits only,
  // not empty, no more fields than the ref takes.
  for (const char* bad :
       {"@preset:steady:3x:4", "@preset:steady:", "@preset:steady:3:",
        "@preset:steady:-1", "@preset:steady:1:2:3", "@synthetic:3x:1y",
        "@synthetic:", "@synthetic:5:", "@synthetic:5:1:2", "@synthetic:+5",
        "@synthetic: 5"}) {
    const auto stream = load_jobs(bad);
    ASSERT_FALSE(stream.ok()) << bad;
    EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(Runner, LoadJobsResolvesEveryRefKind) {
  // @synthetic: and manifests arrive at tick 0 with no deadline.
  const auto synthetic = load_jobs("@synthetic:5:3");
  ASSERT_TRUE(synthetic.ok()) << synthetic.status().to_string();
  ASSERT_EQ(synthetic->jobs.size(), 5u);
  for (const TimedJob& timed : synthetic->jobs) {
    EXPECT_EQ(timed.arrival, 0u);
    EXPECT_EQ(timed.deadline, 0u);
  }
  // A preset keeps its pack timing; seed/jobs overrides apply to it.
  const auto preset = load_jobs("@preset:steady:3:4", false, 9, 6);
  ASSERT_TRUE(preset.ok()) << preset.status().to_string();
  EXPECT_EQ(preset->pack.seed, 9u);
  EXPECT_EQ(preset->jobs.size(), 6u);
  // A file is a manifest unless the caller reads files as pack specs.
  const auto missing = load_jobs("/no/such/jobs.txt");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  const auto missing_pack = load_jobs("/no/such/pack.spec", true);
  ASSERT_FALSE(missing_pack.ok());
  EXPECT_EQ(missing_pack.status().code(), StatusCode::kIoError);
  // is_pack_ref names exactly the refs the overrides apply to.
  EXPECT_TRUE(is_pack_ref("@preset:steady:3:4", false));
  EXPECT_TRUE(is_pack_ref("pack.spec", true));
  EXPECT_FALSE(is_pack_ref("jobs.txt", false));
  EXPECT_FALSE(is_pack_ref("@synthetic:5:3", true));
}

TEST(Scenario, SameSeedSameStreamDifferentSeedDiverges) {
  const auto pack =
      ScenarioPackBuilder().seed(11).jobs(16).bursty(3, 250).build();
  const auto a = JobStreamBuilder().pack(pack).build();
  const auto b = JobStreamBuilder().pack(pack).build();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].arrival, b.jobs[i].arrival);
    EXPECT_EQ(a.jobs[i].kernel, b.jobs[i].kernel);
    EXPECT_EQ(a.jobs[i].job.name, b.jobs[i].job.name);
  }
  const auto c = JobStreamBuilder().pack(pack).seed(12).build();
  bool diverged = false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    if (a.jobs[i].kernel != c.jobs[i].kernel ||
        a.jobs[i].arrival != c.jobs[i].arrival) {
      diverged = true;
      break;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(Runner, ArrivalTickDelaysServiceAndStampsQueuedAt) {
  runtime::FarmConfigBuilder cfg;
  cfg.deterministic().workers(1).keep_outcome_log(true);
  runtime::ChipFarm farm(cfg.build());
  auto kernel = build_kernel({KernelKind::kDot, 2});
  ASSERT_TRUE(kernel.ok());
  Xoshiro256 rng(3);
  runtime::SubmitOptions options;
  options.arrival_tick = 5000;
  const auto admission =
      farm.submit(make_job(*kernel, 2, rng, "late#0"), options);
  ASSERT_TRUE(admission.admitted);
  farm.drain();
  const auto log = farm.outcome_log();
  farm.shutdown();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].status, scaling::JobStatus::kCompleted);
  EXPECT_EQ(log[0].queued_at, 5000u);
  EXPECT_GE(log[0].started_at, 5000u);
}

TEST(Runner, StreamCodecRoundTrips) {
  const auto stream = JobStreamBuilder()
                          .pack(ScenarioPackBuilder()
                                    .seed(5)
                                    .jobs(8)
                                    .diurnal(4, 200)
                                    .deadline_pressure(0.5, 100000)
                                    .build())
                          .build();
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  save_stream(w, stream);
  snapshot::Reader r(snap);
  const auto back = restore_stream(r);
  ASSERT_EQ(back.jobs.size(), stream.jobs.size());
  EXPECT_EQ(back.pack.seed, stream.pack.seed);
  EXPECT_EQ(back.pack.arrival, stream.pack.arrival);
  for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
    EXPECT_EQ(back.jobs[i].arrival, stream.jobs[i].arrival);
    EXPECT_EQ(back.jobs[i].deadline, stream.jobs[i].deadline);
    EXPECT_EQ(back.jobs[i].kernel, stream.jobs[i].kernel);
    EXPECT_EQ(back.jobs[i].job.name, stream.jobs[i].job.name);
    EXPECT_EQ(back.jobs[i].job.inputs.size(),
              stream.jobs[i].job.inputs.size());
  }
}

TEST(Runner, ReportCarriesSchemaAndPerKernelSections) {
  const auto stream = JobStreamBuilder()
                          .pack(ScenarioPackBuilder()
                                    .name("schema")
                                    .seed(2)
                                    .jobs(6)
                                    .steady(100)
                                    .energy()
                                    .build())
                          .build();
  const auto report = run_pack(stream);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_NE(report->find("\"schema_version\""), std::string::npos);
  EXPECT_NE(report->find("\"report\":\"workload-pack\""), std::string::npos);
  EXPECT_NE(report->find("\"report_version\":1"), std::string::npos);
  EXPECT_NE(report->find("\"kernels\":["), std::string::npos);
  EXPECT_NE(report->find("\"energy_fj\""), std::string::npos);
  EXPECT_NE(report->find("\"p99\""), std::string::npos);
}

// The tentpole guarantee: for 20 seeds, serving a pack and replaying
// its snapshot-codec round-trip produce byte-identical reports, and a
// second serve of the same seed matches too.
TEST(Runner, TwentySeedDeterminismSweepServeVsReplay) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto stream = JobStreamBuilder()
                            .pack(ScenarioPackBuilder()
                                      .name("sweep")
                                      .seed(seed)
                                      .jobs(5)
                                      .bursty(3, 250)
                                      .churn(0.2)
                                      .deadline_pressure(0.2, 250000)
                                      .energy()
                                      .build())
                            .build();
    const auto serve1 = run_pack(stream);
    const auto serve2 = run_pack(stream);
    const auto restored = replay_stream(stream);
    ASSERT_TRUE(restored.ok()) << restored.status().to_string();
    const auto replay = run_pack(*restored);
    ASSERT_TRUE(serve1.ok()) << serve1.status().to_string();
    ASSERT_TRUE(serve2.ok()) << serve2.status().to_string();
    ASSERT_TRUE(replay.ok()) << replay.status().to_string();
    EXPECT_EQ(*serve1, *serve2);
    EXPECT_EQ(*serve1, *replay);
  }
}

TEST(Runner, DifferentSeedsProduceDifferentReports) {
  std::set<std::string> reports;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto stream =
        JobStreamBuilder()
            .pack(
                ScenarioPackBuilder().seed(seed).jobs(4).steady(150).build())
            .build();
    const auto report = run_pack(stream);
    ASSERT_TRUE(report.ok());
    reports.insert(*report);
  }
  EXPECT_GT(reports.size(), 1u);
}

TEST(Runner, EmptyStreamIsRejected) {
  JobStream stream;
  EXPECT_FALSE(run_pack(stream).ok());
}

}  // namespace
}  // namespace vlsip::workload

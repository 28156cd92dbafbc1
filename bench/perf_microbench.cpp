// Google-benchmark micro-suite: simulator throughput for the hot paths
// (CSD routing, stack shifts, pipeline configuration, dataflow execution,
// NoC stepping). These guard against performance regressions in the
// simulator itself; they make no paper claims.
#include <benchmark/benchmark.h>

#include "ap/adaptive_processor.hpp"
#include "arch/datapath.hpp"
#include "arch/dependency.hpp"
#include "common/activity_set.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "csd/handshake.hpp"
#include "lang/compiler.hpp"
#include "arch/optimizer.hpp"
#include "scaling/scaling_manager.hpp"
#include "csd/csd_simulator.hpp"
#include "csd/dynamic_csd.hpp"
#include "fault/fault_plan.hpp"
#include "noc/noc_fabric.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/manifest.hpp"
#include "topology/s_topology.hpp"

namespace {

using namespace vlsip;

void BM_CsdEstablishRelease(benchmark::State& state) {
  const auto n = static_cast<csd::Position>(state.range(0));
  csd::DynamicCsdNetwork net(csd::CsdConfig{n, n});
  Xoshiro256 rng(1);
  for (auto _ : state) {
    const auto a = static_cast<csd::Position>(rng.uniform(n));
    auto b = static_cast<csd::Position>(rng.uniform(n));
    if (a == b) b = (b + 1) % n;
    const auto r = net.establish(a, b);
    if (r) net.release(*r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CsdEstablishRelease)->Arg(64)->Arg(256)->Arg(1024);

void BM_CsdFunctionalRun(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  csd::FunctionalRunConfig cfg;
  cfg.n_objects = n;
  cfg.n_channels = n;
  cfg.n_elements = n;
  cfg.locality = 0.3;
  for (auto _ : state) {
    cfg.seed++;
    benchmark::DoNotOptimize(csd::run_functional_csd(cfg));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CsdFunctionalRun)->Arg(64)->Arg(256);

void BM_StackDistances(benchmark::State& state) {
  const auto stream = arch::random_config_stream(
      256, static_cast<std::size_t>(state.range(0)), 0.4, 9);
  const auto trace = stream.reference_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(arch::stack_distances(trace));
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_StackDistances)->Arg(1000)->Arg(10000);

void BM_PipelineConfigure(benchmark::State& state) {
  const auto program =
      arch::linear_pipeline_program(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ap::ApConfig cfg;
    cfg.capacity = 64;
    cfg.memory_blocks = 8;
    ap::AdaptiveProcessor ap(cfg);
    benchmark::DoNotOptimize(ap.configure(program));
  }
  state.SetItemsProcessed(state.iterations() * program.stream.size());
}
BENCHMARK(BM_PipelineConfigure)->Arg(8)->Arg(24);

void BM_DataflowExecution(benchmark::State& state) {
  const auto program =
      arch::linear_pipeline_program(static_cast<int>(state.range(0)));
  ap::ApConfig cfg;
  cfg.capacity = 128;
  cfg.memory_blocks = 8;
  ap::AdaptiveProcessor ap(cfg);
  ap.configure(program);
  std::uint64_t tokens = 0;
  for (auto _ : state) {
    ap.feed("in", arch::make_word_i(1));
    const auto r = ap.run(++tokens, 1u << 22);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DataflowExecution)->Arg(4)->Arg(16);

void BM_NocRandomTraffic(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  Xoshiro256 rng(3);
  for (auto _ : state) {
    noc::NocFabric fabric(side, side);
    for (int i = 0; i < side * side; ++i) {
      noc::Packet p;
      p.src_x = static_cast<std::uint16_t>(rng.uniform(side));
      p.src_y = static_cast<std::uint16_t>(rng.uniform(side));
      p.dst_x = static_cast<std::uint16_t>(rng.uniform(side));
      p.dst_y = static_cast<std::uint16_t>(rng.uniform(side));
      p.payload = {1, 2, 3};
      fabric.inject(p);
    }
    fabric.run_until_drained(1u << 20);
    benchmark::DoNotOptimize(fabric.latency_stats().count());
  }
  state.SetItemsProcessed(state.iterations() * side * side);
}
BENCHMARK(BM_NocRandomTraffic)->Arg(4)->Arg(8);

void BM_SerpentineFold(benchmark::State& state) {
  topology::STopologyFabric f(32, 32, topology::ClusterSpec{});
  for (auto _ : state) {
    std::size_t sum = 0;
    for (topology::ClusterId id = 0; id < f.cluster_count(); ++id) {
      sum += f.serpentine_index(id);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SerpentineFold);

void BM_HandshakeSimulation(benchmark::State& state) {
  for (auto _ : state) {
    csd::DynamicCsdNetwork net(csd::CsdConfig{64, 32});
    csd::HandshakeSimulator sim(net);
    for (csd::Position i = 0; i < 30; ++i) {
      sim.issue(i, static_cast<csd::Position>(63 - i));
    }
    sim.run_until_quiet(10000);
    benchmark::DoNotOptimize(sim.granted());
  }
  state.SetItemsProcessed(state.iterations() * 30);
}
BENCHMARK(BM_HandshakeSimulation);

void BM_LangCompile(benchmark::State& state) {
  const std::string source =
      "input x float\n"
      "rec y = 0.9 * delay(y, 0.0) + 0.1 * x\n"
      "a = y * y + 1.5\n"
      "b = a - y / 2.0\n"
      "output z = b * 3.0\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(lang::compile(source));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LangCompile);

void BM_StreamOptimizer(benchmark::State& state) {
  const auto stream = arch::random_config_stream(
      64, static_cast<std::size_t>(state.range(0)), 0.2, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(arch::optimize_stream_order(stream));
  }
  state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_StreamOptimizer)->Arg(64)->Arg(256);

void BM_Compaction(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    topology::STopologyFabric fabric(8, 8, topology::ClusterSpec{4, 4, 1});
    noc::NocFabric noc(8, 8);
    scaling::ScalingManager mgr(fabric, noc);
    std::vector<scaling::ProcId> procs;
    for (int i = 0; i < 16; ++i) procs.push_back(mgr.allocate(4));
    for (int i = 0; i < 16; i += 2) mgr.release(procs[i]);
    state.ResumeTiming();
    benchmark::DoNotOptimize(mgr.compact());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_Compaction);

void BM_FarmThroughput(benchmark::State& state) {
  // End-to-end farm service path: deterministic single-worker farm
  // serving a fixed synthetic manifest (fuse + configure + execute +
  // split per job).
  runtime::SyntheticSpec spec;
  spec.jobs = 16;
  spec.seed = 11;
  const auto jobs = runtime::synthetic_jobs(spec);
  for (auto _ : state) {
    runtime::FarmConfig cfg;
    cfg.deterministic = true;
    cfg.keep_outcome_log = false;
    runtime::ChipFarm farm(cfg);
    for (const auto& job : jobs) (void)farm.submit(job);
    farm.drain();
    benchmark::DoNotOptimize(farm.metrics().served());
    farm.shutdown();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_FarmThroughput);

void BM_ChaosFarmThroughput(benchmark::State& state) {
  // The same farm under a replayed fault plan with self-healing on:
  // covers fault classification, retries and chip replacement.
  runtime::SyntheticSpec spec;
  spec.jobs = 16;
  spec.seed = 11;
  const auto jobs = runtime::synthetic_jobs(spec);
  fault::FaultPlanSpec fs;
  fs.seed = 5;
  fs.events = 12;
  fs.horizon = spec.jobs;
  const auto plan = fault::random_fault_plan(fs);
  for (auto _ : state) {
    runtime::FarmConfig cfg;
    cfg.deterministic = true;
    cfg.keep_outcome_log = false;
    cfg.fault_tolerance.enabled = true;
    cfg.fault_tolerance.plan = plan;
    runtime::ChipFarm farm(cfg);
    for (const auto& job : jobs) (void)farm.submit(job);
    farm.drain();
    benchmark::DoNotOptimize(farm.metrics().served());
    farm.shutdown();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_ChaosFarmThroughput);

// ---- ActivitySet / SIMD scan family ---------------------------------------
//
// Scan regressions visible without a whole-chip run. Every benchmark
// comes in a scalar and a SIMD flavour via the runtime force-scalar
// switch (range(1): 0 = dispatched, 1 = forced scalar), and the drain
// benchmarks in a sparse and a dense occupancy flavour — the two ends
// the engine lives between.

/// Drains n-id sets with `active` members evenly spread. items/sec is
/// ids visited, so sparse and dense flavours are directly comparable.
void BM_ActivitySetDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto active = static_cast<std::size_t>(state.range(1));
  simd::set_force_scalar(state.range(2) != 0);
  ActivitySet set(n);
  const std::size_t stride = n / active;
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < active; ++i) {
      set.insert(static_cast<std::uint32_t>(i * stride));
    }
    state.ResumeTiming();
    std::uint64_t sum = 0;
    set.drain_in_order([&sum](std::uint32_t id) { sum += id; });
    benchmark::DoNotOptimize(sum);
  }
  simd::set_force_scalar(false);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(active));
}
// 65536 ids ≈ a 1024-cluster chip's object space. {sparse 16, dense
// 65536} x {simd, scalar}.
BENCHMARK(BM_ActivitySetDrain)
    ->Args({65536, 16, 0})
    ->Args({65536, 16, 1})
    ->Args({65536, 65536, 0})
    ->Args({65536, 65536, 1});

/// The raw summary-scan kernel: first hit at the end of a zero buffer.
void BM_SimdFirstNonzeroWord(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  simd::set_force_scalar(state.range(1) != 0);
  std::vector<std::uint64_t> words(n, 0);
  words.back() = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::first_nonzero_word(words.data(), n));
  }
  simd::set_force_scalar(false);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimdFirstNonzeroWord)->Args({1024, 0})->Args({1024, 1});

/// CSD priority-encoder span scan plus claim/release over a mostly-free
/// 1024-position channel array — the establish() hot path at Epiphany-V
/// geometry.
void BM_CsdSpanOccupancy(benchmark::State& state) {
  const auto n = static_cast<csd::Position>(state.range(0));
  csd::DynamicCsdNetwork net(csd::CsdConfig{n, 8});
  // One established route so the scan has structure to step around.
  (void)net.establish(0, static_cast<csd::Position>(n / 2));
  for (auto _ : state) {
    const auto r = net.establish(1, static_cast<csd::Position>(n - 1));
    if (r) net.release(*r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CsdSpanOccupancy)->Arg(1024);

void BM_ObjectSpaceChurn(benchmark::State& state) {
  ap::ObjectSpace space(64);
  Xoshiro256 rng(5);
  for (arch::ObjectId id = 0; id < 64; ++id) space.insert_top(id);
  for (auto _ : state) {
    const auto id = static_cast<arch::ObjectId>(rng.uniform(64));
    space.promote(id);
    benchmark::DoNotOptimize(space.position_of(id));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObjectSpaceChurn);

}  // namespace

// Parameterized property suites: invariants that must hold across wide
// parameter sweeps, not just hand-picked cases.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "ap/adaptive_processor.hpp"
#include "arch/datapath.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "arch/dependency.hpp"
#include "core/vlsi_processor.hpp"
#include "costmodel/energy.hpp"
#include "csd/csd_simulator.hpp"
#include "fault/fault_plan.hpp"
#include "noc/noc_fabric.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/manifest.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/s_topology.hpp"

namespace vlsip {
namespace {

// ---- Property: the configuration pipeline IS an LRU stack ---------------------
//
// The pipeline's hit/miss counts must match the Mattson stack-distance
// prediction for the same reference trace and capacity — the paper's
// §2.4 equivalence between stack distance and dependency distance.

struct LruParam {
  int capacity;
  std::uint32_t n_objects;
  double locality;
  std::uint64_t seed;
  int n_sources = 1;
  // gtest names each case after a hex dump of the object; this fills the
  // tail that would otherwise be padding, so the names do not vary.
  std::int32_t pad = 0;
};
static_assert(sizeof(LruParam) == 32);  // no padding left

class PipelineLruProperty : public ::testing::TestWithParam<LruParam> {};

TEST_P(PipelineLruProperty, HitsMatchMattson) {
  const auto param = GetParam();
  // Build a runnable program whose stream is the random workload: use
  // raw streams through pipeline components directly.
  const auto stream = arch::random_config_stream(
      param.n_objects, param.n_objects * 2, param.locality, param.seed,
      param.n_sources);

  arch::Program program;
  program.stream = stream;
  program.library.resize(param.n_objects);
  for (std::uint32_t i = 0; i < param.n_objects; ++i) {
    program.library[i].id = i;
    program.library[i].config.opcode = arch::Opcode::kBuff;
  }

  ap::ObjectSpace space(param.capacity);
  ap::Wsrf wsrf(1024);  // large: no retirement noise in this property
  ap::ObjectLibrary library(4);
  for (const auto& o : program.library) library.store(o);
  csd::DynamicCsdNetwork net(
      csd::CsdConfig{param.n_objects + 4,
                     static_cast<csd::ChannelId>(param.n_objects)});
  ap::ChainSet chains(net, space);
  ap::ReplacementScheduler scheduler;
  ap::ConfigurationPipeline pipeline(space, wsrf, library, chains,
                                     scheduler);

  const auto stats = pipeline.configure(program);

  const auto trace = stream.reference_trace();
  const auto distances = arch::stack_distances(trace);
  std::uint64_t expected_hits = 0;
  for (const auto d : distances) {
    if (d != arch::kColdDistance &&
        d <= static_cast<std::size_t>(param.capacity)) {
      ++expected_hits;
    }
  }
  EXPECT_EQ(stats.hits, expected_hits);
  EXPECT_EQ(stats.hits + stats.misses, trace.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineLruProperty,
    ::testing::Values(LruParam{4, 16, 0.0, 1}, LruParam{8, 16, 0.5, 2},
                      LruParam{16, 16, 0.9, 3}, LruParam{8, 32, 0.0, 4},
                      LruParam{16, 32, 0.3, 5}, LruParam{32, 32, 0.7, 6},
                      LruParam{16, 64, 0.0, 7}, LruParam{32, 64, 0.5, 8},
                      LruParam{12, 48, 0.2, 9}, LruParam{24, 48, 0.8, 10},
                      // Two-source model: triples of references per
                      // element, same LRU equivalence must hold.
                      LruParam{8, 32, 0.0, 11, 2},
                      LruParam{16, 32, 0.5, 12, 2},
                      LruParam{24, 64, 0.2, 13, 2}));

// ---- Property: fig. 3's channel bound ------------------------------------------

class ChannelBoundProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, double,
                                                 std::uint64_t>> {};

TEST_P(ChannelBoundProperty, HalfTheObjectsSuffice) {
  const auto [n, locality, seed] = GetParam();
  csd::FunctionalRunConfig cfg;
  cfg.n_objects = n;
  cfg.n_channels = n;
  cfg.n_elements = n;
  cfg.locality = locality;
  cfg.seed = seed;
  const auto r = csd::run_functional_csd(cfg);
  EXPECT_LE(r.peak_used_channels, n / 2)
      << "N=" << n << " locality=" << locality << " seed=" << seed;
  EXPECT_EQ(r.rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChannelBoundProperty,
    ::testing::Combine(::testing::Values(16u, 32u, 64u, 128u, 256u),
                       ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0),
                       ::testing::Values(11ull, 12ull)));

// ---- Property: serpentine folding stays adjacent --------------------------------

class SerpentineProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SerpentineProperty, ConsecutiveAreNeighbors) {
  const auto [w, h, layers] = GetParam();
  topology::STopologyFabric f(w, h, topology::ClusterSpec{}, layers);
  for (std::size_t i = 1; i < f.cluster_count(); ++i) {
    ASSERT_TRUE(f.are_neighbors(f.serpentine_at(i - 1), f.serpentine_at(i)))
        << w << "x" << h << "x" << layers << " at " << i;
  }
  // And it is a bijection.
  std::vector<bool> seen(f.cluster_count(), false);
  for (topology::ClusterId id = 0; id < f.cluster_count(); ++id) {
    const auto s = f.serpentine_index(id);
    ASSERT_LT(s, f.cluster_count());
    ASSERT_FALSE(seen[s]);
    seen[s] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerpentineProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 8),
                       ::testing::Values(1, 2, 5, 8),
                       ::testing::Values(1, 2)));

// ---- Property: NoC delivers everything, latency >= distance ----------------------

class NocDeliveryProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, int>> {
};

TEST_P(NocDeliveryProperty, RandomTrafficDrains) {
  const auto [size, seed, vcs] = GetParam();
  noc::RouterConfig rc;
  rc.virtual_channels = vcs;
  noc::NocFabric fabric(size, size, rc);
  std::vector<noc::Packet> delivered;
  fabric.set_on_deliver(
      [&delivered](const noc::Packet& p) { delivered.push_back(p); });
  Xoshiro256 rng(seed);
  const int packets = size * size * 2;
  for (int i = 0; i < packets; ++i) {
    noc::Packet p;
    p.src_x = static_cast<std::uint16_t>(rng.uniform(size));
    p.src_y = static_cast<std::uint16_t>(rng.uniform(size));
    p.dst_x = static_cast<std::uint16_t>(rng.uniform(size));
    p.dst_y = static_cast<std::uint16_t>(rng.uniform(size));
    const auto len = rng.uniform(4);
    for (std::uint64_t w = 0; w < len; ++w) p.payload.push_back(w);
    fabric.inject(p);
  }
  ASSERT_TRUE(fabric.run_until_drained(1000000));
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(packets));
  for (const auto& p : delivered) {
    EXPECT_GE(p.deliver_cycle - p.inject_cycle,
              static_cast<std::uint64_t>(p.hops()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NocDeliveryProperty,
    ::testing::Combine(::testing::Values(2, 4, 6),
                       ::testing::Values(21ull, 22ull, 23ull),
                       ::testing::Values(1, 2, 4)));

// ---- Property: virtual hardware is transparent ------------------------------------
//
// The same program computes the same result whatever the capacity, as
// long as scalar faults are allowed — only the cycle count changes.

class VirtualHwProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(VirtualHwProperty, ResultIndependentOfCapacity) {
  const auto [stages, capacity] = GetParam();
  const auto program = arch::linear_pipeline_program(stages);
  ap::ApConfig cfg;
  cfg.capacity = capacity;
  cfg.memory_blocks = 4;
  ap::AdaptiveProcessor ap(cfg);
  ap.configure(program);
  ap.feed("in", arch::make_word_i(7));
  const auto exec = ap.run(1, 2000000);
  ASSERT_TRUE(exec.completed)
      << "stages=" << stages << " capacity=" << capacity;

  // Reference: roomy capacity.
  ap::ApConfig big;
  big.capacity = 128;
  big.memory_blocks = 4;
  ap::AdaptiveProcessor ref(big);
  ref.configure(program);
  ref.feed("in", arch::make_word_i(7));
  ASSERT_TRUE(ref.run(1, 100000).completed);
  EXPECT_EQ(ap.output("out")[0].i, ref.output("out")[0].i);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VirtualHwProperty,
    ::testing::Combine(::testing::Values(2, 4, 6, 8),
                       ::testing::Values(5, 8, 12, 24)));

// ---- Property: dependency distance decides the needed capacity ---------------------

class CapacityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CapacityProperty, MinCapacityEliminatesWarmMisses) {
  const auto seed = GetParam();
  const auto stream = arch::random_config_stream(32, 64, 0.5, seed);
  const auto profile = arch::analyze_dependencies(stream);
  const auto trace = stream.reference_trace();
  // At the profile's minimum capacity, every warm reference hits.
  const double rate = arch::hit_rate(
      trace, profile.min_capacity_for_no_warm_miss);
  const double warm_fraction =
      1.0 - static_cast<double>(profile.cold_misses) /
                static_cast<double>(trace.size());
  EXPECT_NEAR(rate, warm_fraction, 1e-12);
  // One below (if possible) must miss at least once more.
  if (profile.min_capacity_for_no_warm_miss > 1) {
    EXPECT_LT(arch::hit_rate(trace,
                             profile.min_capacity_for_no_warm_miss - 1),
              warm_fraction);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CapacityProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808));

// ---- Property: chaos never loses a job ----------------------------------
//
// For any seeded fault plan — cluster kills, object defects, stuck
// switches, CSD segment cuts, memory poison, worker stalls and crashes
// — the self-healing farm accounts for every submitted job:
//
//     submitted == completed + failed + cancelled
//
// and every returned future is resolved (no kPending outcome ever
// escapes). 200 seeds, each a different plan over a small deterministic
// farm, so the sweep stays fast while covering every fault kind many
// times over.

class FaultPlanProperty : public ::testing::TestWithParam<int> {};

TEST_P(FaultPlanProperty, EveryJobAccountedForUnderChaos) {
  const int block = GetParam();
  // 8 blocks x 25 seeds = 200 plans.
  for (int i = 0; i < 25; ++i) {
    const std::uint64_t seed =
        static_cast<std::uint64_t>(block) * 1000 + i + 1;
    SCOPED_TRACE("plan seed " + std::to_string(seed));

    runtime::SyntheticSpec jobs_spec;
    jobs_spec.jobs = 6;
    jobs_spec.max_stages = 4;
    jobs_spec.tokens = 2;
    jobs_spec.seed = seed * 7 + 3;
    const auto jobs = runtime::synthetic_jobs(jobs_spec);

    fault::FaultPlanSpec plan_spec;
    plan_spec.seed = seed;
    plan_spec.events = 1 + (seed % 8);
    plan_spec.horizon = jobs.size();
    plan_spec.clusters = 64;
    plan_spec.w_worker_stall = 1.0;
    plan_spec.w_worker_crash = 0.5;
    plan_spec.max_stall = 128;

    runtime::FarmConfig cfg;
    cfg.deterministic = true;
    cfg.fault_tolerance.enabled = true;
    cfg.fault_tolerance.plan = fault::random_fault_plan(plan_spec);

    runtime::ChipFarm farm(cfg);
    std::vector<std::future<scaling::JobOutcome>> futures;
    for (const auto& job : jobs) {
      auto admission = farm.submit(job);
      ASSERT_TRUE(admission.admitted);
      futures.push_back(std::move(admission.outcome));
    }
    farm.drain();
    const auto m = farm.metrics();
    farm.shutdown();

    const std::uint64_t failed =
        m.deadlocked + m.timed_out + m.no_allocation + m.errors;
    EXPECT_EQ(m.submitted, jobs.size());
    EXPECT_EQ(m.submitted, m.completed + failed + m.cancelled + m.rejected);
    for (auto& future : futures) {
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      EXPECT_NE(future.get().status, scaling::JobStatus::kPending);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FaultPlanProperty, ::testing::Range(0, 8));

// ---- Property: the event-driven cycle engine is bit-identical to dense --------
//
// The executor's quiescence-skipping activity-set engine must be
// indistinguishable from the dense every-object-every-cycle reference
// scan: identical outputs, identical cycle-exact statistics (including
// idle-cycle accounting across skipped spans), and an identical trace.
// The sweep covers roomy and starved object spaces (the latter forces
// virtual-hardware faults, CFB contention and evictions onto the skip
// paths) and a deadlock case.

struct DiffDag {
  arch::Program program;
  std::size_t n_inputs = 0;
  std::size_t n_outputs = 0;
};

DiffDag make_diff_dag(std::uint64_t seed) {
  const arch::Opcode ops[] = {
      arch::Opcode::kIAdd, arch::Opcode::kISub, arch::Opcode::kIMul,
      arch::Opcode::kIDiv, arch::Opcode::kIRem, arch::Opcode::kIShl,
      arch::Opcode::kIShr, arch::Opcode::kIAnd, arch::Opcode::kIOr,
      arch::Opcode::kIXor, arch::Opcode::kCmpGt, arch::Opcode::kCmpLt,
      arch::Opcode::kCmpEq,
  };
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  DiffDag dag;
  arch::DatapathBuilder b;
  std::vector<arch::ObjectId> ids;
  dag.n_inputs = 1 + rng.uniform(3);
  for (std::size_t i = 0; i < dag.n_inputs; ++i) {
    ids.push_back(b.input("in" + std::to_string(i)));
  }
  const std::size_t n_consts = 1 + rng.uniform(3);
  for (std::size_t i = 0; i < n_consts; ++i) {
    ids.push_back(b.constant_i(rng.uniform_range(-9, 9)));
  }
  const std::size_t n_ops = 4 + rng.uniform(24);
  for (std::size_t i = 0; i < n_ops; ++i) {
    const auto op = ops[rng.uniform(std::size(ops))];
    const auto lhs = static_cast<std::size_t>(rng.uniform(ids.size()));
    const auto rhs = static_cast<std::size_t>(rng.uniform(ids.size()));
    ids.push_back(b.op(op, ids[lhs], ids[rhs]));
  }
  dag.n_outputs = 1 + rng.uniform(3);
  for (std::size_t i = 0; i < dag.n_outputs; ++i) {
    b.output("out" + std::to_string(i),
             ids[dag.n_inputs + n_consts + rng.uniform(n_ops)]);
  }
  dag.program = std::move(b).build();
  return dag;
}

struct DiffRun {
  ap::ExecStats exec;
  /// Lifetime energy-activity fold of the AP after the run — the third
  /// identity axis: derived purely from serialized counters, so it must
  /// be bit-identical across engines and across checkpoint/resume.
  cost::EnergyActivity energy;
  std::map<std::string, std::vector<std::int64_t>> outputs;
  std::vector<obs::TraceSink::Event> trace;
};

void expect_energy_identical(const cost::EnergyActivity& a,
                             const cost::EnergyActivity& b,
                             std::uint64_t seed) {
  for (std::size_t c = 0; c < cost::kEnergyClassCount; ++c) {
    EXPECT_EQ(a.units[c], b.units[c])
        << "seed " << seed << " energy class " << cost::energy_class_name(c);
  }
}

DiffRun run_engine(const DiffDag& dag, std::uint64_t seed, bool event,
                   int capacity, std::size_t waves,
                   std::size_t starve_inputs, int edge_capacity = 2) {
  ap::ApConfig cfg;
  cfg.capacity = capacity;
  cfg.memory_blocks = 4;
  cfg.enable_trace = true;
  cfg.exec.event_driven = event;
  cfg.exec.edge_capacity = edge_capacity;
  cfg.exec.deadlock_window = 600;
  ap::AdaptiveProcessor ap(cfg);
  ap.configure(dag.program);
  Xoshiro256 rng(seed ^ 0xFEEDFACEull);
  for (std::size_t w = 0; w < waves; ++w) {
    for (std::size_t i = 0; i < dag.n_inputs; ++i) {
      const auto v = rng.uniform_range(-100, 100);
      // Starving an input of its last wave(s) forces a deadlock that
      // both engines must diagnose identically.
      if (i == 0 && w >= waves - starve_inputs) continue;
      ap.feed("in" + std::to_string(i), arch::make_word_i(v));
    }
  }
  DiffRun run;
  run.exec = ap.run(waves, 2000000);
  ap.fold_energy(run.energy);
  for (std::size_t o = 0; o < dag.n_outputs; ++o) {
    const auto name = "out" + std::to_string(o);
    for (const auto& w : ap.output(name)) run.outputs[name].push_back(w.i);
  }
  for (const auto& e : ap.trace().entries()) run.trace.push_back(e);
  return run;
}

void expect_identical(const DiffRun& dense, const DiffRun& event,
                      std::uint64_t seed) {
  EXPECT_EQ(dense.exec.cycles, event.exec.cycles) << "seed " << seed;
  EXPECT_EQ(dense.exec.firings, event.exec.firings) << "seed " << seed;
  EXPECT_EQ(dense.exec.tokens_moved, event.exec.tokens_moved)
      << "seed " << seed;
  EXPECT_EQ(dense.exec.int_ops, event.exec.int_ops) << "seed " << seed;
  EXPECT_EQ(dense.exec.float_ops, event.exec.float_ops) << "seed " << seed;
  EXPECT_EQ(dense.exec.mem_ops, event.exec.mem_ops) << "seed " << seed;
  EXPECT_EQ(dense.exec.transport_ops, event.exec.transport_ops)
      << "seed " << seed;
  EXPECT_EQ(dense.exec.faults, event.exec.faults) << "seed " << seed;
  EXPECT_EQ(dense.exec.fault_cycles, event.exec.fault_cycles)
      << "seed " << seed;
  EXPECT_EQ(dense.exec.release_tokens, event.exec.release_tokens)
      << "seed " << seed;
  EXPECT_EQ(dense.exec.idle_cycles, event.exec.idle_cycles)
      << "seed " << seed;
  EXPECT_EQ(dense.exec.deadlocked, event.exec.deadlocked) << "seed " << seed;
  EXPECT_EQ(dense.exec.completed, event.exec.completed) << "seed " << seed;
  EXPECT_EQ(dense.exec.blocked_report, event.exec.blocked_report)
      << "seed " << seed;
  expect_energy_identical(dense.energy, event.energy, seed);
  EXPECT_EQ(dense.outputs, event.outputs) << "seed " << seed;
  ASSERT_EQ(dense.trace.size(), event.trace.size()) << "seed " << seed;
  for (std::size_t i = 0; i < dense.trace.size(); ++i) {
    EXPECT_EQ(dense.trace[i].cycle, event.trace[i].cycle)
        << "seed " << seed << " entry " << i;
    EXPECT_EQ(dense.trace[i].category, event.trace[i].category)
        << "seed " << seed << " entry " << i;
    EXPECT_EQ(dense.trace[i].message, event.trace[i].message)
        << "seed " << seed << " entry " << i;
  }
}

class EventEngineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EventEngineEquivalence, BitIdenticalToDenseScan) {
  // 10 GTest shards x 10 seeds = the 100-seed sweep, parallel under
  // ctest -j without one monolithic slow test.
  const int shard = GetParam();
  for (int s = 0; s < 10; ++s) {
    const std::uint64_t seed = static_cast<std::uint64_t>(shard) * 10 + s + 1;
    const auto dag = make_diff_dag(seed);
    // Roomy space on even seeds; a starved 6-slot space on odd seeds
    // keeps the virtual-hardware fault machinery on the hot path.
    const int capacity = (seed % 2 == 0) ? 64 : 6;
    // Every 7th seed starves input 0 of its final wave -> deadlock.
    const std::size_t starve = (seed % 7 == 0) ? 1 : 0;
    const std::size_t waves = 3;
    const auto dense =
        run_engine(dag, seed, false, capacity, waves, starve);
    const auto event =
        run_engine(dag, seed, true, capacity, waves, starve);
    // Starved runs deadlock iff some output depends on in0; either way
    // both engines must agree exactly.
    if (starve == 0) {
      EXPECT_TRUE(dense.exec.completed) << "seed " << seed;
    }
    expect_identical(dense, event, seed);
    // Third axis: the event engine with every SIMD kernel routed to its
    // scalar reference. Dense-vs-event proves the activity tracking is
    // sound; this proves the vector kernels inside it are exact.
    simd::set_force_scalar(true);
    const auto event_scalar =
        run_engine(dag, seed, true, capacity, waves, starve);
    simd::set_force_scalar(false);
    expect_identical(event, event_scalar, seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep100, EventEngineEquivalence,
                         ::testing::Range(0, 10));

TEST(EventEngineEquivalenceTest, DeadlockDiagnosisIdentical) {
  // A guaranteed deadlock: out = in0 + in1 with in1 starved of its
  // second wave. The event engine must skip straight to the deadlock
  // horizon yet report the same cycle count and blocked-object report
  // as the dense scan that idled through every cycle.
  arch::DatapathBuilder b;
  const auto a = b.input("in0");
  const auto c = b.input("in1");
  b.output("out0", b.op(arch::Opcode::kIAdd, a, c));
  DiffDag dag;
  dag.program = std::move(b).build();
  dag.n_inputs = 2;
  dag.n_outputs = 1;

  auto run = [&](bool event) {
    ap::ApConfig cfg;
    cfg.memory_blocks = 4;
    cfg.enable_trace = true;
    cfg.exec.event_driven = event;
    cfg.exec.deadlock_window = 600;
    ap::AdaptiveProcessor ap(cfg);
    ap.configure(dag.program);
    ap.feed("in0", arch::make_word_i(2));
    ap.feed("in0", arch::make_word_i(3));
    ap.feed("in1", arch::make_word_i(5));  // second wave never arrives
    DiffRun r;
    r.exec = ap.run(2, 2000000);
    for (const auto& w : ap.output("out0")) r.outputs["out0"].push_back(w.i);
    for (const auto& e : ap.trace().entries()) r.trace.push_back(e);
    return r;
  };
  const auto dense = run(false);
  const auto event = run(true);
  EXPECT_TRUE(dense.exec.deadlocked);
  EXPECT_FALSE(dense.exec.blocked_report.empty());
  expect_identical(dense, event, 0);
}

// ---- Golden: executor timing is pinned, not only engine-vs-engine ------------
//
// The dense and event engines share one fire path, so the wall above
// cannot see a change to it. This test pins every ExecStats count of the
// event engine, plus digests of the outputs, the blocked report and the
// trace, over the same 100 DAGs in a roomy (64) and a starved (6) object
// space at edge capacities 1, 2 and 3, against tests/golden/
// exec_stats.txt. Any moved count fails; on a mismatch the produced
// table is written to exec_stats_actual.txt in the working directory.

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return fnv1a(h, bytes.size());
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

std::string exec_stats_line(std::uint64_t seed, int capacity, int ec,
                            const DiffRun& run) {
  const auto& x = run.exec;
  std::uint64_t blocked = kFnvBasis;
  for (const auto& line : x.blocked_report) blocked = fnv1a(blocked, line);
  std::uint64_t outputs = kFnvBasis;
  for (const auto& [name, values] : run.outputs) {
    outputs = fnv1a(outputs, name);
    for (const auto v : values) {
      outputs = fnv1a(outputs, static_cast<std::uint64_t>(v));
    }
    outputs = fnv1a(outputs, values.size());
  }
  std::uint64_t trace = kFnvBasis;
  for (const auto& e : run.trace) {
    trace = fnv1a(fnv1a(fnv1a(trace, e.cycle), e.category), e.message);
  }
  std::ostringstream out;
  out << "seed=" << seed << " cap=" << capacity << " ec=" << ec
      << " cycles=" << x.cycles << " firings=" << x.firings
      << " tokens=" << x.tokens_moved << " int=" << x.int_ops
      << " float=" << x.float_ops << " mem=" << x.mem_ops
      << " transport=" << x.transport_ops << " faults=" << x.faults
      << " fault_cycles=" << x.fault_cycles
      << " release=" << x.release_tokens << " idle=" << x.idle_cycles
      << " wakes=" << x.wakes << " skips=" << x.quiescence_skips
      << " deadlocked=" << x.deadlocked << " completed=" << x.completed
      << std::hex << " blocked=" << blocked << " outputs=" << outputs
      << " trace=" << trace << std::dec << "\n";
  return out.str();
}

TEST(ExecStatsGolden, EventEngineCountsMatchRecorded) {
  std::string actual;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const auto dag = make_diff_dag(seed);
    const std::size_t starve = (seed % 7 == 0) ? 1 : 0;
    for (const int capacity : {6, 64}) {
      for (const int ec : {1, 2, 3}) {
        const auto run =
            run_engine(dag, seed, true, capacity, 3, starve, ec);
        actual += exec_stats_line(seed, capacity, ec, run);
      }
    }
  }
  std::ifstream in(std::string(VLSIP_GOLDEN_DIR) + "/exec_stats.txt",
                   std::ios::binary);
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_FALSE(golden.str().empty()) << "missing golden file exec_stats.txt";
  if (actual != golden.str()) {
    std::ofstream("exec_stats_actual.txt", std::ios::binary) << actual;
    std::istringstream want(golden.str());
    std::istringstream got(actual);
    std::string w;
    std::string g;
    int shown = 0;
    while (std::getline(want, w) && std::getline(got, g) && shown < 5) {
      if (w != g) {
        ADD_FAILURE() << "expected " << w << "\n     got " << g;
        ++shown;
      }
    }
    ADD_FAILURE() << "exec stats differ from tests/golden/exec_stats.txt; "
                     "actual table written to exec_stats_actual.txt";
  }
}

// ---- Property: checkpoint/restore is invisible to the simulation --------------
//
// run-N -> save -> restore into a brand-new AP -> continue must be
// bit-identical to the uninterrupted run: same outputs, same
// cycle-exact statistics. The sweep reuses the differential DAGs above
// in both a roomy space (plain) and a starved 6-slot space (the chaos
// half: virtual-hardware faults, CFB contention and evictions are all
// live across the save/restore boundary). wakes/quiescence_skips are
// call-local bookkeeping of the event engine's wake queue and are the
// one pair excluded, as in the dense/event equivalence above.

void fold_exec(ap::ExecStats& total, const ap::ExecStats& seg) {
  total.cycles += seg.cycles;
  total.firings += seg.firings;
  total.tokens_moved += seg.tokens_moved;
  total.int_ops += seg.int_ops;
  total.float_ops += seg.float_ops;
  total.mem_ops += seg.mem_ops;
  total.transport_ops += seg.transport_ops;
  total.faults += seg.faults;
  total.fault_cycles += seg.fault_cycles;
  total.release_tokens += seg.release_tokens;
  total.idle_cycles += seg.idle_cycles;
  total.completed = seg.completed;
  total.deadlocked = seg.deadlocked;
  total.blocked_report = seg.blocked_report;
}

ap::ApConfig checkpoint_cfg(int capacity) {
  ap::ApConfig cfg;
  cfg.capacity = capacity;
  cfg.memory_blocks = 4;
  return cfg;
}

// Runs the dag like run_engine() does, but interrupted every `segment`
// cycles: save, restore into a freshly-constructed AP, continue there.
// segment == 0 is the uninterrupted baseline on the identical config.
DiffRun run_engine_checkpointed(const DiffDag& dag, std::uint64_t seed,
                                int capacity, std::size_t waves,
                                std::uint64_t segment) {
  const auto cfg = checkpoint_cfg(capacity);
  auto ap = std::make_unique<ap::AdaptiveProcessor>(cfg);
  ap->configure(dag.program);
  Xoshiro256 rng(seed ^ 0xFEEDFACEull);
  for (std::size_t w = 0; w < waves; ++w) {
    for (std::size_t i = 0; i < dag.n_inputs; ++i) {
      const auto v = rng.uniform_range(-100, 100);
      ap->feed("in" + std::to_string(i), arch::make_word_i(v));
    }
  }
  DiffRun run;
  std::uint64_t budget = 2000000;
  for (;;) {
    const std::uint64_t slice =
        segment == 0 ? budget : std::min<std::uint64_t>(budget, segment);
    const auto seg = ap->run(waves, slice);
    fold_exec(run.exec, seg);
    budget -= std::min(budget, seg.cycles);
    if (seg.completed || seg.deadlocked || budget == 0 || seg.cycles == 0) {
      break;
    }
    snapshot::Snapshot snap;
    {
      snapshot::Writer w(snap);
      ap->save(w);
    }
    // Saving twice from the same state must give the same bytes.
    snapshot::Snapshot again;
    {
      snapshot::Writer w(again);
      ap->save(w);
    }
    EXPECT_EQ(snap.bytes(), again.bytes()) << "seed " << seed;
    ap = std::make_unique<ap::AdaptiveProcessor>(cfg);
    snapshot::Reader r(snap);
    ap->restore(r);
  }
  // The AP's lifetime counters ride the snapshot, so the final fold
  // sees the whole run regardless of how many round trips chopped it.
  ap->fold_energy(run.energy);
  for (std::size_t o = 0; o < dag.n_outputs; ++o) {
    const auto name = "out" + std::to_string(o);
    for (const auto& w : ap->output(name)) run.outputs[name].push_back(w.i);
  }
  return run;
}

class CheckpointEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointEquivalence, RestoredRunIsBitIdentical) {
  // 10 shards x 10 seeds = the 100-seed sweep. Even seeds run roomy
  // (plain); odd seeds run starved (faults active over the boundary).
  const int shard = GetParam();
  for (int s = 0; s < 10; ++s) {
    const std::uint64_t seed = static_cast<std::uint64_t>(shard) * 10 + s + 1;
    const auto dag = make_diff_dag(seed);
    const int capacity = (seed % 2 == 0) ? 64 : 6;
    const std::size_t waves = 3;
    const auto plain =
        run_engine_checkpointed(dag, seed, capacity, waves, 0);
    // A short prime segment forces many save/restore round trips per
    // run, cutting through every phase of execution.
    const auto chopped =
        run_engine_checkpointed(dag, seed, capacity, waves, 7);
    ASSERT_TRUE(plain.exec.completed) << "seed " << seed;
    EXPECT_EQ(plain.exec.completed, chopped.exec.completed)
        << "seed " << seed;
    EXPECT_EQ(plain.exec.cycles, chopped.exec.cycles) << "seed " << seed;
    EXPECT_EQ(plain.exec.firings, chopped.exec.firings) << "seed " << seed;
    EXPECT_EQ(plain.exec.tokens_moved, chopped.exec.tokens_moved)
        << "seed " << seed;
    EXPECT_EQ(plain.exec.int_ops, chopped.exec.int_ops) << "seed " << seed;
    EXPECT_EQ(plain.exec.float_ops, chopped.exec.float_ops)
        << "seed " << seed;
    EXPECT_EQ(plain.exec.mem_ops, chopped.exec.mem_ops) << "seed " << seed;
    EXPECT_EQ(plain.exec.transport_ops, chopped.exec.transport_ops)
        << "seed " << seed;
    EXPECT_EQ(plain.exec.faults, chopped.exec.faults) << "seed " << seed;
    EXPECT_EQ(plain.exec.fault_cycles, chopped.exec.fault_cycles)
        << "seed " << seed;
    EXPECT_EQ(plain.exec.release_tokens, chopped.exec.release_tokens)
        << "seed " << seed;
    EXPECT_EQ(plain.exec.idle_cycles, chopped.exec.idle_cycles)
        << "seed " << seed;
    EXPECT_EQ(plain.exec.deadlocked, chopped.exec.deadlocked)
        << "seed " << seed;
    expect_energy_identical(plain.energy, chopped.energy, seed);
    EXPECT_EQ(plain.outputs, chopped.outputs) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep100, CheckpointEquivalence,
                         ::testing::Range(0, 10));

// ---- Property: whole-chip checkpoints are invisible ---------------------------
//
// At every boundary of a seeded mutation run, a fresh chip restored
// from save(chip) re-saves to the same bytes, and a chip restored from
// the last boundary continues exactly like the uninterrupted one under
// the same fuse/release/heal stream. 100 seeds in 10 shards; seed % 3
// == 0 runs fault-active (cluster quarantines through heal()), odd
// seeds run a starved 2x2 chip where fuses fail.

core::ChipConfig sweep_chip_config(std::uint64_t seed) {
  core::ChipConfig cfg;
  if (seed % 2 == 1) {
    cfg.width = 2;
    cfg.height = 2;
  } else {
    cfg.width = 4;
    cfg.height = 4;
  }
  return cfg;
}

// One seeded mutation step; identical streams drive identical chips.
void sweep_mutate(core::VlsiProcessor& chip, Xoshiro256& rng,
                  std::vector<scaling::ProcId>& live, bool fault_active) {
  const auto roll = rng.uniform(4);
  if (roll == 0 && !live.empty()) {
    const auto at = static_cast<std::size_t>(rng.uniform(live.size()));
    chip.release(live[at]);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
  } else if (roll == 1 && fault_active) {
    const auto cluster = static_cast<topology::ClusterId>(
        rng.uniform(chip.total_clusters()));
    const auto recovery = chip.heal(cluster);
    // Track the replacement; drop the victim if it was one of ours.
    if (recovery.victim != scaling::kNoProc) {
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i] == recovery.victim) {
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
    if (recovery.replacement != scaling::kNoProc) {
      live.push_back(recovery.replacement);
    }
  } else {
    const auto proc = chip.fuse(1 + rng.uniform(3));
    if (proc != scaling::kNoProc) live.push_back(proc);
  }
}

class ChipCheckpointProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChipCheckpointProperty, RestoreResavesAndContinuesIdentically) {
  const int shard = GetParam();
  for (int s = 0; s < 10; ++s) {
    const std::uint64_t seed = static_cast<std::uint64_t>(shard) * 10 + s + 1;
    SCOPED_TRACE("checkpoint seed " + std::to_string(seed));
    const bool fault_active = (seed % 3 == 0);
    const auto cfg = sweep_chip_config(seed);

    core::VlsiProcessor chip(cfg);
    std::vector<scaling::ProcId> live;
    Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 17);
    snapshot::Snapshot full;

    for (int round = 0; round < 6; ++round) {
      sweep_mutate(chip, rng, live, fault_active);

      // Invariant 1: restore(save(chip)) re-saves to the same bytes.
      ASSERT_TRUE(chip.save(full).ok());
      core::VlsiProcessor restored(cfg);
      ASSERT_TRUE(restored.restore(full).ok()) << "round " << round;
      snapshot::Snapshot resaved;
      ASSERT_TRUE(restored.save(resaved).ok());
      ASSERT_EQ(resaved.bytes(), full.bytes()) << "round " << round;

      // Invariant 2: the container reads as the current version.
      snapshot::Reader r(full);
      ASSERT_EQ(r.version(), snapshot::kVersion);
    }

    // Invariant 3: a chip restored from the last boundary and the
    // uninterrupted chip stay byte-identical under three more rounds of
    // the same mutation stream.
    core::VlsiProcessor resumed(cfg);
    ASSERT_TRUE(resumed.restore(full).ok());
    std::vector<scaling::ProcId> resumed_live = live;
    Xoshiro256 rng_a = rng;
    Xoshiro256 rng_b = rng;
    for (int round = 0; round < 3; ++round) {
      sweep_mutate(chip, rng_a, live, fault_active);
      sweep_mutate(resumed, rng_b, resumed_live, fault_active);
      snapshot::Snapshot a;
      snapshot::Snapshot b;
      ASSERT_TRUE(chip.save(a).ok());
      ASSERT_TRUE(resumed.save(b).ok());
      ASSERT_EQ(a.bytes(), b.bytes()) << "post-restore round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep100, ChipCheckpointProperty,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace vlsip

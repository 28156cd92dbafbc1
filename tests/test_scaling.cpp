// Tests for the processor state machine (fig. 6 e) and the scaling
// manager (fuse/split, wormhole configuration, IPC, defect tolerance).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "live_table.hpp"
#include "costmodel/energy.hpp"
#include "obs/metrics.hpp"
#include "snapshot/snapshot.hpp"
#include "noc/noc_fabric.hpp"
#include "scaling/scaling_manager.hpp"
#include "scaling/state_machine.hpp"
#include "topology/s_topology.hpp"

namespace vlsip::scaling {
namespace {

// ---- State machine ------------------------------------------------------------

TEST(Fsm, LifecycleHappyPath) {
  ProcessorStateMachine m;
  EXPECT_EQ(m.state(), ProcState::kRelease);
  m.allocate();
  EXPECT_EQ(m.state(), ProcState::kInactive);
  EXPECT_TRUE(m.accepts_external_writes());
  m.activate();
  EXPECT_EQ(m.state(), ProcState::kActive);
  EXPECT_TRUE(m.read_protected());
  EXPECT_TRUE(m.write_protected());
  EXPECT_FALSE(m.accepts_external_writes());
  m.deactivate();
  EXPECT_EQ(m.state(), ProcState::kInactive);
  EXPECT_FALSE(m.read_protected());
  m.release();
  EXPECT_EQ(m.state(), ProcState::kRelease);
}

TEST(Fsm, SleepWithTimer) {
  ProcessorStateMachine m;
  m.allocate();
  m.activate();
  m.sleep(100);
  EXPECT_EQ(m.state(), ProcState::kSleep);
  EXPECT_TRUE(m.read_protected());  // still protected while sleeping
  EXPECT_FALSE(m.timer_expired(99));
  EXPECT_TRUE(m.timer_expired(100));
  m.wake();
  EXPECT_EQ(m.state(), ProcState::kActive);
  EXPECT_FALSE(m.wake_at().has_value());
}

TEST(Fsm, SleepWaitingForEventHasNoTimer) {
  ProcessorStateMachine m;
  m.allocate();
  m.activate();
  m.sleep(std::nullopt);
  EXPECT_FALSE(m.timer_expired(1u << 30));
  m.wake();
  EXPECT_EQ(m.state(), ProcState::kActive);
}

TEST(Fsm, IllegalTransitionsThrow) {
  ProcessorStateMachine m;
  EXPECT_THROW(m.activate(), vlsip::PreconditionError);
  EXPECT_THROW(m.release(), vlsip::PreconditionError);
  m.allocate();
  EXPECT_THROW(m.allocate(), vlsip::PreconditionError);
  EXPECT_THROW(m.deactivate(), vlsip::PreconditionError);
  EXPECT_THROW(m.sleep(5), vlsip::PreconditionError);
  EXPECT_THROW(m.wake(), vlsip::PreconditionError);
  m.activate();
  m.sleep(std::nullopt);
  EXPECT_THROW(m.release(), vlsip::PreconditionError);  // not from sleep
}

TEST(Fsm, ReleaseFromActiveForDefects) {
  ProcessorStateMachine m;
  m.allocate();
  m.activate();
  m.release();  // allowed: defect removal
  EXPECT_EQ(m.state(), ProcState::kRelease);
}

TEST(Fsm, StateNames) {
  EXPECT_STREQ(state_name(ProcState::kRelease), "release");
  EXPECT_STREQ(state_name(ProcState::kSleep), "sleep");
}

// ---- ScalingManager ------------------------------------------------------------

struct ManagerFixture : ::testing::Test {
  ManagerFixture()
      : fabric(4, 4, topology::ClusterSpec{4, 4, 1}),
        noc(4, 4),
        mgr(fabric, noc, make_config()) {}

  static ScalingConfig make_config() {
    ScalingConfig c;
    c.ap_template.memory_blocks = 4;
    return c;
  }

  topology::STopologyFabric fabric;
  noc::NocFabric noc;
  ScalingManager mgr;
};

TEST_F(ManagerFixture, AllocateFusesClusters) {
  const auto p = mgr.allocate(4);
  ASSERT_NE(p, kNoProc);
  EXPECT_EQ(mgr.state(p), ProcState::kInactive);
  EXPECT_EQ(mgr.cluster_count(p), 4u);
  EXPECT_EQ(mgr.free_clusters(), 12u);
  // Capacity = clusters x per-cluster stack.
  EXPECT_EQ(mgr.processor(p).capacity(), 16);
  EXPECT_GT(mgr.stats().config_packets, 0u);
  EXPECT_GT(mgr.stats().config_cycles, 0u);
}

TEST_F(ManagerFixture, AllocationsDoNotOverlap) {
  const auto a = mgr.allocate(8);
  const auto b = mgr.allocate(8);
  ASSERT_NE(a, kNoProc);
  ASSERT_NE(b, kNoProc);
  EXPECT_EQ(mgr.free_clusters(), 0u);
  EXPECT_EQ(mgr.allocate(1), kNoProc);  // chip is full
}

TEST_F(ManagerFixture, UpscaleExtendsCapacity) {
  const auto p = mgr.allocate(2);
  ASSERT_NE(p, kNoProc);
  ASSERT_TRUE(mgr.upscale(p, 2));
  EXPECT_EQ(mgr.cluster_count(p), 4u);
  EXPECT_EQ(mgr.processor(p).capacity(), 16);
  EXPECT_EQ(mgr.stats().upscales, 1u);
}

TEST_F(ManagerFixture, UpscaleRequiresInactive) {
  const auto p = mgr.allocate(2);
  mgr.activate(p);
  EXPECT_THROW(mgr.upscale(p, 1), vlsip::PreconditionError);
}

TEST_F(ManagerFixture, DownscaleFreesClusters) {
  const auto p = mgr.allocate(4);
  mgr.downscale(p, 1);
  EXPECT_EQ(mgr.cluster_count(p), 1u);
  EXPECT_EQ(mgr.free_clusters(), 15u);
  EXPECT_EQ(mgr.processor(p).capacity(), 4);
}

TEST_F(ManagerFixture, FuseSplitFuseCycle) {
  // §1's defect scenario shape: fuse 4, split into 2+free, refuse.
  const auto big = mgr.allocate(4);
  mgr.downscale(big, 2);
  const auto second = mgr.allocate(2);
  ASSERT_NE(second, kNoProc);
  EXPECT_EQ(mgr.live_processors().size(), 2u);
}

TEST_F(ManagerFixture, ReleaseReturnsEverything) {
  const auto p = mgr.allocate(6);
  mgr.activate(p);
  mgr.release(p);  // release() wakes/deactivates as needed
  EXPECT_FALSE(mgr.alive(p));
  EXPECT_EQ(mgr.free_clusters(), 16u);
  EXPECT_EQ(fabric.chained_links(), 0u);
}

TEST_F(ManagerFixture, SleepTimerWakesOnAdvance) {
  const auto p = mgr.allocate(1);
  mgr.activate(p);
  mgr.sleep(p, mgr.now() + 50);
  EXPECT_EQ(mgr.state(p), ProcState::kSleep);
  mgr.advance(49);
  EXPECT_EQ(mgr.state(p), ProcState::kSleep);
  mgr.advance(1);
  EXPECT_EQ(mgr.state(p), ProcState::kActive);
}

TEST_F(ManagerFixture, NotifyWakesEventSleeper) {
  const auto p = mgr.allocate(1);
  mgr.activate(p);
  mgr.sleep(p, std::nullopt);
  mgr.notify(p);
  EXPECT_EQ(mgr.state(p), ProcState::kActive);
  EXPECT_THROW(mgr.notify(p), vlsip::PreconditionError);  // not sleeping
}

TEST_F(ManagerFixture, SendWritesFollowerMemory) {
  const auto a = mgr.allocate(2);
  const auto b = mgr.allocate(2);
  const auto cycles = mgr.send(a, b, {111, 222}, 10);
  EXPECT_GT(cycles, 0u);
  EXPECT_EQ(mgr.processor(b).memory().read(10).u, 111u);
  EXPECT_EQ(mgr.processor(b).memory().read(11).u, 222u);
  EXPECT_EQ(mgr.stats().data_packets, 1u);
}

TEST_F(ManagerFixture, SendToActiveProcessorRejected) {
  const auto a = mgr.allocate(1);
  const auto b = mgr.allocate(1);
  mgr.activate(b);  // write-protected now
  EXPECT_THROW(mgr.send(a, b, {1}, 0), vlsip::PreconditionError);
}

TEST_F(ManagerFixture, SendAndActivatePipelines) {
  const auto a = mgr.allocate(1);
  const auto b = mgr.allocate(1);
  mgr.send_and_activate(a, b, {42}, 0);
  EXPECT_EQ(mgr.state(b), ProcState::kActive);
  EXPECT_EQ(mgr.processor(b).memory().read(0).u, 42u);
}

TEST_F(ManagerFixture, DefectOnFreeClusterQuarantines) {
  const auto survivor = mgr.mark_defective(5);
  EXPECT_EQ(survivor, kNoProc);
  EXPECT_TRUE(mgr.is_defective(5));
  EXPECT_EQ(mgr.free_clusters(), 15u);
  // Allocation must route around the quarantined cluster.
  const auto p = mgr.allocate(15);
  EXPECT_EQ(p, kNoProc);  // contiguous serpentine run broken
  const auto q = mgr.allocate(4);
  ASSERT_NE(q, kNoProc);
  for (const auto c : mgr.regions().region(mgr.info(q).region).path) {
    EXPECT_NE(c, 5u);
  }
}

TEST_F(ManagerFixture, DefectInsideProcessorShrinksIt) {
  const auto p = mgr.allocate(6);
  ASSERT_NE(p, kNoProc);
  mgr.activate(p);
  const auto path = mgr.regions().region(mgr.info(p).region).path;
  // Fail the 4th cluster of the region.
  const auto survivor = mgr.mark_defective(path[3]);
  EXPECT_EQ(survivor, p);
  EXPECT_EQ(mgr.cluster_count(p), 3u);
  EXPECT_EQ(mgr.state(p), ProcState::kInactive);
  EXPECT_TRUE(mgr.is_defective(path[3]));
  // Freed tail (2 clusters) is reusable; defect is not.
  EXPECT_EQ(mgr.free_clusters(), 16u - 3u - 1u);
}

TEST_F(ManagerFixture, DefectAtHeadDestroysProcessor) {
  const auto p = mgr.allocate(3);
  const auto head = mgr.regions().region(mgr.info(p).region).path.front();
  const auto survivor = mgr.mark_defective(head);
  EXPECT_EQ(survivor, kNoProc);
  EXPECT_FALSE(mgr.alive(p));
  EXPECT_EQ(mgr.free_clusters(), 15u);
}

TEST_F(ManagerFixture, DoubleDefectIsIdempotent) {
  mgr.mark_defective(7);
  const auto again = mgr.mark_defective(7);
  EXPECT_EQ(again, kNoProc);
  EXPECT_EQ(mgr.stats().defects_handled, 1u);
}

TEST_F(ManagerFixture, RingAllocation) {
  const auto ring = topology::rectangle_ring(fabric, 0, 0, 3, 3);
  const auto p = mgr.allocate_path(ring, /*ring=*/true);
  ASSERT_NE(p, kNoProc);
  EXPECT_EQ(mgr.cluster_count(p), 8u);
}

TEST_F(ManagerFixture, ProgramRunsOnScaledProcessor) {
  const auto p = mgr.allocate(4);  // capacity 16
  auto& ap = mgr.processor(p);
  const auto prog = arch::linear_pipeline_program(3);
  ap.configure(prog);
  ap.feed("in", arch::make_word_i(2));
  mgr.activate(p);
  const auto exec = ap.run(1, 10000);
  ASSERT_TRUE(exec.completed);
  EXPECT_EQ(ap.output("out")[0].i, 9);  // ((2+1)*2)+3
}

TEST_F(ManagerFixture, DeadProcessorAccessThrows) {
  const auto p = mgr.allocate(1);
  mgr.release(p);
  EXPECT_THROW(mgr.processor(p), vlsip::PreconditionError);
  EXPECT_THROW(mgr.activate(p), vlsip::PreconditionError);
  EXPECT_THROW(mgr.cluster_count(p), vlsip::PreconditionError);
}

// ---- live-processor walk ------------------------------------------------

/// An independent model of what export_obs and fold_energy must report:
/// it tracks the live ids itself, folds each processor's AP and FSM
/// into its own released totals as the test retires it, and walks the
/// live processors through info().
struct LiveWalkReference {
  std::vector<ProcId> live;
  obs::MetricRegistry retired;
  cost::EnergyActivity retired_activity;
  std::uint64_t released_transitions = 0;
  std::uint64_t released_faults = 0;

  void fused(ProcId id) {
    if (id != kNoProc) live.push_back(id);
  }

  /// Folds `id` the way the manager does as release (`fault` false) or
  /// the fault path (`fault` true) retires it: the FSM takes its final
  /// transition before its counters join the released totals.
  void retire(const ScalingManager& mgr, ProcId id, bool fault) {
    const ScaledProcessor& s = mgr.info(id);
    s.processor->export_obs(retired);
    s.processor->fold_energy(retired_activity);
    ProcessorStateMachine fsm = s.fsm;
    if (fault) {
      fsm.fault();
    } else {
      if (fsm.state() == ProcState::kSleep) fsm.wake();
      fsm.release();
    }
    released_transitions += fsm.transitions();
    released_faults += fsm.faults();
    live.erase(std::find(live.begin(), live.end(), id));
  }

  void expect_matches(const ScalingManager& mgr) const {
    obs::MetricRegistry ref = retired;
    std::uint64_t transitions = released_transitions;
    std::uint64_t faults = released_faults;
    cost::EnergyActivity energy = retired_activity;
    for (const ProcId id : live) {
      const ScaledProcessor& s = mgr.info(id);
      s.processor->export_obs(ref);
      s.processor->fold_energy(energy);
      transitions += s.fsm.transitions();
      faults += s.fsm.faults();
    }
    energy.units[cost::kEnergyWormHop] += mgr.stats().config_packets;
    energy.units[cost::kEnergyRelocation] +=
        mgr.stats().relocations + mgr.stats().defects_handled;

    EXPECT_EQ(mgr.live_processors(), live);

    obs::MetricRegistry got;
    mgr.export_obs(got);
    const auto counters = got.counters();
    const auto gauges = got.gauges();
    EXPECT_EQ(counters.at("scaling.fsm_transitions"), transitions);
    EXPECT_EQ(counters.at("scaling.fsm_faults"), faults);
    EXPECT_EQ(gauges.at("scaling.live_processors"),
              static_cast<double>(live.size()));
    // The AP layer: same names, same values, gauges included (last
    // writer wins, so the walk order matters).
    std::map<std::string, std::uint64_t> ap_counters;
    for (const auto& [name, v] : counters) {
      if (name.rfind("ap.", 0) == 0) ap_counters.emplace(name, v);
    }
    std::map<std::string, double> ap_gauges;
    for (const auto& [name, v] : gauges) {
      if (name.rfind("ap.", 0) == 0) ap_gauges.emplace(name, v);
    }
    EXPECT_EQ(ap_counters, ref.counters());
    EXPECT_EQ(ap_gauges, ref.gauges());

    cost::EnergyActivity folded;
    mgr.fold_energy(folded);
    EXPECT_EQ(folded.units, energy.units);
  }
};

TEST(ScalingManager, LiveWalkMatchesEverySlotWalk) {
  topology::STopologyFabric fabric(8, 8, topology::ClusterSpec{4, 4, 1});
  noc::NocFabric noc(8, 8);
  ScalingConfig config;
  config.ap_template.memory_blocks = 4;
  ScalingManager mgr(fabric, noc, config);
  LiveWalkReference ref;

  std::uint64_t rng = 0xC0FFEEu;
  const auto next = [&rng](std::uint64_t bound) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % bound;
  };
  std::size_t fuses = 0;
  std::size_t releases = 0;
  std::size_t faults = 0;
  for (int step = 0; fuses < 1000 || releases < 1000; ++step) {
    ASSERT_LT(step, 20000) << "the chip stopped fusing";
    const std::vector<ProcId> live = mgr.live_processors();
    if (live.size() < 6 && next(3) != 0) {
      const ProcId id = mgr.allocate(1 + next(4));
      ref.fused(id);
      if (id != kNoProc) ++fuses;
    } else if (!live.empty()) {
      const ProcId victim = live[next(live.size())];
      if (next(2) == 0) {  // an activate/deactivate round trip first
        mgr.activate(victim);
        mgr.deactivate(victim);
      }
      ref.retire(mgr, victim, /*fault=*/false);
      mgr.release(victim);
      ++releases;
    }
    if (step % 97 == 96 && faults < 8) {
      // A cluster fault: the reference retires the victim first, as
      // the manager does inside refuse_around().
      const auto cluster = static_cast<topology::ClusterId>(next(64));
      if (!mgr.is_defective(cluster)) {
        const auto owner = mgr.regions().owner(cluster);
        for (const ProcId id : mgr.live_processors()) {
          if (mgr.info(id).region == owner) ref.retire(mgr, id, true);
        }
        ref.fused(mgr.refuse_around(cluster).replacement);
        ++faults;
      }
    }
    if (step == 600) (void)mgr.compact();
    if (step == 900) {
      // Save -> restore: the live table and the released FSM totals
      // come back from the snapshot; retired AP probes are telemetry
      // the snapshot does not carry, so the reference drops them too.
      snapshot::Snapshot snap;
      snapshot::Writer w(snap);
      mgr.save(w);
      snapshot::Reader r(snap);
      mgr.restore(r);
      ref.retired = obs::MetricRegistry();
    }
    if (step % 250 == 0) ref.expect_matches(mgr);
  }
  EXPECT_GE(faults, 4u);
  ref.expect_matches(mgr);
}

/// A 4x4 manager that fused processors 0..3 and released 0: ids 1, 2
/// and 3 are live, the next id is 4 and region 0 is dead.
struct LiveTableFixture {
  topology::STopologyFabric fabric{4, 4, topology::ClusterSpec{4, 4, 1}};
  noc::NocFabric noc{4, 4};
  ScalingConfig config = [] {
    ScalingConfig c;
    c.ap_template.memory_blocks = 4;
    return c;
  }();
  ScalingManager mgr{fabric, noc, config};
  std::vector<std::uint8_t> bytes;
  test_support::LiveTableAt at;

  LiveTableFixture() {
    for (ProcId id = 0; id < 4; ++id) EXPECT_EQ(mgr.allocate(1), id);
    mgr.release(0);
    snapshot::Snapshot snap;
    snapshot::Writer w(snap);
    mgr.save(w);
    bytes = snap.bytes();
    at = test_support::locate_live_table(bytes);
  }

  void restore_fails(const std::vector<std::uint8_t>& mutated) {
    snapshot::Snapshot bad;
    bad.bytes() = mutated;
    snapshot::Reader r(bad);
    ScalingManager other(fabric, noc, config);
    EXPECT_THROW(other.restore(r), snapshot::SnapshotError);
  }
};

TEST(ScalingManager, RestoreRejectsInconsistentSlots) {
  LiveTableFixture f;
  ASSERT_EQ(test_support::read_u64(f.bytes, f.at.count), 3u);
  {
    snapshot::Snapshot snap;
    snap.bytes() = f.bytes;
    snapshot::Reader r(snap);
    ScalingManager other(f.fabric, f.noc, f.config);
    other.restore(r);
    EXPECT_EQ(other.live_processors(), (std::vector<ProcId>{1, 2, 3}));
  }
  const auto mutate = [&f](std::size_t offset, std::uint32_t value) {
    std::vector<std::uint8_t> bad = f.bytes;
    test_support::write_u32(bad, offset, value);
    return bad;
  };
  f.restore_fails(mutate(f.at.first_record, 2));  // duplicates id 2
  f.restore_fails(mutate(f.at.first_record, 3));  // 3 before 2: unsorted
  f.restore_fails(mutate(f.at.next_id, 3));       // live id 3 >= next id
  f.restore_fails(mutate(f.at.first_record + 4, 0));  // dead region 0
  f.restore_fails(mutate(f.at.first_record + 4, 2));  // processor 2's
  f.restore_fails(mutate(f.at.first_record + 4, 99));
}

TEST(ScalingManager, RestoreCutInsideALiveApLeavesTheLiveWalkSafe) {
  LiveTableFixture f;
  // Cut 16 bytes into processor 1's AP section, which follows its
  // 45-byte record header.
  std::vector<std::uint8_t> bytes = f.bytes;
  bytes.resize(f.at.first_record + 45 + 16);

  snapshot::Snapshot cut;
  cut.bytes() = bytes;
  snapshot::Reader r(cut);
  ScalingManager other(f.fabric, f.noc, f.config);
  EXPECT_THROW(other.restore(r), snapshot::SnapshotError);
  for (const ProcId id : other.live_processors()) {
    ASSERT_NE(other.info(id).processor, nullptr);
  }
  obs::MetricRegistry reg;
  other.export_obs(reg);
  cost::EnergyActivity energy;
  other.fold_energy(energy);
  other.advance(8);
  EXPECT_EQ(reg.gauges().at("scaling.live_processors"),
            static_cast<double>(other.live_processors().size()));
}

TEST(ScalingManager, ChurnKeepsTheTablesAtPeakConcurrency) {
  // Fuses and releases leave nothing behind: the region table stays at
  // the peak number of concurrent regions and the snapshot does not
  // grow with the number of fuses.
  LiveTableFixture f;
  const auto snapshot_bytes = [&f] {
    snapshot::Snapshot snap;
    snapshot::Writer w(snap);
    f.mgr.save(w);
    return snap.size();
  };
  for (int i = 0; i < 50; ++i) f.mgr.release(f.mgr.allocate(2));
  const std::size_t after_50 = snapshot_bytes();
  for (int i = 0; i < 500; ++i) f.mgr.release(f.mgr.allocate(2));
  EXPECT_EQ(snapshot_bytes(), after_50);
  EXPECT_EQ(f.mgr.live_processors(), (std::vector<ProcId>{1, 2, 3}));
  const ProcId id = f.mgr.allocate(1);
  EXPECT_EQ(id, 4u + 550u);  // ids still ascend, never reused
}

}  // namespace
}  // namespace vlsip::scaling

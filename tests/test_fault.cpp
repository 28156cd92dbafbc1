// Tests for the fault-injection layer (src/fault/): seeded fault plans,
// the chip-level injector, and the recovery paths it drives — the fsm
// fault transition, ScalingManager::refuse_around (release + quarantine
// + re-fuse with compaction), CSD segment kills with reroute, and
// memory-bank poisoning.
#include <gtest/gtest.h>

#include "ap/adaptive_processor.hpp"
#include "arch/datapath.hpp"
#include "common/require.hpp"
#include "core/vlsi_processor.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "scaling/state_machine.hpp"

namespace vlsip::fault {
namespace {

// --- fault plans --------------------------------------------------------

TEST(FaultPlan, ToStringCoversEveryKind) {
  EXPECT_STREQ(to_string(FaultKind::kCluster), "cluster");
  EXPECT_STREQ(to_string(FaultKind::kObject), "object");
  EXPECT_STREQ(to_string(FaultKind::kSwitch), "switch");
  EXPECT_STREQ(to_string(FaultKind::kCsdSegment), "csd-segment");
  EXPECT_STREQ(to_string(FaultKind::kMemoryBlock), "memory-block");
  EXPECT_STREQ(to_string(FaultKind::kWorkerStall), "worker-stall");
  EXPECT_STREQ(to_string(FaultKind::kWorkerCrash), "worker-crash");
}

TEST(FaultPlan, RandomPlanIsDeterministic) {
  FaultPlanSpec spec;
  spec.seed = 1234;
  spec.events = 64;
  spec.w_worker_stall = 1.0;
  spec.w_worker_crash = 1.0;
  const FaultPlan a = random_fault_plan(spec);
  const FaultPlan b = random_fault_plan(spec);
  ASSERT_EQ(a.size(), 64u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].target, b.events[i].target);
    EXPECT_EQ(a.events[i].arg, b.events[i].arg);
  }
  spec.seed = 1235;
  const FaultPlan c = random_fault_plan(spec);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a.events[i].at != c.events[i].at ||
              a.events[i].target != c.events[i].target;
  }
  EXPECT_TRUE(differs) << "different seeds should give different plans";
}

TEST(FaultPlan, EventsSortedByTrigger) {
  FaultPlanSpec spec;
  spec.events = 100;
  spec.horizon = 50;
  const FaultPlan plan = random_fault_plan(spec);
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_LE(plan.events[i - 1].at, plan.events[i].at);
  }
}

TEST(FaultPlan, ClusterKillsCappedAndDegradeToObjectFaults) {
  FaultPlanSpec spec;
  spec.events = 50;
  spec.clusters = 20;
  spec.max_cluster_fault_fraction = 0.2;  // cap = 4 cluster kills
  spec.w_cluster = 1.0;
  spec.w_object = 0.0;
  spec.w_switch = 0.0;
  spec.w_csd_segment = 0.0;
  spec.w_memory = 0.0;
  const FaultPlan plan = random_fault_plan(spec);
  EXPECT_EQ(plan.count(FaultKind::kCluster), 4u);
  EXPECT_EQ(plan.count(FaultKind::kObject), 46u);
}

TEST(FaultPlan, ZeroWeightDisablesKind) {
  FaultPlanSpec spec;
  spec.events = 40;
  spec.w_cluster = 0.0;
  spec.w_object = 0.0;
  spec.w_switch = 0.0;
  spec.w_csd_segment = 0.0;
  spec.w_memory = 1.0;
  const FaultPlan plan = random_fault_plan(spec);
  EXPECT_EQ(plan.count(FaultKind::kMemoryBlock), 40u);
}

TEST(FaultPlan, AllZeroWeightsRejected) {
  FaultPlanSpec spec;
  spec.w_cluster = spec.w_object = spec.w_switch = 0.0;
  spec.w_csd_segment = spec.w_memory = 0.0;
  EXPECT_THROW(random_fault_plan(spec), PreconditionError);
}

TEST(FaultPlan, RenderListsEveryEvent) {
  FaultPlanSpec spec;
  spec.events = 3;
  const FaultPlan plan = random_fault_plan(spec);
  const std::string text = plan.render();
  EXPECT_NE(text.find("3 events"), std::string::npos);
  for (const auto& e : plan.events) {
    EXPECT_NE(text.find(describe(e)), std::string::npos);
  }
}

// --- state-machine fault transition -------------------------------------

TEST(StateMachineFault, FromInactiveActiveAndSleep) {
  using scaling::ProcState;
  scaling::ProcessorStateMachine inactive;
  inactive.allocate();
  inactive.fault();
  EXPECT_EQ(inactive.state(), ProcState::kRelease);
  EXPECT_EQ(inactive.faults(), 1u);

  scaling::ProcessorStateMachine active;
  active.allocate();
  active.activate();
  active.fault();
  EXPECT_EQ(active.state(), ProcState::kRelease);
  EXPECT_FALSE(active.read_protected());
  EXPECT_FALSE(active.write_protected());

  scaling::ProcessorStateMachine sleeper;
  sleeper.allocate();
  sleeper.activate();
  sleeper.sleep(1000);
  sleeper.fault();
  EXPECT_EQ(sleeper.state(), ProcState::kRelease);
  EXPECT_FALSE(sleeper.wake_at().has_value());
}

TEST(StateMachineFault, FaultingReleasedProcessorThrows) {
  scaling::ProcessorStateMachine fsm;
  EXPECT_THROW(fsm.fault(), PreconditionError);
}

// --- refuse_around (release + quarantine + re-fuse) ---------------------

core::ChipConfig small_chip() {
  core::ChipConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  return cfg;
}

TEST(RefuseAround, FreeClusterIsJustQuarantined) {
  core::VlsiProcessor chip(small_chip());
  const auto recovery = chip.heal(5);
  EXPECT_EQ(recovery.victim, scaling::kNoProc);
  EXPECT_EQ(recovery.replacement, scaling::kNoProc);
  EXPECT_FALSE(recovery.compacted);
  EXPECT_TRUE(chip.manager().is_defective(5));
  EXPECT_EQ(chip.defective_clusters(), 1u);
  EXPECT_EQ(chip.healthy_clusters(), 15u);
}

TEST(RefuseAround, ReleasesVictimAndRefusesReplacementElsewhere) {
  core::VlsiProcessor chip(small_chip());
  const auto victim = chip.fuse(4);
  ASSERT_NE(victim, scaling::kNoProc);
  // Find a cluster the victim owns.
  const auto region = chip.manager().info(victim).region;
  topology::ClusterId owned = topology::kNoCluster;
  for (topology::ClusterId c = 0; c < chip.total_clusters(); ++c) {
    if (chip.manager().regions().owner(c) == region) {
      owned = c;
      break;
    }
  }
  ASSERT_NE(owned, topology::kNoCluster);

  const auto recovery = chip.heal(owned);
  EXPECT_EQ(recovery.victim, victim);
  EXPECT_EQ(recovery.victim_clusters, 4u);
  ASSERT_NE(recovery.replacement, scaling::kNoProc);
  EXPECT_FALSE(chip.manager().alive(victim));
  EXPECT_TRUE(chip.manager().alive(recovery.replacement));
  EXPECT_EQ(chip.manager().cluster_count(recovery.replacement), 4u);
  EXPECT_TRUE(chip.manager().is_defective(owned));
  // The replacement must not include the quarantined cluster.
  EXPECT_NE(chip.manager().regions().owner(owned),
            chip.manager().info(recovery.replacement).region);
  EXPECT_GE(chip.manager().stats().fault_releases, 1u);
  EXPECT_GE(chip.manager().stats().fault_refusals, 1u);
}

TEST(RefuseAround, ActiveVictimIsFaultReleasedToo) {
  core::VlsiProcessor chip(small_chip());
  const auto victim = chip.fuse(4);
  ASSERT_NE(victim, scaling::kNoProc);
  chip.activate(victim);
  const auto region = chip.manager().info(victim).region;
  topology::ClusterId owned = topology::kNoCluster;
  for (topology::ClusterId c = 0; c < chip.total_clusters(); ++c) {
    if (chip.manager().regions().owner(c) == region) {
      owned = c;
      break;
    }
  }
  const auto recovery = chip.heal(owned);
  EXPECT_EQ(recovery.victim, victim);
  EXPECT_FALSE(chip.manager().alive(victim));
  EXPECT_NE(recovery.replacement, scaling::kNoProc);
}

TEST(RefuseAround, CompactsWhenSparesAreFragmented) {
  // 16 clusters: A=5 (serpentine 0-4), B=5 (5-9), C=4 (10-13),
  // free 14-15. Faulting a cluster of B frees its other four, but the
  // quarantined slot splits the free space into runs of 4 and 2 — a
  // 5-cluster replacement needs the compaction sweep.
  core::VlsiProcessor chip(small_chip());
  const auto a = chip.fuse(5);
  const auto b = chip.fuse(5);
  const auto c = chip.fuse(4);
  ASSERT_NE(a, scaling::kNoProc);
  ASSERT_NE(b, scaling::kNoProc);
  ASSERT_NE(c, scaling::kNoProc);

  const auto region_b = chip.manager().info(b).region;
  topology::ClusterId owned = topology::kNoCluster;
  // Fault the cluster at B's serpentine head so the surviving free run
  // around it is maximally split.
  for (std::size_t s = 0; s < chip.total_clusters(); ++s) {
    const auto cl = chip.fabric().serpentine_at(s);
    if (chip.manager().regions().owner(cl) == region_b) {
      owned = cl;
      break;
    }
  }
  ASSERT_NE(owned, topology::kNoCluster);

  const auto recovery = chip.heal(owned);
  EXPECT_EQ(recovery.victim, b);
  ASSERT_NE(recovery.replacement, scaling::kNoProc);
  EXPECT_TRUE(recovery.compacted);
  EXPECT_EQ(chip.manager().cluster_count(recovery.replacement), 5u);
  EXPECT_TRUE(chip.manager().alive(a));
  EXPECT_TRUE(chip.manager().alive(c));
}

TEST(RefuseAround, ReplacementImpossibleWhenChipIsFull) {
  core::VlsiProcessor chip(small_chip());
  const auto whole = chip.fuse(16);
  ASSERT_NE(whole, scaling::kNoProc);
  const auto recovery = chip.heal(0);
  EXPECT_EQ(recovery.victim, whole);
  EXPECT_EQ(recovery.victim_clusters, 16u);
  // 15 healthy clusters cannot host a 16-cluster replacement.
  EXPECT_EQ(recovery.replacement, scaling::kNoProc);
  EXPECT_EQ(chip.free_clusters(), 15u);
}

TEST(RefuseAround, QuarantinedClusterIsANoOp) {
  core::VlsiProcessor chip(small_chip());
  chip.heal(3);
  const auto stats_before = chip.manager().stats().defects_handled;
  const auto again = chip.heal(3);
  EXPECT_EQ(again.victim, scaling::kNoProc);
  EXPECT_EQ(again.replacement, scaling::kNoProc);
  EXPECT_EQ(chip.manager().stats().defects_handled, stats_before);
  EXPECT_EQ(chip.defective_clusters(), 1u);
}

TEST(RefuseAround, AllocateAvoidsQuarantinedClusters) {
  core::VlsiProcessor chip(small_chip());
  const auto quarantined = chip.fabric().serpentine_at(2);
  chip.heal(quarantined);
  const auto proc = chip.fuse(8);
  ASSERT_NE(proc, scaling::kNoProc);
  // The quarantined cluster is owned by its 1-cluster quarantine
  // region, never by the new processor's region.
  const auto& region =
      chip.manager().regions().region(chip.manager().info(proc).region);
  for (const auto c : region.path) EXPECT_NE(c, quarantined);
  EXPECT_NE(chip.manager().regions().owner(quarantined),
            chip.manager().info(proc).region);
}

// --- CSD segment kills --------------------------------------------------

TEST(CsdKill, RerouteOntoSurvivingChannel) {
  csd::CsdConfig cfg;
  cfg.positions = 8;
  cfg.channels = 2;
  csd::DynamicCsdNetwork net(cfg);
  const auto route = net.establish(0, 4);
  ASSERT_TRUE(route.has_value());
  const auto before = net.routes()[*route].channel;

  const auto kill = net.kill_segment(before, 2);
  EXPECT_EQ(kill.affected, 1u);
  EXPECT_EQ(kill.rerouted, 1u);
  EXPECT_EQ(kill.dropped, 0u);
  EXPECT_TRUE(net.segment_dead(before, 2));
  EXPECT_EQ(net.dead_segments(), 1u);
  ASSERT_EQ(net.active_routes(), 1u);
  // The surviving route spans the same endpoints on the other channel.
  bool found = false;
  for (const auto& r : net.routes()) {
    if (r.id == csd::kNoRoute) continue;
    EXPECT_NE(r.channel, before);
    EXPECT_EQ(r.lo, 0u);
    EXPECT_EQ(r.hi, 4u);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(CsdKill, DropsRouteWhenNoHealthySpanExists) {
  csd::CsdConfig cfg;
  cfg.positions = 8;
  cfg.channels = 1;
  csd::DynamicCsdNetwork net(cfg);
  ASSERT_TRUE(net.establish(0, 4).has_value());
  const auto kill = net.kill_segment(0, 2);
  EXPECT_EQ(kill.affected, 1u);
  EXPECT_EQ(kill.rerouted, 0u);
  EXPECT_EQ(kill.dropped, 1u);
  EXPECT_EQ(net.active_routes(), 0u);
}

TEST(CsdKill, DeadSegmentBlocksNewSpansButNotDisjointOnes) {
  csd::CsdConfig cfg;
  cfg.positions = 8;
  cfg.channels = 1;
  csd::DynamicCsdNetwork net(cfg);
  net.kill_segment(0, 2);
  EXPECT_FALSE(net.try_route(0, 4).has_value());  // spans dead segment 2
  EXPECT_TRUE(net.try_route(5, 7).has_value());   // disjoint span is fine
}

TEST(CsdKill, KillingDeadSegmentIsANoOp) {
  csd::CsdConfig cfg;
  cfg.positions = 8;
  cfg.channels = 1;
  csd::DynamicCsdNetwork net(cfg);
  net.kill_segment(0, 3);
  const auto again = net.kill_segment(0, 3);
  EXPECT_EQ(again.affected, 0u);
  EXPECT_EQ(net.dead_segments(), 1u);
}

TEST(CsdKill, DroppedRoutesLeaveChainsReroutable) {
  // A kill drops a route the configured datapath's chain still names,
  // and later stack shifts move claims onto the dead wire. The processor
  // keeps faulting objects in, releasing and reconfiguring without ever
  // touching a freed route slot.
  ap::ApConfig config;
  config.capacity = 6;
  config.memory_blocks = 2;
  config.csd_channels = 1;
  ap::AdaptiveProcessor ap(config);
  const auto program = arch::linear_pipeline_program(4);  // 10 objects
  ap.configure(program);
  auto& net = ap.network_mut();
  std::vector<csd::Position> claimed;
  for (const auto& r : net.routes()) {
    if (r.id != csd::kNoRoute && r.span() > 0) claimed.push_back(r.lo);
  }
  ASSERT_FALSE(claimed.empty());
  std::size_t dropped = 0;
  for (const auto segment : claimed) {
    dropped += net.kill_segment(0, segment).dropped;
  }
  ASSERT_GT(dropped, 0u);  // one channel: every affected route drops

  for (int round = 0; round < 4; ++round) {
    ap.feed("in", arch::make_word_i(5));
    const auto exec = ap.run(1, 100000);
    ASSERT_TRUE(exec.completed) << "round " << round;
    EXPECT_EQ(ap.output("out").back().i, 30);
    EXPECT_GT(exec.faults, 0u);  // object faults shift the stack
    ap.release_datapath();
    ap.configure(program);
    const csd::Position segment =
        static_cast<csd::Position>(round) % (net.positions() - 1);
    if (!net.segment_dead(0, segment)) net.kill_segment(0, segment);
  }
  // Every chain that names a route names a live one joining its objects.
  for (const auto& c : ap.chains().chains()) {
    if (!c.routed()) continue;
    const auto& r = net.routes()[c.route];
    EXPECT_EQ(r.id, c.route);
    EXPECT_EQ(r.source, static_cast<csd::Position>(
                            ap.object_space().position_of(c.source)));
    EXPECT_EQ(r.sink, static_cast<csd::Position>(
                          ap.object_space().position_of(c.sink)));
  }
}

// --- memory poisoning ---------------------------------------------------

TEST(MemoryPoison, ReadsPoisonWordAndDropsWrites) {
  ap::MemoryBlock block;
  block.write(10, arch::make_word_i(42));
  EXPECT_EQ(block.read(10).i, 42);
  block.poison();
  EXPECT_TRUE(block.poisoned());
  EXPECT_EQ(block.read(10).u, ap::MemoryBlock::poison_word().u);
  block.write(10, arch::make_word_i(7));  // dropped
  EXPECT_EQ(block.read(10).u, ap::MemoryBlock::poison_word().u);
}

TEST(MemoryPoison, SystemPoisonsOneBankOnly) {
  ap::MemorySystem memory(4);
  memory.poison_block(2);
  EXPECT_TRUE(memory.block_poisoned(2));
  EXPECT_FALSE(memory.block_poisoned(0));
  EXPECT_EQ(memory.poisoned_blocks(), 1);
  // Word interleaving: address a hits bank a % 4.
  memory.write(1, arch::make_word_i(5));
  EXPECT_EQ(memory.read(1).i, 5);
  memory.write(2, arch::make_word_i(5));
  EXPECT_EQ(memory.read(2).u, ap::MemoryBlock::poison_word().u);
}

// --- apply_chip_event / FaultInjector -----------------------------------

TEST(ApplyChipEvent, ClusterFaultQuarantinesAndProvesRefuse) {
  core::VlsiProcessor chip(small_chip());
  const auto proc = chip.fuse(4);
  ASSERT_NE(proc, scaling::kNoProc);
  const auto region = chip.manager().info(proc).region;
  topology::ClusterId owned = topology::kNoCluster;
  for (topology::ClusterId c = 0; c < chip.total_clusters(); ++c) {
    if (chip.manager().regions().owner(c) == region) {
      owned = c;
      break;
    }
  }

  InjectionStats stats;
  FaultEvent event;
  event.kind = FaultKind::kCluster;
  event.target = owned;
  EXPECT_TRUE(apply_chip_event(chip, event, stats));
  EXPECT_EQ(stats.clusters_faulted, 1u);
  EXPECT_EQ(stats.refusals, 1u);
  EXPECT_EQ(chip.defective_clusters(), 1u);
  EXPECT_FALSE(chip.manager().alive(proc));
  // The proved replacement was released back to the pool.
  EXPECT_TRUE(chip.manager().live_processors().empty());
  EXPECT_EQ(chip.free_clusters(), 15u);

  // Hitting the same (now-defective) cluster again applies nothing.
  EXPECT_FALSE(apply_chip_event(chip, event, stats));
}

TEST(ApplyChipEvent, ObjectFaultShrinksLiveCapacity) {
  core::VlsiProcessor chip(small_chip());
  const auto proc = chip.fuse(2);
  ASSERT_NE(proc, scaling::kNoProc);
  const int before = chip.manager().processor(proc).capacity();

  InjectionStats stats;
  FaultEvent event;
  event.kind = FaultKind::kObject;
  event.target = 0;
  EXPECT_TRUE(apply_chip_event(chip, event, stats));
  EXPECT_EQ(stats.objects_faulted, 1u);
  EXPECT_EQ(chip.manager().processor(proc).capacity(), before - 1);
}

TEST(ApplyChipEvent, ObjectFaultNeedsALiveProcessor) {
  core::VlsiProcessor chip(small_chip());
  InjectionStats stats;
  FaultEvent event;
  event.kind = FaultKind::kObject;
  EXPECT_FALSE(apply_chip_event(chip, event, stats));
  EXPECT_EQ(stats.objects_faulted, 0u);
}

TEST(ApplyChipEvent, SwitchFaultSticksReservationAndBreaksRegion) {
  core::VlsiProcessor chip(small_chip());
  const auto proc = chip.fuse(4);
  ASSERT_NE(proc, scaling::kNoProc);
  // Pick two adjacent clusters inside the fused region: serpentine
  // positions 0 and 1 are always neighbours.
  const auto a = chip.fabric().serpentine_at(0);
  const auto b = chip.fabric().serpentine_at(1);
  ASSERT_EQ(chip.manager().regions().owner(a),
            chip.manager().regions().owner(b));
  const auto neighbors = chip.fabric().neighbors(a);
  std::uint64_t pick = 0;
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    if (neighbors[i] == b) pick = i;
  }

  InjectionStats stats;
  FaultEvent event;
  event.kind = FaultKind::kSwitch;
  event.target = a;
  event.arg = pick;
  EXPECT_TRUE(apply_chip_event(chip, event, stats));
  EXPECT_EQ(stats.switches_stuck, 1u);
  EXPECT_EQ(chip.fabric().reservation(a, b), kStuckSwitch);
  // The region spanning the stuck switch was broken and re-fused.
  EXPECT_FALSE(chip.manager().alive(proc));
  // Sticking the same switch twice applies nothing.
  EXPECT_FALSE(apply_chip_event(chip, event, stats));
}

TEST(ApplyChipEvent, CsdSegmentFaultLandsOnALiveNetwork) {
  core::VlsiProcessor chip(small_chip());
  const auto proc = chip.fuse(2);
  ASSERT_NE(proc, scaling::kNoProc);

  InjectionStats stats;
  FaultEvent event;
  event.kind = FaultKind::kCsdSegment;
  event.target = 0;
  event.arg = 5;
  EXPECT_TRUE(apply_chip_event(chip, event, stats));
  EXPECT_EQ(stats.segments_killed, 1u);
  EXPECT_EQ(chip.manager().processor(proc).network().dead_segments(), 1u);
}

TEST(ApplyChipEvent, MemoryFaultPoisonsOneBank) {
  core::VlsiProcessor chip(small_chip());
  const auto proc = chip.fuse(2);
  ASSERT_NE(proc, scaling::kNoProc);

  InjectionStats stats;
  FaultEvent event;
  event.kind = FaultKind::kMemoryBlock;
  event.target = 0;
  event.arg = 3;
  EXPECT_TRUE(apply_chip_event(chip, event, stats));
  EXPECT_EQ(stats.memory_banks_poisoned, 1u);
  EXPECT_EQ(chip.manager().processor(proc).memory().poisoned_blocks(), 1);
}

TEST(ApplyChipEvent, WorkerEventsAreFarmOnly) {
  core::VlsiProcessor chip(small_chip());
  InjectionStats stats;
  FaultEvent stall;
  stall.kind = FaultKind::kWorkerStall;
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  EXPECT_FALSE(apply_chip_event(chip, stall, stats));
  EXPECT_FALSE(apply_chip_event(chip, crash, stats));
}

TEST(FaultInjector, FiresEventsInOrderUpToTheCycle) {
  core::VlsiProcessor chip(small_chip());
  const auto proc = chip.fuse(2);
  ASSERT_NE(proc, scaling::kNoProc);

  FaultPlan plan;
  plan.events = {
      {30, FaultKind::kMemoryBlock, 0, 2},
      {10, FaultKind::kMemoryBlock, 0, 0},
      {20, FaultKind::kMemoryBlock, 0, 1},
  };
  FaultInjector injector(chip, plan);  // sorts
  EXPECT_EQ(injector.pending(), 3u);

  EXPECT_EQ(injector.advance_to(5), 0u);
  EXPECT_EQ(injector.advance_to(15), 1u);
  EXPECT_EQ(chip.manager().processor(proc).memory().poisoned_blocks(), 1);
  EXPECT_EQ(injector.advance_to(100), 2u);
  EXPECT_TRUE(injector.exhausted());
  EXPECT_EQ(injector.stats().fired, 3u);
  EXPECT_EQ(injector.stats().applied, 3u);
  EXPECT_EQ(chip.manager().processor(proc).memory().poisoned_blocks(), 3);
}

TEST(FaultInjector, CountsSkippedEvents) {
  core::VlsiProcessor chip(small_chip());  // no live processors
  FaultPlan plan;
  plan.events = {
      {1, FaultKind::kWorkerStall, 0, 8},
      {2, FaultKind::kObject, 0, 0},
  };
  FaultInjector injector(chip, plan);
  injector.advance_to(10);
  EXPECT_EQ(injector.stats().fired, 2u);
  EXPECT_EQ(injector.stats().applied, 0u);
  EXPECT_EQ(injector.stats().skipped, 2u);
}

TEST(FaultInjector, SeededSweepKeepsChipSchedulable) {
  // The §1 defect-tolerance claim as a sweep: for many seeds, injecting
  // a full random plan (cluster kills capped at 20%) must leave the
  // chip able to fuse a processor over the spare clusters.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    core::VlsiProcessor chip(small_chip());
    ASSERT_NE(chip.fuse(4), scaling::kNoProc);

    FaultPlanSpec spec;
    spec.seed = seed;
    spec.events = 12;
    spec.horizon = 100;
    spec.clusters = chip.total_clusters();
    FaultInjector injector(chip, random_fault_plan(spec));
    injector.advance_to(100);
    EXPECT_TRUE(injector.exhausted());

    EXPECT_LE(chip.defective_clusters(),
              chip.total_clusters() / 5)
        << "seed " << seed;
    // A minimum-scale AP must still be fusable from spares.
    const auto proc = chip.fuse(1);
    EXPECT_NE(proc, scaling::kNoProc) << "seed " << seed;
    if (proc != scaling::kNoProc) chip.release(proc);
  }
}

}  // namespace
}  // namespace vlsip::fault

// Recycled processors. AdaptiveProcessor::reset must leave an AP in
// exactly the state its constructor builds, whatever the AP went
// through before (served jobs, defects, a killed CSD segment, poisoned
// and written memory, an unfinished datapath); the scaling manager
// hands released APs back out through it instead of building new ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ap/adaptive_processor.hpp"
#include "common/rng.hpp"
#include "noc/noc_fabric.hpp"
#include "obs/metrics.hpp"
#include "scaling/job.hpp"
#include "scaling/scaling_manager.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/s_topology.hpp"
#include "workload/kernels.hpp"

namespace vlsip {
namespace {

/// The AP the scaling manager fuses over `clusters` default clusters.
ap::ApConfig config_for(int clusters) {
  const topology::ClusterSpec spec;
  ap::ApConfig cfg;
  cfg.capacity = clusters * spec.stack_capacity();
  cfg.memory_blocks = clusters * spec.memory_objects;
  return cfg;
}

std::vector<std::uint8_t> save_bytes(const ap::AdaptiveProcessor& ap) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  ap.save(w);
  return snap.bytes();
}

scaling::Job random_job(Xoshiro256& rng, int index) {
  const auto kind = static_cast<workload::KernelKind>(
      rng.uniform(workload::kKernelKinds));
  const int width = 1 + static_cast<int>(rng.uniform(8));
  auto kernel = workload::build_kernel({kind, width});
  EXPECT_TRUE(kernel.ok()) << kernel.status().to_string();
  return workload::make_job(*kernel, 1 + rng.uniform(4), rng,
                            kernel->label + "#" + std::to_string(index));
}

/// Serves `job` on `ap` the way scaling::run_job_on does, and releases.
scaling::JobOutcome serve(ap::AdaptiveProcessor& ap, const scaling::Job& job) {
  scaling::JobOutcome outcome;
  outcome.name = job.name;
  outcome.config_cycles = ap.configure(job.program).cycles;
  for (const auto& [port, words] : job.inputs) ap.feed(port, words);
  const ap::ExecStats exec = ap.run(job.expected_per_output, 1u << 20);
  outcome.completed = exec.completed;
  outcome.exec_cycles = exec.cycles;
  outcome.faults = exec.faults;
  if (exec.completed) {
    for (const auto& [port, id] : job.program.outputs) {
      (void)id;
      outcome.outputs[port] = ap.output(port);
    }
  }
  ap.release_datapath();
  return outcome;
}

void expect_same_outcome(const scaling::JobOutcome& a,
                         const scaling::JobOutcome& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.config_cycles, b.config_cycles);
  EXPECT_EQ(a.exec_cycles, b.exec_cycles);
  EXPECT_EQ(a.faults, b.faults);
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (const auto& [port, words] : a.outputs) {
    const auto& other = b.outputs.at(port);
    ASSERT_EQ(words.size(), other.size()) << port;
    for (std::size_t i = 0; i < words.size(); ++i) {
      EXPECT_EQ(words[i].u, other[i].u) << port << "[" << i << "]";
    }
  }
}

/// Every lifetime counter the AP publishes (ApStats, memory, network).
void expect_same_stats(const ap::AdaptiveProcessor& a,
                       const ap::AdaptiveProcessor& b) {
  obs::MetricRegistry ra;
  obs::MetricRegistry rb;
  a.export_obs(ra);
  b.export_obs(rb);
  EXPECT_EQ(ra.counters(), rb.counters());
  EXPECT_EQ(ra.gauges(), rb.gauges());
  EXPECT_EQ(a.report(), b.report());
}

TEST(AdaptiveProcessor, ResetMatchesFreshConstruction) {
  Xoshiro256 rng(2012);
  int index = 0;
  for (const int target : {1, 2, 5, 8}) {
    SCOPED_TRACE("target " + std::to_string(target) + " clusters");
    // Start from another size, so reset changes every table's extent.
    ap::AdaptiveProcessor ap(config_for(target == 8 ? 3 : target + 3));
    for (int j = 0; j < 6; ++j) serve(ap, random_job(rng, index++));

    // Damage and dirt a fresh AP never has.
    const int capacity = ap.capacity();
    ap.handle_defective_object();
    ASSERT_EQ(ap.capacity(), capacity - 1);
    ap.network_mut().kill_segment(0, 1);
    ap.memory().poison_block(1);
    ap.memory().write(0, arch::make_word_u(0xC0FFEE));
    ap.trace().set_enabled(true);
    ap.trace().set_capacity(1);
    ap.trace().event(0, obs::Layer::kAp, "ap", -1, "first");
    ap.trace().event(1, obs::Layer::kAp, "ap", -1, "second");
    ASSERT_EQ(ap.trace().dropped(), 1u);

    // An unfinished datapath: configured, fed, a few cycles run.
    const scaling::Job cut = random_job(rng, index++);
    ap.configure(cut.program);
    for (const auto& [port, words] : cut.inputs) ap.feed(port, words);
    ap.run(cut.expected_per_output, 3);
    ASSERT_TRUE(ap.has_datapath());

    ap.reset(config_for(target));
    ap::AdaptiveProcessor fresh(config_for(target));
    EXPECT_EQ(save_bytes(ap), save_bytes(fresh));
    EXPECT_FALSE(ap.has_datapath());
    EXPECT_EQ(ap.capacity(), fresh.capacity());
    EXPECT_EQ(ap.network().dead_segments(), 0u);
    EXPECT_EQ(ap.memory().poisoned_blocks(), 0);
    EXPECT_EQ(ap.memory().read(0).u, 0u);
    EXPECT_FALSE(ap.trace().enabled());
    EXPECT_EQ(ap.trace().dropped(), 0u);
    EXPECT_EQ(ap.trace().capacity(), 0u);
    EXPECT_TRUE(ap.trace().entries().empty());
    expect_same_stats(ap, fresh);

    // One more job on each: identical outcome, stats and state.
    const scaling::Job next = random_job(rng, index++);
    expect_same_outcome(serve(ap, next), serve(fresh, next));
    expect_same_stats(ap, fresh);
    EXPECT_EQ(save_bytes(ap), save_bytes(fresh));
  }
}

struct Chip {
  Chip() : fabric(8, 8, topology::ClusterSpec{}), noc(8, 8), mgr(fabric, noc) {}
  topology::STopologyFabric fabric;
  noc::NocFabric noc;
  scaling::ScalingManager mgr;
};

TEST(ScalingManager, ReleasedProcessorIsReused) {
  Chip chip;
  auto& mgr = chip.mgr;

  // Fuse -> release -> fuse hands back the same AP, reset to the new
  // size: no AP is built while a spare is left.
  const scaling::ProcId a = mgr.allocate(3);
  ASSERT_NE(a, scaling::kNoProc);
  const ap::AdaptiveProcessor* first = &mgr.processor(a);
  Xoshiro256 rng(7);
  serve(mgr.processor(a), random_job(rng, 0));
  mgr.release(a);
  EXPECT_EQ(mgr.spare_processors(), 1u);
  const scaling::ProcId b = mgr.allocate(5);
  ASSERT_NE(b, scaling::kNoProc);
  EXPECT_EQ(&mgr.processor(b), first);
  EXPECT_EQ(mgr.spare_processors(), 0u);
  EXPECT_EQ(save_bytes(mgr.processor(b)),
            save_bytes(ap::AdaptiveProcessor(config_for(5))));

  // Up- and down-scaling reset the AP in place.
  serve(mgr.processor(b), random_job(rng, 1));
  ASSERT_TRUE(mgr.upscale(b, 2));
  EXPECT_EQ(&mgr.processor(b), first);
  EXPECT_EQ(save_bytes(mgr.processor(b)),
            save_bytes(ap::AdaptiveProcessor(config_for(7))));
  serve(mgr.processor(b), random_job(rng, 2));
  mgr.downscale(b, 2);
  EXPECT_EQ(&mgr.processor(b), first);
  EXPECT_EQ(save_bytes(mgr.processor(b)),
            save_bytes(ap::AdaptiveProcessor(config_for(2))));
  mgr.release(b);

  // Random churn: the spare list never outgrows the peak number of live
  // processors, and every fuse while a spare is left reuses one.
  std::vector<scaling::ProcId> live;
  std::size_t peak = 1;
  for (int step = 0; step < 400; ++step) {
    if (live.empty() || (live.size() < 12 && rng.uniform(2) == 0)) {
      const std::size_t spares = mgr.spare_processors();
      const scaling::ProcId id = mgr.allocate(1 + rng.uniform(4));
      if (id == scaling::kNoProc) continue;
      live.push_back(id);
      EXPECT_EQ(mgr.spare_processors(), spares == 0 ? 0 : spares - 1);
    } else {
      const std::size_t k = rng.uniform(live.size());
      mgr.release(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    }
    peak = std::max(peak, live.size());
    EXPECT_LE(mgr.spare_processors() + live.size(), peak);
  }
}

}  // namespace
}  // namespace vlsip

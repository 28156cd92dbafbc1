// Heap traffic of a warm adaptive processor. A served job is configure
// -> feed -> run -> release on an AP that already served jobs; once the
// object library, WSRF, executor arenas and program storage have seen a
// kernel, repeating that cycle must not touch the heap. This binary
// replaces the global operator new with a counting one, so it is its
// own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "ap/adaptive_processor.hpp"
#include "core/vlsi_processor.hpp"
#include "noc/noc_fabric.hpp"
#include "obs/metrics.hpp"
#include "scaling/scaling_manager.hpp"
#include "topology/s_topology.hpp"
#include "workload/kernels.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vlsip::ap {
namespace {

/// Allocations made inside one job's configure, feed, run and release.
struct JobAllocations {
  std::size_t configure = 0;
  std::size_t feed = 0;
  std::size_t run = 0;
  std::size_t release = 0;
  std::size_t total() const { return configure + feed + run + release; }
};

class AllocationWindow {
 public:
  AllocationWindow() {
    g_allocations.store(0);
    g_counting.store(true);
  }
  ~AllocationWindow() { g_counting.store(false); }
  std::size_t take() { return g_allocations.exchange(0); }
};

/// Serves `job` on `ap` once, counting allocations per layer.
JobAllocations serve(AdaptiveProcessor& ap, const scaling::Job& job) {
  JobAllocations a;
  AllocationWindow window;
  ap.configure(job.program);
  a.configure = window.take();
  for (const auto& [port, words] : job.inputs) ap.feed(port, words);
  a.feed = window.take();
  const ExecStats exec = ap.run(job.expected_per_output, 200000);
  a.run = window.take();
  ap.release_datapath();
  a.release = window.take();
  EXPECT_TRUE(exec.completed) << job.name;
  return a;
}

ApConfig c64() {
  ApConfig cfg;
  cfg.capacity = 64;
  return cfg;
}

scaling::Job kernel_job(workload::KernelKind kind, int width,
                        Xoshiro256& rng) {
  auto kernel = workload::build_kernel({kind, width});
  EXPECT_TRUE(kernel.ok()) << kernel.status().to_string();
  return workload::make_job(*kernel, 4, rng,
                            kernel->label + "#" + std::to_string(width));
}

TEST(WarmAlloc, RepeatedKernelAllocatesNothing) {
  Xoshiro256 rng(7);
  const scaling::Job job = kernel_job(workload::KernelKind::kGas, 3, rng);
  AdaptiveProcessor ap(c64());
  serve(ap, job);  // cold: sizes every table
  for (int pass = 2; pass <= 5; ++pass) {
    const JobAllocations a = serve(ap, job);
    EXPECT_EQ(a.configure, 0u) << "pass " << pass;
    EXPECT_EQ(a.feed, 0u) << "pass " << pass;
    EXPECT_EQ(a.run, 0u) << "pass " << pass;
    EXPECT_EQ(a.release, 0u) << "pass " << pass;
  }
}

/// A fixed 20-kernel mix over every family, widths 2..8.
std::vector<scaling::Job> kernel_mix() {
  Xoshiro256 rng(11);
  std::vector<scaling::Job> mix;
  for (int i = 0; i < 20; ++i) {
    const auto kind = static_cast<workload::KernelKind>(
        static_cast<std::size_t>(i) % workload::kKernelKinds);
    mix.push_back(kernel_job(kind, 2 + (i * 3) % 7, rng));
  }
  return mix;
}

TEST(WarmAlloc, KernelMixAveragesAtMostTwoPerJob) {
  const std::vector<scaling::Job> mix = kernel_mix();
  AdaptiveProcessor ap(c64());
  for (const auto& job : mix) serve(ap, job);  // warm-up round

  constexpr int kRounds = 3;
  JobAllocations sum;
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& job : mix) {
      const JobAllocations a = serve(ap, job);
      sum.configure += a.configure;
      sum.feed += a.feed;
      sum.run += a.run;
      sum.release += a.release;
    }
  }
  const double jobs = kRounds * static_cast<double>(mix.size());
  EXPECT_LE(static_cast<double>(sum.total()) / jobs, 2.0)
      << "configure " << sum.configure / jobs << ", feed "
      << sum.feed / jobs << ", run " << sum.run / jobs << ", release "
      << sum.release / jobs << " per job";
  EXPECT_EQ(sum.feed, 0u);
  EXPECT_EQ(sum.run, 0u);
  EXPECT_EQ(sum.release, 0u);
}

TEST(WarmAlloc, FirstJobOnRecycledProcessor) {
  // One job per processor, the paper's fuse -> serve -> release cycle:
  // each job of the mix gets its own fuse over k = 1..8 clusters. The
  // fuse hands back a released AP reset to k clusters, so the job's
  // configure runs on the warm path even though the processor is new.
  const std::vector<scaling::Job> mix = kernel_mix();
  topology::STopologyFabric fabric(8, 8, topology::ClusterSpec{});
  noc::NocFabric noc(8, 8);
  scaling::ScalingManager manager(fabric, noc);
  const auto serve_fused = [&](const scaling::Job& job, std::size_t k) {
    const scaling::ProcId id = manager.allocate(k);
    EXPECT_NE(id, scaling::kNoProc);
    AdaptiveProcessor& ap = manager.processor(id);
    JobAllocations a;
    AllocationWindow window;
    ap.configure(job.program);
    a.configure = window.take();
    for (const auto& [port, words] : job.inputs) ap.feed(port, words);
    a.feed = window.take();
    const ExecStats exec = ap.run(job.expected_per_output, 200000);
    a.run = window.take();
    manager.release(id);
    a.release = window.take();
    EXPECT_TRUE(exec.completed) << job.name;
    return a;
  };
  std::size_t k = 0;
  for (const auto& job : mix) serve_fused(job, 1 + k++ % 8);  // warm-up

  constexpr int kRounds = 3;
  JobAllocations sum;
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& job : mix) {
      const JobAllocations a = serve_fused(job, 1 + k++ % 8);
      sum.configure += a.configure;
      sum.feed += a.feed;
      sum.run += a.run;
      sum.release += a.release;
    }
  }
  EXPECT_EQ(manager.spare_processors(), 1u);
  const double jobs = kRounds * static_cast<double>(mix.size());
  EXPECT_LE(static_cast<double>(sum.total()) / jobs, 2.0)
      << "configure " << sum.configure / jobs << ", feed "
      << sum.feed / jobs << ", run " << sum.run / jobs << ", release "
      << sum.release / jobs << " per job";

  // The reset itself is free once the AP has been every size.
  const scaling::ProcId id = manager.allocate(1);
  AdaptiveProcessor& ap = manager.processor(id);
  const topology::ClusterSpec spec;
  AllocationWindow window;
  for (int clusters = 8; clusters >= 1; --clusters) {
    ApConfig cfg;
    cfg.capacity = clusters * spec.stack_capacity();
    cfg.memory_blocks = clusters * spec.memory_objects;
    ap.reset(cfg);
  }
  EXPECT_EQ(window.take(), 0u);
}

TEST(WarmAlloc, ChipObsPublicationAllocatesNothing) {
  // The farm's post-batch publication (ChipFarm::publish_obs): copy the
  // probes of retired chips, usually none, into the spare registry,
  // export the live chip on top, swap it with the published one. Once
  // both registries have held a full export, publishing must not touch
  // the heap.
  const std::vector<scaling::Job> mix = kernel_mix();
  core::VlsiProcessor chip{core::ChipConfig{}};
  std::size_t k = 0;
  for (const auto& job : mix) {
    const scaling::ProcId id = chip.fuse(1 + k++ % 8);
    ASSERT_NE(id, scaling::kNoProc);
    const auto result = chip.run_program(id, job.program, job.inputs,
                                         job.expected_per_output, 200000);
    EXPECT_TRUE(result.exec.completed) << job.name;
    chip.release(id);
  }
  const obs::MetricRegistry retired;
  obs::MetricRegistry published;
  obs::MetricRegistry next;
  const auto publish = [&] {
    next = retired;
    chip.export_obs(next);
    published.swap(next);
  };
  publish();
  publish();
  AllocationWindow window;
  for (int batch = 0; batch < 8; ++batch) publish();
  EXPECT_EQ(window.take(), 0u);
  EXPECT_FALSE(published.empty());
}

}  // namespace
}  // namespace vlsip::ap

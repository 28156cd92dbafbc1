// Golden chip probe export: VlsiProcessor::export_obs JSON for a fixed
// deterministic pack, served one fused processor per batch at batch
// ceilings 1 and 8, compared byte for byte with tests/golden/.
//
// The serve loop mirrors the farm's post-batch publication: fuse, run
// the batch, release, then export the whole chip into a fresh registry.
// A resident processor stays fused for the whole run (live AP probes
// next to retired ones); part-way through, its head cluster faults
// (release, quarantine, re-fuse) and the chip is compacted. The golden
// file holds the last published JSON plus an FNV-1a digest over every
// batch's JSON, so each publish is pinned, not only the final one.
//
// On a mismatch the test writes what it produced to
// obs_golden_actual_b<ceiling>.txt in the working directory.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "core/vlsi_processor.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "workload/scenario.hpp"

namespace vlsip {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::string registry_json(const obs::MetricRegistry& r) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  r.write_json(w);
  return out.str();
}

/// Serves `@preset:mixed:7:64` on one energy-metered chip with at most
/// `ceiling` consecutive same-size jobs per fused processor; returns the
/// golden text (last publish + digest line).
std::string serve_and_publish(std::size_t ceiling) {
  const auto pack = workload::load_pack("@preset:mixed:7:64");
  EXPECT_TRUE(pack.ok()) << pack.status().to_string();
  const workload::JobStream stream =
      workload::JobStreamBuilder().pack(*pack).build();

  core::ChipConfig config;
  config.energy.enabled = true;
  core::VlsiProcessor chip(config);
  const auto run = [&chip](scaling::ProcId proc, const scaling::Job& job) {
    const std::uint64_t budget =
        job.max_cycles != 0 ? job.max_cycles : (1u << 22);
    (void)chip.run_program(proc, job.program, job.inputs,
                           job.expected_per_output, budget);
  };

  const scaling::Job& first = stream.jobs.front().job;
  const scaling::ProcId resident = chip.fuse(first.requested_clusters);
  EXPECT_NE(resident, scaling::kNoProc);
  run(resident, first);

  std::uint64_t digest = 0xCBF29CE484222325ull;
  std::string last;
  std::size_t batches = 0;
  for (std::size_t pos = 1; pos < stream.jobs.size();) {
    const std::size_t clusters = stream.jobs[pos].job.requested_clusters;
    scaling::ProcId proc = chip.fuse(clusters);
    if (proc == scaling::kNoProc && chip.manager().compact() > 0) {
      proc = chip.fuse(clusters);
    }
    EXPECT_NE(proc, scaling::kNoProc) << "batch " << batches;
    std::size_t taken = 0;
    while (pos < stream.jobs.size() && taken < ceiling &&
           stream.jobs[pos].job.requested_clusters == clusters) {
      if (proc != scaling::kNoProc) run(proc, stream.jobs[pos].job);
      ++pos;
      ++taken;
    }
    if (proc != scaling::kNoProc) chip.release(proc);
    ++batches;
    if (batches == 5) {
      // The resident's head cluster fails: the fault path releases it
      // and re-fuses a replacement, which stays live to the end.
      scaling::ScalingManager& manager = chip.manager();
      const auto head =
          manager.regions().region(manager.info(resident).region).path[0];
      EXPECT_NE(manager.refuse_around(head).replacement, scaling::kNoProc);
    }
    if (batches == 9) (void)chip.manager().compact();

    obs::MetricRegistry published;
    chip.export_obs(published);
    last = registry_json(published);
    digest = fnv1a(digest, last);
  }
  std::ostringstream out;
  out << last << "\n"
      << "batches " << batches << " digest " << std::hex << digest << "\n";
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void expect_golden(std::size_t ceiling) {
  const std::string actual = serve_and_publish(ceiling);
  const std::string name = "obs_export_b" + std::to_string(ceiling) + ".txt";
  const std::string golden =
      read_file(std::string(VLSIP_GOLDEN_DIR) + "/" + name);
  EXPECT_FALSE(golden.empty()) << "missing golden file " << name;
  if (actual != golden) {
    const std::string dump =
        "obs_golden_actual_b" + std::to_string(ceiling) + ".txt";
    std::ofstream(dump, std::ios::binary) << actual;
    ADD_FAILURE() << "chip export differs from tests/golden/" << name
                  << "; actual bytes written to " << dump;
  }
}

TEST(ObsGolden, ChipExportAtBatchCeilingOne) { expect_golden(1); }

TEST(ObsGolden, ChipExportAtBatchCeilingEight) { expect_golden(8); }

}  // namespace
}  // namespace vlsip

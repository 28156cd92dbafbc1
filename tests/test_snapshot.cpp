// Checkpoint/restore: the snapshot byte format, the whole-chip facade
// round trip, the Status/builder API surface, the replay driver, and
// the farm's restore-replacement-from-checkpoint path.
//
// The bit-identity property sweep (run-N -> save -> restore -> continue
// == uninterrupted run, 100 seeds) lives in test_properties.cpp; this
// file pins down the format contract (reject wrong magic, future
// versions, truncation, section drift — never a partial restore) and
// the API redesign around it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "arch/datapath.hpp"
#include "common/activity_set.hpp"
#include "common/rng.hpp"
#include "core/builder.hpp"
#include "core/status.hpp"
#include "core/vlsi_processor.hpp"
#include "fault/fault_plan.hpp"
#include "net/wire.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/farm_config_builder.hpp"
#include "runtime/manifest.hpp"
#include "runtime/replay.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip {
namespace {

// --- byte format ----------------------------------------------------------

TEST(SnapshotFormat, PrimitivesRoundTrip) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.u8(0xAB);
  w.b(true);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.i32(-7);
  w.f64(3.5);
  w.str("hello");
  w.section("unit.section");
  w.vec_u32({1, 2, 3});
  w.vec_bool({true, false, true});

  snapshot::Reader r(snap);
  EXPECT_EQ(r.version(), snapshot::kVersion);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.f64(), 3.5);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_NO_THROW(r.section("unit.section"));
  EXPECT_EQ(r.vec_u32(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(r.vec_bool(), (std::vector<bool>{true, false, true}));
  EXPECT_TRUE(r.done());
}

TEST(SnapshotFormat, ActivitySetWordsRoundTripRebuildsSummary) {
  // The hierarchical ActivitySet checkpoints as flat bitwords only —
  // the format PR 5/6 snapshots already carry. A restore must rebuild
  // the derived summary level so post-restore drains are identical.
  ActivitySet original(9000);  // > one summary word of bitwords
  for (const std::uint32_t id : {0u, 63u, 64u, 4095u, 4096u, 8191u, 8999u}) {
    original.insert(id);
  }

  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.u64(original.size());
  w.vec_u64(original.words());

  snapshot::Reader r(snap);
  ActivitySet restored(9000);
  const auto size = static_cast<std::size_t>(r.u64());
  ASSERT_TRUE(restored.restore_words(size, r.vec_u64()));

  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.count(), original.count());
  EXPECT_EQ(restored.words(), original.words());
  std::vector<std::uint32_t> a, b;
  original.drain_to(a);
  restored.drain_to(b);
  EXPECT_EQ(a, b);
  // The rebuilt summary must accept post-restore mutation exactly like
  // a never-snapshotted set: re-insert and drain again.
  for (const auto id : a) restored.insert(id);
  restored.insert(4097);
  b.clear();
  restored.drain_to(b);
  ASSERT_EQ(b.size(), a.size() + 1);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));

  // Words no 9000-id set has, one word too many or a bit past id 8999,
  // are refused and leave the set as it was.
  std::vector<std::uint64_t> longer = original.words();
  longer.push_back(1);
  EXPECT_FALSE(restored.restore_words(9000, longer));
  std::vector<std::uint64_t> stray = original.words();
  stray.back() |= 1ull << 63;
  EXPECT_FALSE(restored.restore_words(9000, stray));
  EXPECT_EQ(restored.words(), original.words());
}

TEST(SnapshotFormat, RejectsWrongMagic) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.u64(1);
  snap.bytes()[0] ^= 0xFF;
  EXPECT_THROW(snapshot::Reader r(snap), snapshot::SnapshotError);
}

TEST(SnapshotFormat, RejectsFutureVersion) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.u64(1);
  // The version lives in bytes [4, 8); a reader from today must refuse
  // a snapshot stamped by tomorrow's writer rather than misread it.
  snap.bytes()[4] = static_cast<std::uint8_t>(snapshot::kVersion + 1);
  try {
    snapshot::Reader r(snap);
    FAIL() << "future version accepted";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos);
  }
}

TEST(SnapshotFormat, RejectsVersionOneNamingBothVersions) {
  // Version 1 predates the CSD route span; there is no migration.
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.u64(1);
  snap.bytes()[4] = 1;
  try {
    snapshot::Reader r(snap);
    FAIL() << "version 1 accepted";
  } catch (const snapshot::SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 1 "), std::string::npos) << what;
    EXPECT_NE(what.find("version " + std::to_string(snapshot::kVersion)),
              std::string::npos)
        << what;
  }
}

TEST(SnapshotFormat, AcceptsCurrentVersion) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.str("payload");
  snapshot::Reader r(snap);
  EXPECT_EQ(r.version(), snapshot::kVersion);
  EXPECT_EQ(r.str(), "payload");
}

TEST(SnapshotFormat, RejectsHeaderlessBuffer) {
  snapshot::Snapshot snap;
  snap.bytes() = {0x50, 0x4E, 0x53};
  EXPECT_THROW(snapshot::Reader r(snap), snapshot::SnapshotError);
}

TEST(SnapshotFormat, RejectsTruncation) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.u64(7);
  snap.bytes().pop_back();
  snapshot::Reader r(snap);
  EXPECT_THROW(r.u64(), snapshot::SnapshotError);
}

TEST(SnapshotFormat, SectionMismatchNamesBothTags) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.section("ap.executor");
  snapshot::Reader r(snap);
  try {
    r.section("noc.router");
    FAIL() << "section mismatch accepted";
  } catch (const snapshot::SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("noc.router"), std::string::npos);
    EXPECT_NE(what.find("ap.executor"), std::string::npos);
  }
}

TEST(SnapshotFormat, CorruptCountCannotDriveGiantAllocation) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.u64(0xFFFFFFFFFFFFull);  // a "length" far beyond the payload
  snapshot::Reader r(snap);
  EXPECT_THROW(r.vec_u64(), snapshot::SnapshotError);
}

TEST(SnapshotFormat, FileRoundTrip) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.section("file.test");
  w.u64(99);
  const std::string path = ::testing::TempDir() + "/roundtrip.vsnap";
  snapshot::write_file(snap, path);
  const auto loaded = snapshot::read_file(path);
  EXPECT_EQ(loaded.bytes(), snap.bytes());
  std::remove(path.c_str());
}

// --- whole-chip facade ----------------------------------------------------

core::ChipConfig small_chip() {
  return core::ChipConfigBuilder().grid(2, 2).build();
}

TEST(ChipCheckpoint, SaveRestoreSaveIsByteIdentical) {
  // Determinism contract: restoring a checkpoint and re-saving must
  // reproduce the exact bytes — no timestamps, pointers, or hash
  // ordering in the encoding.
  core::VlsiProcessor chip(small_chip());
  const auto proc = chip.fuse(2);
  ASSERT_NE(proc, scaling::kNoProc);
  const auto result = chip.run_program(
      proc, arch::linear_pipeline_program(3),
      {{"in", {arch::make_word_i(5)}}}, 1, 100000);
  ASSERT_TRUE(result.exec.completed);

  snapshot::Snapshot first;
  ASSERT_TRUE(chip.save(first).ok());

  core::VlsiProcessor twin(small_chip());
  ASSERT_TRUE(twin.restore(first).ok());
  snapshot::Snapshot second;
  ASSERT_TRUE(twin.save(second).ok());
  EXPECT_EQ(first.bytes(), second.bytes());
}

TEST(ChipCheckpoint, RestoredChipContinuesIdentically) {
  core::VlsiProcessor chip(small_chip());
  const auto proc = chip.fuse(2);
  ASSERT_NE(proc, scaling::kNoProc);

  snapshot::Snapshot checkpoint;
  ASSERT_TRUE(chip.save(checkpoint).ok());

  core::VlsiProcessor twin(small_chip());
  ASSERT_TRUE(twin.restore(checkpoint).ok());

  // Both chips now hold the same fused processor; the same program must
  // behave identically on each.
  const auto inputs = std::map<std::string, std::vector<arch::Word>>{
      {"in", {arch::make_word_i(9)}}};
  const auto a =
      chip.run_program(proc, arch::linear_pipeline_program(4), inputs, 1,
                       100000);
  const auto b =
      twin.run_program(proc, arch::linear_pipeline_program(4), inputs, 1,
                       100000);
  EXPECT_EQ(a.exec.cycles, b.exec.cycles);
  EXPECT_EQ(a.exec.firings, b.exec.firings);
  EXPECT_EQ(a.config.cycles, b.config.cycles);
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (const auto& [port, words] : a.outputs) {
    const auto it = b.outputs.find(port);
    ASSERT_NE(it, b.outputs.end());
    ASSERT_EQ(words.size(), it->second.size());
    for (std::size_t i = 0; i < words.size(); ++i) {
      EXPECT_EQ(words[i].u, it->second[i].u);
    }
  }
}

TEST(ChipCheckpoint, GeometryMismatchIsRejected) {
  core::VlsiProcessor chip(small_chip());
  snapshot::Snapshot checkpoint;
  ASSERT_TRUE(chip.save(checkpoint).ok());

  core::VlsiProcessor bigger(core::ChipConfigBuilder().grid(4, 4).build());
  const Status restored = bigger.restore(checkpoint);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot);
  EXPECT_NE(restored.message().find("geometry"), std::string::npos);
}

TEST(ChipCheckpoint, CorruptBufferSurfacesAsStatus) {
  core::VlsiProcessor chip(small_chip());
  snapshot::Snapshot checkpoint;
  ASSERT_TRUE(chip.save(checkpoint).ok());
  checkpoint.bytes().resize(checkpoint.size() / 2);
  const Status restored = chip.restore(checkpoint);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot);
}

// --- chip lifetime ----------------------------------------------------------

/// One step of a seeded fuse/release churn: fuse 1-8 clusters while
/// fewer than three processors are live, otherwise release one.
/// Returns true when it fused.
bool churn_step(core::VlsiProcessor& chip, Xoshiro256& rng) {
  const std::vector<scaling::ProcId> live = chip.manager().live_processors();
  if (live.size() < 3 && rng.uniform(4) != 0) {
    return chip.fuse(1 + rng.uniform(8)) != scaling::kNoProc;
  }
  if (!live.empty()) chip.release(live[rng.uniform(live.size())]);
  return false;
}

std::vector<std::uint8_t> chip_bytes(const core::VlsiProcessor& chip) {
  snapshot::Snapshot snap;
  EXPECT_TRUE(chip.save(snap).ok());
  return snap.bytes();
}

TEST(ChipCheckpoint, ChurnLeavesTheCheckpointFlat) {
  // A chip keeps only live state: after 100 000 fuses, four cluster
  // faults and a compaction its checkpoint is the size it was after
  // 1 000 fuses, measured each time with every processor released.
  core::VlsiProcessor chip{core::ChipConfig{}};
  Xoshiro256 rng(19);
  std::size_t fuses = 0;
  const std::size_t fault_at[] = {500, 1200, 30000, 60000};
  std::size_t faults = 0;
  bool compacted = false;
  const auto churn_until = [&](std::size_t target) {
    while (fuses < target) {
      if (churn_step(chip, rng)) ++fuses;
      if (faults < 4 && fuses >= fault_at[faults]) {
        (void)chip.manager().refuse_around(
            static_cast<topology::ClusterId>(5 + 17 * faults));
        ++faults;
      }
      if (!compacted && fuses >= 700) {
        (void)chip.manager().compact();
        compacted = true;
      }
    }
  };
  const auto quiesced_size = [&chip] {
    for (const scaling::ProcId id : chip.manager().live_processors()) {
      chip.release(id);
    }
    return chip_bytes(chip).size();
  };

  churn_until(1000);
  const std::size_t at_1k = quiesced_size();
  churn_until(1500);

  // save -> restore -> continue is byte-identical to continuing.
  ASSERT_FALSE(chip.manager().live_processors().empty());
  snapshot::Snapshot checkpoint;
  ASSERT_TRUE(chip.save(checkpoint).ok());
  core::VlsiProcessor twin{core::ChipConfig{}};
  ASSERT_TRUE(twin.restore(checkpoint).ok());
  Xoshiro256 twin_rng = rng;
  for (int i = 0; i < 2000; ++i) {
    if (churn_step(chip, rng)) ++fuses;
    churn_step(twin, twin_rng);
  }
  ASSERT_EQ(chip_bytes(chip), chip_bytes(twin));

  churn_until(100000);
  const std::size_t at_100k = quiesced_size();
  EXPECT_NEAR(static_cast<double>(at_100k), static_cast<double>(at_1k),
              static_cast<double>(at_1k) / 100);
  EXPECT_EQ(chip.manager().defective_clusters(), 4u);
}

// --- Status facade --------------------------------------------------------

TEST(StatusFacade, TryFuseReportsExhaustionAsUnavailable) {
  core::VlsiProcessor chip(small_chip());
  const auto ok = chip.try_fuse(2);
  ASSERT_TRUE(ok.ok());
  EXPECT_NE(*ok, scaling::kNoProc);

  const auto too_big = chip.try_fuse(64);
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kUnavailable);
}

TEST(StatusFacade, TrySplitReportsBadIdAsInvalidArgument) {
  core::VlsiProcessor chip(small_chip());
  const Status s = chip.try_split(scaling::ProcId{9999}, 1);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(StatusFacade, StatusToStringCarriesCodeName) {
  const Status s(StatusCode::kCorruptSnapshot, "bad bytes");
  EXPECT_EQ(s.to_string(), "corrupt_snapshot: bad bytes");
  EXPECT_EQ(Status::Ok().to_string(), "ok");
}

// --- config builders ------------------------------------------------------

TEST(Builders, ChipConfigBuilderValidates) {
  const auto bad = core::ChipConfigBuilder().grid(0, 3).try_build();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  const auto cfg = core::ChipConfigBuilder()
                       .grid(3, 2)
                       .layers(2)
                       .router(8, 2)
                       .event_driven(true)
                       .build();
  EXPECT_EQ(cfg.width, 3);
  EXPECT_EQ(cfg.height, 2);
  EXPECT_EQ(cfg.layers, 2);
  EXPECT_EQ(cfg.router.queue_depth, 8u);
  EXPECT_EQ(cfg.router.virtual_channels, 2u);
}

TEST(Builders, FarmConfigBuilderValidates) {
  const auto bad = runtime::FarmConfigBuilder().workers(0).try_build();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  const auto cfg = runtime::FarmConfigBuilder()
                       .deterministic()
                       .batch(4)
                       .checkpoint_every(2)
                       .build();
  EXPECT_TRUE(cfg.deterministic);
  EXPECT_EQ(cfg.batch.max_jobs, 4u);
  EXPECT_EQ(cfg.checkpoint_every_batches, 2u);
}

// --- replay driver --------------------------------------------------------

scaling::Job pipeline_job(const std::string& name, std::int64_t token) {
  scaling::Job job;
  job.name = name;
  job.program = arch::linear_pipeline_program(3);
  job.inputs = {{"in", {arch::make_word_i(token)}}};
  job.expected_per_output = 1;
  job.requested_clusters = 1;
  return job;
}

TEST(Replay, LogRoundTripsThroughSnapshot) {
  // The migration payload: a chip checkpoint plus the unstarted jobs,
  // each paired with its id, round-trip through the snapshot codec.
  net::CheckpointMsg msg;
  msg.worker_id = 5;
  msg.checkpoint_tick = 777;
  core::VlsiProcessor chip(small_chip());
  ASSERT_TRUE(chip.save(msg.chip).ok());
  msg.jobs.resize(2);
  msg.jobs[0].job_id = 40;
  msg.jobs[0].job = pipeline_job("alpha", 3);
  msg.jobs[1].job_id = 41;
  msg.jobs[1].job = pipeline_job("beta", -8);

  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  msg.save(w);
  snapshot::Reader r(snap);
  net::CheckpointMsg back;
  back.restore(r);
  EXPECT_EQ(r.bytes_remaining(), 0u);

  EXPECT_EQ(back.worker_id, 5u);
  EXPECT_EQ(back.checkpoint_tick, 777u);
  EXPECT_EQ(back.chip.bytes(), msg.chip.bytes());
  ASSERT_EQ(back.jobs.size(), 2u);
  EXPECT_EQ(back.jobs[0].job_id, 40u);
  EXPECT_EQ(back.jobs[0].job.name, "alpha");
  EXPECT_EQ(back.jobs[1].job_id, 41u);
  EXPECT_EQ(back.jobs[1].job.name, "beta");
  EXPECT_EQ(back.jobs[1].job.inputs.at("in")[0].i, -8);
}

TEST(Replay, ReplayFromCheckpointServesRemainingJobs) {
  // A checkpoint resumes on a farm slot: the jobs get the farm's
  // service — one attempt each, the energy bill of a metering chip,
  // the checkpoint tick as their resume point — in submission order.
  const runtime::FarmConfig cfg = runtime::FarmConfigBuilder()
                                      .chip(core::ChipConfigBuilder()
                                                .grid(2, 2)
                                                .energy(true)
                                                .build())
                                      .batch(4)
                                      .build();
  snapshot::Snapshot checkpoint;
  {
    // The chip a farm slot served one job on, checkpointed idle.
    runtime::FarmConfig source_cfg = cfg;
    source_cfg.deterministic = true;
    runtime::ChipFarm source(source_cfg);
    source.submit(pipeline_job("done-already", 1));
    source.drain();
    ASSERT_TRUE(source.save_chip(0, checkpoint).ok());
  }

  const auto outcomes = runtime::replay_from(
      cfg, checkpoint, 42,
      {pipeline_job("pending-a", 2), pipeline_job("pending-b", 3)});
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().to_string();
  ASSERT_EQ(outcomes->size(), 2u);
  for (const auto& o : *outcomes) {
    EXPECT_EQ(o.status, scaling::JobStatus::kCompleted);
    EXPECT_EQ(o.attempts, 1u);
    EXPECT_EQ(o.resumed_from_cycle, 42u);
    EXPECT_GT(o.energy_fj, 0u);
  }
  EXPECT_EQ((*outcomes)[0].name, "pending-a");
  EXPECT_EQ((*outcomes)[1].name, "pending-b");

  // A checkpoint of another geometry does not restore: typed, and no
  // job is served.
  core::VlsiProcessor other(core::ChipConfigBuilder().grid(3, 3).build());
  snapshot::Snapshot foreign;
  ASSERT_TRUE(other.save(foreign).ok());
  const auto refused =
      runtime::replay_from(cfg, foreign, 42, {pipeline_job("never", 4)});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruptSnapshot);

  // Neither is a job no farm admits.
  scaling::Job empty = pipeline_job("empty", 5);
  empty.program = {};
  const auto invalid = runtime::replay_from(cfg, checkpoint, 42, {empty});
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
}

// --- farm integration -----------------------------------------------------

TEST(FarmCheckpoint, QuarantineRestoresReplacementFromLastCheckpoint) {
  // A worker crash mid-manifest quarantines the chip. With
  // checkpointing on, the replacement must resume from the last
  // batch-boundary checkpoint — visible as resumed_from_cycle on every
  // outcome it serves — and still lose zero jobs.
  runtime::SyntheticSpec spec;
  spec.jobs = 16;
  spec.seed = 3;
  const auto jobs = runtime::synthetic_jobs(spec);

  fault::FaultPlan plan;
  plan.events = {{8, fault::FaultKind::kWorkerCrash, 0, 0}};
  // Batches of 4: the crash at serve-sequence 8 lands in the third
  // batch, after two batch-boundary checkpoints have been taken.
  runtime::FarmConfig cfg = runtime::FarmConfigBuilder()
                                .deterministic()
                                .batch(4)
                                .fault_tolerance(plan)
                                .checkpoint_every(1)
                                .build();

  runtime::ChipFarm farm(cfg);
  for (const auto& job : jobs) {
    EXPECT_TRUE(farm.submit(job).admitted);
  }
  farm.drain();
  const auto metrics = farm.metrics();
  const auto log = farm.outcome_log();
  farm.shutdown();

  EXPECT_EQ(metrics.admitted, metrics.served() + metrics.cancelled);
  EXPECT_EQ(metrics.completed, 16u);
  EXPECT_EQ(metrics.quarantined_chips, 1u);
  EXPECT_GE(metrics.checkpoints, 1u);
  EXPECT_EQ(metrics.chip_restores, 1u);

  std::size_t resumed = 0;
  for (const auto& o : log) {
    if (o.resumed_from_cycle > 0) ++resumed;
  }
  EXPECT_GE(resumed, 1u) << "no outcome recorded the restore point";
}

TEST(FarmCheckpoint, EveryBatchChaosLosesNothing) {
  // checkpoint_every_batches=1 with a crash and a chip fault mid-run:
  // every admitted job still resolves, and the replacement chip
  // restores from the last flat checkpoint.
  runtime::SyntheticSpec spec;
  spec.jobs = 16;
  spec.seed = 3;
  const auto jobs = runtime::synthetic_jobs(spec);

  fault::FaultPlan plan;
  plan.events = {{6, fault::FaultKind::kCluster, 1, 0},
                 {11, fault::FaultKind::kWorkerCrash, 0, 0}};
  runtime::FarmConfig cfg = runtime::FarmConfigBuilder()
                                .deterministic()
                                .batch(4)
                                .fault_tolerance(plan)
                                .checkpoint_every(1)
                                .build();

  runtime::ChipFarm farm(cfg);
  for (const auto& job : jobs) {
    EXPECT_TRUE(farm.submit(job).admitted);
  }
  farm.drain();
  const auto metrics = farm.metrics();
  const auto log = farm.outcome_log();
  farm.shutdown();

  // No admitted job lost: everything resolved one way or another.
  EXPECT_EQ(metrics.admitted, metrics.served() + metrics.cancelled);
  EXPECT_EQ(log.size(), metrics.served());
  EXPECT_EQ(metrics.quarantined_chips, 1u);
  EXPECT_EQ(metrics.chip_restores, 1u);
  EXPECT_GE(metrics.checkpoints, 2u);

  std::size_t resumed = 0;
  for (const auto& o : log) {
    if (o.resumed_from_cycle > 0) ++resumed;
  }
  EXPECT_GE(resumed, 1u) << "no outcome recorded the restore point";
}

TEST(FarmCheckpoint, CheckpointingOffByDefaultAndInvisible) {
  // checkpoint_every_batches defaults to 0: no checkpoints, no
  // restores, outcomes bit-identical to a farm that has never heard of
  // snapshots (the hot path must not change).
  runtime::SyntheticSpec spec;
  spec.jobs = 8;
  spec.seed = 11;
  const auto jobs = runtime::synthetic_jobs(spec);

  runtime::FarmConfig plain;
  plain.deterministic = true;
  runtime::ChipFarm farm(plain);
  for (const auto& job : jobs) farm.submit(job);
  farm.drain();
  const auto metrics = farm.metrics();
  const auto log = farm.outcome_log();
  farm.shutdown();

  EXPECT_EQ(metrics.checkpoints, 0u);
  EXPECT_EQ(metrics.chip_restores, 0u);
  for (const auto& o : log) {
    EXPECT_EQ(o.resumed_from_cycle, 0u);
  }
}

}  // namespace
}  // namespace vlsip

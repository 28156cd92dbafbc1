// Fuzz wall for the chip snapshot decoder. A chip snapshot arrives off
// the wire (ResumeMsg.chip on a drain migration), so
// VlsiProcessor::restore must treat it as hostile input: seeded bit
// flips and truncations of a real served farm's save_chip bytes either
// restore or fail with a typed Status — never an exception, never a
// crash.
//
// Everything derives from the seed list below, so a failure reproduces
// from its seed and trial alone. Runs under ASan/UBSan in CI (the
// sanitize job's Fuzz filter picks these tests up by name).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "arch/datapath.hpp"
#include "arch/serialize.hpp"
#include "common/rng.hpp"
#include "core/vlsi_processor.hpp"
#include "fault/fault_plan.hpp"
#include "live_table.hpp"
#include "noc/noc_fabric.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/farm_config_builder.hpp"
#include "runtime/manifest.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip {
namespace {

/// The chip snapshot a drained worker ships: a deterministic farm that
/// served a synthetic mix, with a cluster fault healed along the way so
/// the defect map and retired-processor state are non-trivial.
snapshot::Snapshot served_chip_snapshot() {
  runtime::SyntheticSpec spec;
  spec.jobs = 24;
  spec.seed = 11;
  fault::FaultPlan plan;
  plan.events = {{5, fault::FaultKind::kCluster, 3, 0}};
  runtime::ChipFarm farm(runtime::FarmConfigBuilder()
                             .deterministic()
                             .batch(4)
                             .fault_tolerance(plan)
                             .build());
  for (const auto& job : runtime::synthetic_jobs(spec)) farm.submit(job);
  farm.drain();
  snapshot::Snapshot snap;
  EXPECT_TRUE(farm.save_chip(0, snap).ok());
  farm.shutdown();
  return snap;
}

/// Applies one seeded mutation in place: a bit flip anywhere, or a cut
/// at any length (mid-header and mid-count included).
void mutate(std::vector<std::uint8_t>& bytes, Xoshiro256& rng) {
  if (bytes.empty()) return;
  if (rng.uniform(3) == 0) {
    bytes.resize(static_cast<std::size_t>(rng.uniform(bytes.size())));
  } else {
    const auto at = static_cast<std::size_t>(rng.uniform(bytes.size()));
    bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
  }
}

TEST(FuzzSnapshot, MutatedChipSnapshotsRestoreOrFailTyped) {
  const snapshot::Snapshot pristine = served_chip_snapshot();
  ASSERT_FALSE(pristine.empty());
  {
    core::VlsiProcessor chip{core::ChipConfig{}};
    ASSERT_TRUE(chip.restore(pristine).ok());
  }

  constexpr std::uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89};
  constexpr int kTrialsPerSeed = 300;
  std::size_t ok = 0;
  std::size_t typed = 0;
  for (const std::uint64_t seed : kSeeds) {
    Xoshiro256 rng(seed);
    for (int trial = 0; trial < kTrialsPerSeed; ++trial) {
      snapshot::Snapshot attacked = pristine;
      for (std::uint64_t m = rng.uniform(3) + 1; m > 0; --m) {
        mutate(attacked.bytes(), rng);
      }
      core::VlsiProcessor chip{core::ChipConfig{}};
      Status restored = Status::Ok();
      ASSERT_NO_THROW(restored = chip.restore(attacked))
          << "seed " << seed << ", trial " << trial;
      if (restored.ok()) {
        ++ok;
        continue;
      }
      ++typed;
      const auto code = restored.code();
      EXPECT_TRUE(code == StatusCode::kCorruptSnapshot ||
                  code == StatusCode::kInvalidArgument)
          << "seed " << seed << ", trial " << trial << ": untyped failure "
          << status_code_name(code) << ": " << restored.message();
    }
  }
  // Both outcomes must actually occur, or the mutations miss the
  // decoder (all OK) or never get past the header (all typed).
  EXPECT_GT(ok, 0u);
  EXPECT_GT(typed, 0u);
}

/// Live tables no scaling manager produces, each planted in an
/// otherwise valid chip snapshot: a chip that fused processors 0..3
/// and released 0, so ids 1..3 are live, the next id is 4 and region 0
/// is dead.
std::vector<snapshot::Snapshot> malformed_live_tables() {
  core::VlsiProcessor chip{core::ChipConfig{}};
  for (int i = 0; i < 4; ++i) EXPECT_NE(chip.fuse(1), scaling::kNoProc);
  chip.release(0);
  snapshot::Snapshot pristine;
  EXPECT_TRUE(chip.save(pristine).ok());
  const std::vector<std::uint8_t>& bytes = pristine.bytes();
  const auto at = test_support::locate_live_table(bytes);
  EXPECT_EQ(test_support::read_u64(bytes, at.count), 3u);

  // The first free cluster's and the first owned cluster's entries in
  // the ownership map.
  std::size_t free_owner = 0;
  std::size_t owned = 0;
  for (std::size_t c = chip.total_clusters(); c-- > 0;) {
    std::uint32_t owner = 0;
    std::memcpy(&owner, bytes.data() + at.owners + 4 * c, 4);
    (owner == topology::kNoRegion ? free_owner : owned) = at.owners + 4 * c;
  }

  const std::pair<std::size_t, std::uint32_t> plants[] = {
      {at.first_record, 2},           // duplicates live id 2
      {at.first_record, 3},           // 3 before 2: ids out of order
      {at.first_record, 9},           // id above the next id
      {at.next_id, 3},                // live id 3 >= next id
      {at.first_record + 4, 0},       // names dead region 0
      {at.first_record + 4, 2},       // names processor 2's region
      {at.first_record + 4, 77},      // names no region at all
      {free_owner, 0},                // a free cluster owned by region 0
      {owned, 0},                     // a fused cluster moved to region 0
      {owned, topology::kNoRegion},   // a fused cluster freed
  };
  std::vector<snapshot::Snapshot> out;
  for (const auto& [offset, value] : plants) {
    snapshot::Snapshot bad = pristine;
    test_support::write_u32(bad.bytes(), offset, value);
    out.push_back(std::move(bad));
  }
  return out;
}

TEST(FuzzSnapshot, MalformedLiveTablesFailTyped) {
  const auto inputs = malformed_live_tables();
  ASSERT_EQ(inputs.size(), 10u);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    core::VlsiProcessor chip{core::ChipConfig{}};
    Status restored = Status::Ok();
    ASSERT_NO_THROW(restored = chip.restore(inputs[i])) << "input " << i;
    EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot)
        << "input " << i << ": " << restored.message();
  }
}

/// Byte offset just past the first section tag `tag` in `bytes`.
std::size_t after_tag(const std::vector<std::uint8_t>& bytes,
                      std::string_view tag) {
  const auto at = std::search(bytes.begin(), bytes.end(), tag.begin(),
                              tag.end());
  EXPECT_NE(at, bytes.end()) << tag;
  return static_cast<std::size_t>(at - bytes.begin()) + tag.size();
}

/// WSRF and object-library sections no AP produces, each planted in an
/// otherwise valid chip snapshot whose one processor holds a configured
/// datapath (so both sections list several objects).
std::vector<snapshot::Snapshot> malformed_wsrf_and_library() {
  core::VlsiProcessor chip{core::ChipConfig{}};
  const scaling::ProcId proc = chip.fuse(1);
  EXPECT_NE(proc, scaling::kNoProc);
  const auto run = chip.run_program(proc, arch::linear_pipeline_program(3),
                                    {{"in", {arch::make_word_i(4)}}}, 1,
                                    10000);
  EXPECT_TRUE(run.exec.completed);
  snapshot::Snapshot pristine;
  EXPECT_TRUE(chip.save(pristine).ok());
  const std::vector<std::uint8_t>& bytes = pristine.bytes();

  // "ap.wsrf": i32 capacity, u64 count, then 10-byte entries (u32 id,
  // channel flag, u32 channel, active flag).
  const std::size_t wsrf = after_tag(bytes, "ap.wsrf");
  std::int32_t capacity = 0;
  std::memcpy(&capacity, bytes.data() + wsrf, 4);
  EXPECT_GE(test_support::read_u64(bytes, wsrf + 4), 2u);
  const std::size_t entry0 = wsrf + 12;
  std::uint32_t id0 = 0;
  std::memcpy(&id0, bytes.data() + entry0, 4);

  // "ap.object_library": i32 load latency, u64 count, then objects
  // (u32 id, u8 opcode, u64 immediate, latency flag, i32 latency,
  // initial-token flag, u64 initial, u64-length name).
  const std::size_t library = after_tag(bytes, "ap.object_library");
  EXPECT_GE(test_support::read_u64(bytes, library + 4), 2u);
  const std::size_t object0 = library + 12;
  const std::size_t object1 =
      object0 + 35 + test_support::read_u64(bytes, object0 + 27);
  std::uint32_t object_id0 = 0;
  std::memcpy(&object_id0, bytes.data() + object0, 4);

  const auto count_plant = [&](std::uint64_t count) {
    snapshot::Snapshot bad = pristine;
    std::memcpy(bad.bytes().data() + wsrf + 4, &count, 8);
    return bad;
  };
  std::vector<snapshot::Snapshot> out;
  out.push_back(count_plant(static_cast<std::uint64_t>(capacity) + 1));
  const std::pair<std::size_t, std::uint32_t> plants[] = {
      {wsrf, 0},                                  // no registers
      {wsrf, static_cast<std::uint32_t>(capacity + 1)},  // not the AP's
      {entry0 + 10, id0},                         // duplicate WSRF id
      {entry0, arch::kMaxEncodedObjects},         // unnameable WSRF id
      {object1, object_id0},                      // duplicate library id
      {object0, arch::kMaxEncodedObjects},        // unnameable library id
  };
  for (const auto& [offset, value] : plants) {
    snapshot::Snapshot bad = pristine;
    test_support::write_u32(bad.bytes(), offset, value);
    out.push_back(std::move(bad));
  }
  return out;
}

TEST(FuzzSnapshot, MalformedWsrfAndLibraryFailTyped) {
  const auto inputs = malformed_wsrf_and_library();
  ASSERT_EQ(inputs.size(), 7u);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    core::VlsiProcessor chip{core::ChipConfig{}};
    Status restored = Status::Ok();
    ASSERT_NO_THROW(restored = chip.restore(inputs[i])) << "input " << i;
    EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot)
        << "input " << i << ": " << restored.message();
  }
}

/// Offsets inside one snapshot of the activity state that drains visit
/// unchecked: each ActivitySet's u64 size (its u64 word count and words
/// follow) and the executor's u64 wake count.
struct ActivityAt {
  std::size_t exec_active = 0;  // "ap.executor" node set
  std::size_t wakes = 0;        // then (u64 when, u32 id) entries
  std::size_t noc_feeds = 0;    // "noc.fabric" feed-node set
  std::size_t noc_active = 0;   // "noc.fabric" router set
};

/// Byte offset just past a u64-counted vector of `elem`-byte entries.
std::size_t skip_vec(const std::vector<std::uint8_t>& bytes, std::size_t at,
                     std::size_t elem) {
  return at + 8 + elem * test_support::read_u64(bytes, at);
}

/// Walks the executor section (edges, slots, nodes, input and output
/// queues, dirty flags, clock, faults) and the NoC section (routers of
/// 23-byte flit rings and 5 ports x 4 VCs of cursors, clock, packet id,
/// feed queues) to their activity sets.
ActivityAt locate_activity(const std::vector<std::uint8_t>& bytes) {
  ActivityAt at;
  std::size_t p = after_tag(bytes, "ap.executor");
  p = skip_vec(bytes, p, 8);          // edge cursors (u32 head, u32 len)
  p = skip_vec(bytes, p, 8);          // ring slots
  p = skip_vec(bytes, p, 3 + 5 * 8);  // nodes
  for (int queues = 0; queues < 2; ++queues) {
    const std::uint64_t n = test_support::read_u64(bytes, p);
    p += 8;
    for (std::uint64_t i = 0; i < n; ++i) {
      p = skip_vec(bytes, p, 8) + (queues == 0 ? 8 : 0);  // inputs: + head
    }
  }
  p = skip_vec(bytes, p, 1) + 8 + 4;  // dirty flags, now, faults
  at.exec_active = p;
  at.wakes = skip_vec(bytes, p + 8, 8);

  p = after_tag(bytes, "noc.fabric");
  std::int32_t width = 0;
  std::int32_t height = 0;
  std::memcpy(&width, bytes.data() + p, 4);
  std::memcpy(&height, bytes.data() + p + 4, 4);
  p += 8;
  for (std::int32_t r = 0; r < width * height; ++r) {
    p = skip_vec(bytes, p, 1);                      // "noc.router" tag
    p = skip_vec(bytes, p, 23) + 20 * 4 * 3 + 8 + 5 * 4;
  }
  p += 8 + 4;  // now, next packet id
  const std::uint64_t feeds = test_support::read_u64(bytes, p);
  p += 8;
  for (std::uint64_t i = 0; i < feeds; ++i) p = skip_vec(bytes, p, 23) + 8;
  at.noc_feeds = p;
  at.noc_active = skip_vec(bytes, p + 8, 8);
  return at;
}

/// A chip checkpointed mid-flight: processor `proc` is part way through
/// a pipeline run and a packet is crossing the NoC, so both have work
/// left after a restore.
struct MidFlight {
  snapshot::Snapshot snap;
  scaling::ProcId proc = scaling::kNoProc;
};

constexpr std::size_t kPipelineTokens = 8;

MidFlight mid_flight_chip() {
  core::VlsiProcessor chip{core::ChipConfig{}};
  MidFlight out;
  out.proc = chip.fuse(1);
  EXPECT_NE(out.proc, scaling::kNoProc);
  std::vector<arch::Word> in;
  for (std::size_t i = 0; i < kPipelineTokens; ++i) {
    in.push_back(arch::make_word_i(static_cast<std::int64_t>(i)));
  }
  const auto run = chip.run_program(out.proc,
                                    arch::linear_pipeline_program(6),
                                    {{"in", in}}, kPipelineTokens, 6);
  EXPECT_FALSE(run.exec.completed);
  noc::Packet packet;
  packet.dst_x = 7;
  packet.dst_y = 7;
  packet.payload = {1, 2, 3, 4};
  chip.noc().inject(packet);
  chip.noc().step();
  EXPECT_FALSE(chip.noc().idle());
  EXPECT_TRUE(chip.save(out.snap).ok());
  return out;
}

/// Runs what a restore left: the executor to its expected tokens and
/// the NoC until it drains.
void run_restored(core::VlsiProcessor& chip, scaling::ProcId proc,
                  bool expect_done) {
  const auto exec = chip.manager().processor(proc).run(kPipelineTokens,
                                                       1u << 16);
  const bool drained = chip.noc().run_until_drained(1u << 16);
  if (expect_done) {
    EXPECT_TRUE(exec.completed);
    EXPECT_TRUE(drained);
  }
}

/// Activity sets and wakes no executor or NoC produces, each planted in
/// the mid-flight checkpoint.
std::vector<snapshot::Snapshot> malformed_activity(
    const snapshot::Snapshot& pristine) {
  const std::vector<std::uint8_t>& bytes = pristine.bytes();
  const ActivityAt at = locate_activity(bytes);
  const std::uint64_t exec_size = test_support::read_u64(bytes, at.exec_active);
  EXPECT_EQ(test_support::read_u64(bytes, at.noc_feeds), 64u);
  EXPECT_NE(exec_size % 64, 0u);

  const auto put_u64 = [](std::vector<std::uint8_t>& b, std::size_t offset,
                          std::uint64_t v) {
    std::memcpy(b.data() + offset, &v, 8);
  };
  // Appends one all-ones word to the set at `set` (its count + 1).
  const auto extra_word = [&](std::size_t set) {
    snapshot::Snapshot bad = pristine;
    auto& b = bad.bytes();
    const std::uint64_t words = test_support::read_u64(b, set + 8);
    put_u64(b, set + 8, words + 1);
    b.insert(b.begin() + static_cast<std::ptrdiff_t>(set + 16 + 8 * words),
             8, 0xFF);
    return bad;
  };
  std::vector<snapshot::Snapshot> out;
  out.push_back(extra_word(at.exec_active));
  {  // a bit past the executor set's last id
    snapshot::Snapshot bad = pristine;
    const std::size_t last = skip_vec(bytes, at.exec_active + 8, 8) - 8;
    bad.bytes()[last + 7] |= 0x80;
    out.push_back(std::move(bad));
  }
  {  // a wake for a node the program does not have
    snapshot::Snapshot bad = pristine;
    auto& b = bad.bytes();
    put_u64(b, at.wakes, test_support::read_u64(b, at.wakes) + 1);
    std::vector<std::uint8_t> wake(12, 0);
    const std::uint32_t id = 1u << 20;
    std::memcpy(wake.data() + 8, &id, 4);
    b.insert(b.begin() + static_cast<std::ptrdiff_t>(at.wakes + 8),
             wake.begin(), wake.end());
    out.push_back(std::move(bad));
  }
  {  // a feed set larger than the router table
    snapshot::Snapshot bad = pristine;
    put_u64(bad.bytes(), at.noc_feeds, 65);
    out.push_back(std::move(bad));
  }
  out.push_back(extra_word(at.noc_feeds));
  out.push_back(extra_word(at.noc_active));
  return out;
}

TEST(FuzzSnapshot, MalformedActivityFailsTypedBeforeItRuns) {
  const MidFlight pristine = mid_flight_chip();
  {
    core::VlsiProcessor chip{core::ChipConfig{}};
    ASSERT_TRUE(chip.restore(pristine.snap).ok());
    run_restored(chip, pristine.proc, true);
  }
  const auto inputs = malformed_activity(pristine.snap);
  ASSERT_EQ(inputs.size(), 6u);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    core::VlsiProcessor chip{core::ChipConfig{}};
    Status restored = Status::Ok();
    ASSERT_NO_THROW(restored = chip.restore(inputs[i])) << "input " << i;
    // Run whatever a lax restore accepted, so the out-of-range drain
    // shows under the sanitizers.
    if (restored.ok()) run_restored(chip, pristine.proc, false);
    EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot)
        << "input " << i << ": " << restored.message();
  }
}

TEST(FuzzSnapshot, RestoreRejectsDeltaContainers) {
  // Version 2 was the retired incremental delta container. A buffer
  // stamped with it (e.g. from an older peer) is a typed reject, never
  // parsed as a flat snapshot.
  core::VlsiProcessor source{core::ChipConfig{}};
  snapshot::Snapshot snap;
  ASSERT_TRUE(source.save(snap).ok());
  snap.bytes()[4] = 2;
  core::VlsiProcessor chip{core::ChipConfig{}};
  const Status restored = chip.restore(snap);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot);
}

}  // namespace
}  // namespace vlsip

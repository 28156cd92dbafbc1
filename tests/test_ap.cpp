// Tests for the adaptive processor: object space, WSRF, configuration
// pipeline, dataflow executor and the AP facade (paper §2).
#include <gtest/gtest.h>

#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "ap/adaptive_processor.hpp"
#include "ap/executor.hpp"
#include "ap/memory_block.hpp"
#include "ap/object_space.hpp"
#include "ap/pipeline.hpp"
#include "ap/wsrf.hpp"
#include "arch/datapath.hpp"
#include "arch/serialize.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::ap {
namespace {

using arch::DatapathBuilder;
using arch::Opcode;
using arch::Program;

// ---- MemoryBlock / ObjectLibrary --------------------------------------------

TEST(MemoryBlock, ReadWriteRoundTrip) {
  MemoryBlock m;
  m.write(100, arch::make_word_i(-42));
  EXPECT_EQ(m.read(100).i, -42);
  EXPECT_EQ(m.size(), 64u * 1024 / 8);
}

TEST(MemoryBlock, BoundsChecked) {
  MemoryBlock m(MemoryBlockConfig{16, 1});
  EXPECT_THROW(m.read(16), vlsip::PreconditionError);
  EXPECT_THROW(m.write(99, arch::make_word_u(0)), vlsip::PreconditionError);
}

TEST(MemoryBlock, FillBulk) {
  MemoryBlock m(MemoryBlockConfig{8, 1});
  m.fill(2, {arch::make_word_u(1), arch::make_word_u(2)});
  EXPECT_EQ(m.read(3).u, 2u);
  EXPECT_THROW(m.fill(7, {arch::make_word_u(0), arch::make_word_u(0)}),
               vlsip::PreconditionError);
}

// A block's storage is allocated on first write; until then it must be
// indistinguishable from a zero-filled block.

std::vector<std::uint8_t> block_bytes(const MemoryBlock& m) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  m.save(w);
  return snap.bytes();
}

TEST(MemoryBlock, NeverWrittenReadsZeroEverywhere) {
  const MemoryBlock m;
  for (std::size_t a = 0; a < m.size(); ++a) {
    ASSERT_EQ(m.read(a).u, 0u) << "address " << a;
  }
  EXPECT_THROW(m.read(m.size()), vlsip::PreconditionError);
}

TEST(MemoryBlock, NeverWrittenSnapshotEqualsZeroWritten) {
  const MemoryBlock never;
  MemoryBlock zeros;
  zeros.fill(0, std::vector<arch::Word>(zeros.size(), arch::make_word_u(0)));
  MemoryBlock cleared;
  cleared.write(17, arch::make_word_u(9));
  cleared.write(17, arch::make_word_u(0));
  EXPECT_EQ(block_bytes(never), block_bytes(zeros));
  EXPECT_EQ(block_bytes(never), block_bytes(cleared));
}

TEST(MemoryBlock, PoisonedNeverWrittenReturnsPoisonAndDropsWrites) {
  MemoryBlock m(MemoryBlockConfig{32, 1});
  m.poison();
  EXPECT_EQ(m.read(0).u, MemoryBlock::poison_word().u);
  m.write(3, arch::make_word_u(5));
  EXPECT_EQ(m.read(3).u, MemoryBlock::poison_word().u);
  MemoryBlock fresh(MemoryBlockConfig{32, 1});
  fresh.poison();
  EXPECT_EQ(block_bytes(m), block_bytes(fresh));
}

TEST(MemoryBlock, SparseSnapshotRestoresIntoNeverWrittenBlock) {
  MemoryBlock written;
  written.write(0, arch::make_word_u(1));
  written.write(4000, arch::make_word_i(-7));
  written.write(written.size() - 1, arch::make_word_u(3));
  snapshot::Snapshot snap;
  {
    snapshot::Writer w(snap);
    written.save(w);
  }
  MemoryBlock target;
  snapshot::Reader r(snap);
  target.restore(r);
  EXPECT_EQ(target.read(0).u, 1u);
  EXPECT_EQ(target.read(4000).i, -7);
  EXPECT_EQ(target.read(target.size() - 1).u, 3u);
  EXPECT_EQ(target.read(1).u, 0u);
  EXPECT_EQ(block_bytes(target), snap.bytes());

  // And an all-zero snapshot clears a written block.
  snapshot::Snapshot empty;
  {
    snapshot::Writer w(empty);
    MemoryBlock().save(w);
  }
  snapshot::Reader r2(empty);
  target.restore(r2);
  EXPECT_EQ(target.read(4000).u, 0u);
  EXPECT_EQ(block_bytes(target), empty.bytes());
}

TEST(ObjectLibrary, StoreFetch) {
  ObjectLibrary lib(5);
  arch::LogicalObject o;
  o.id = 3;
  o.config.opcode = Opcode::kIAdd;
  lib.store(o);
  EXPECT_TRUE(lib.contains(3));
  EXPECT_EQ(lib.fetch(3).config.opcode, Opcode::kIAdd);
  EXPECT_EQ(lib.load_latency(), 5);
  EXPECT_THROW(lib.fetch(9), vlsip::PreconditionError);
}

TEST(ObjectLibrary, WriteBackCounts) {
  ObjectLibrary lib;
  arch::LogicalObject o;
  o.id = 1;
  lib.store(o);
  lib.write_back(1);
  EXPECT_EQ(lib.write_backs(), 1u);
  EXPECT_THROW(lib.write_back(2), vlsip::PreconditionError);
}

// ---- ObjectSpace (stack, §2.4) -------------------------------------------------

TEST(ObjectSpace, InsertPushesDown) {
  ObjectSpace s(4);
  s.insert_top(10);
  s.insert_top(11);
  s.insert_top(12);
  EXPECT_EQ(s.position_of(12), 0);
  EXPECT_EQ(s.position_of(11), 1);
  EXPECT_EQ(s.position_of(10), 2);
  EXPECT_EQ(s.bottom(), 10u);
}

TEST(ObjectSpace, LruEviction) {
  ObjectSpace s(2);
  s.insert_top(1);
  s.insert_top(2);
  EXPECT_TRUE(s.full());
  EXPECT_EQ(s.evict_bottom(), 1u);  // least recently placed
  EXPECT_FALSE(s.contains(1));
}

TEST(ObjectSpace, PromoteResortsStack) {
  ObjectSpace s(4);
  s.insert_top(1);
  s.insert_top(2);
  s.insert_top(3);
  EXPECT_EQ(s.promote(1), 2);  // was at depth 2
  EXPECT_EQ(s.position_of(1), 0);
  EXPECT_EQ(s.position_of(3), 1);
  EXPECT_EQ(s.position_of(2), 2);
  EXPECT_EQ(s.promote(1), 0);  // already top: no shift
}

TEST(ObjectSpace, RemoveClosesGap) {
  ObjectSpace s(4);
  s.insert_top(1);
  s.insert_top(2);
  s.insert_top(3);
  s.remove(2);
  EXPECT_EQ(s.size(), 2);
  EXPECT_EQ(s.position_of(3), 0);
  EXPECT_EQ(s.position_of(1), 1);
}

TEST(ObjectSpace, PreconditionErrors) {
  ObjectSpace s(2);
  EXPECT_THROW(s.bottom(), vlsip::PreconditionError);
  EXPECT_THROW(s.evict_bottom(), vlsip::PreconditionError);
  s.insert_top(1);
  EXPECT_THROW(s.insert_top(1), vlsip::PreconditionError);
  EXPECT_THROW(s.position_of(9), vlsip::PreconditionError);
  s.insert_top(2);
  EXPECT_THROW(s.insert_top(3), vlsip::PreconditionError);  // full
}

TEST(ObjectSpace, StackDistanceEqualsPosition) {
  // The physical order IS the recency order — the §2.4 property.
  ObjectSpace s(8);
  for (arch::ObjectId id = 0; id < 8; ++id) s.insert_top(id);
  s.promote(3);
  s.promote(5);
  // Most recent first: 5, 3, 7, 6, 4, 2, 1, 0.
  EXPECT_EQ(s.stack(),
            (std::vector<arch::ObjectId>{5, 3, 7, 6, 4, 2, 1, 0}));
}

TEST(ObjectSpace, InsertRejectsNoObject) {
  ObjectSpace s(2);
  EXPECT_THROW(s.insert_top(arch::kNoObject), vlsip::PreconditionError);
  EXPECT_FALSE(s.contains(arch::kNoObject));
  EXPECT_EQ(s.version(), 0u);
}

snapshot::Snapshot object_space_bytes(int capacity,
                                      const std::vector<arch::ObjectId>& stack) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.section("ap.object_space");
  w.i32(capacity);
  w.vec_u32(stack);
  w.u64(0);
  return snap;
}

TEST(ObjectSpace, RestoreRejectsStacksNoProgramCanHold) {
  const auto restore = [](const snapshot::Snapshot& snap) {
    ObjectSpace s(4);
    snapshot::Reader r(snap);
    s.restore(r);
    return s;
  };
  EXPECT_EQ(restore(object_space_bytes(4, {3, 1})).position_of(1), 1);
  EXPECT_THROW(restore(object_space_bytes(4, {1, arch::kMaxEncodedObjects})),
               snapshot::SnapshotError);
  EXPECT_THROW(restore(object_space_bytes(4, {arch::kNoObject})),
               snapshot::SnapshotError);
  EXPECT_THROW(restore(object_space_bytes(4, {2, 2})), snapshot::SnapshotError);
  EXPECT_THROW(restore(object_space_bytes(1, {1, 2})), snapshot::SnapshotError);
  EXPECT_THROW(restore(object_space_bytes(0, {})), snapshot::SnapshotError);
}

// Random operation sequences against a linear-scan reference: the flat
// id index must answer find/position_of exactly as a scan of the stack
// would, and version() must move exactly when placement changes.
TEST(ObjectSpace, MatchesLinearScanReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Xoshiro256 rng(seed);
    int capacity = 2 + static_cast<int>(rng.uniform(14));
    const auto pool = static_cast<arch::ObjectId>(4 + rng.uniform(60));
    ObjectSpace s(capacity);
    std::vector<arch::ObjectId> ref;  // [0] = top
    std::uint64_t version = 0;
    const auto ref_find = [&](arch::ObjectId id) -> std::optional<int> {
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (ref[i] == id) return static_cast<int>(i);
      }
      return std::nullopt;
    };
    const auto random_resident = [&] {
      return ref[static_cast<std::size_t>(rng.uniform(ref.size()))];
    };
    for (int step = 0; step < 400; ++step) {
      const auto op = rng.uniform(12);
      if (op < 4) {
        const auto id = static_cast<arch::ObjectId>(rng.uniform(pool));
        if (ref_find(id) || static_cast<int>(ref.size()) == capacity) {
          EXPECT_THROW(s.insert_top(id), vlsip::PreconditionError);
        } else {
          s.insert_top(id);
          ref.insert(ref.begin(), id);
          ++version;
        }
      } else if (op < 5) {
        if (ref.empty()) {
          EXPECT_THROW(s.evict_bottom(), vlsip::PreconditionError);
        } else {
          ASSERT_EQ(s.evict_bottom(), ref.back());
          ref.pop_back();
          ++version;
        }
      } else if (op < 8) {
        if (ref.empty()) continue;
        const arch::ObjectId id = random_resident();
        const int depth = *ref_find(id);
        ASSERT_EQ(s.promote(id), depth);
        if (depth != 0) {
          ref.erase(ref.begin() + depth);
          ref.insert(ref.begin(), id);
          ++version;
        }
      } else if (op < 9) {
        if (ref.empty()) continue;
        const arch::ObjectId id = random_resident();
        s.remove(id);
        ref.erase(ref.begin() + *ref_find(id));
        ++version;
      } else if (op < 10) {
        if (capacity == 1) {
          EXPECT_THROW(s.reduce_capacity(), vlsip::PreconditionError);
          continue;
        }
        const bool was_full = static_cast<int>(ref.size()) == capacity;
        const auto evicted = s.reduce_capacity();
        --capacity;
        ASSERT_EQ(evicted.has_value(), was_full);
        if (was_full) {
          ASSERT_EQ(*evicted, ref.back());
          ref.pop_back();
          ++version;
        }
      } else {
        // Checkpoint round trip into a space of a different capacity.
        snapshot::Snapshot snap;
        {
          snapshot::Writer w(snap);
          s.save(w);
        }
        ObjectSpace restored(1);
        snapshot::Reader r(snap);
        restored.restore(r);
        s = std::move(restored);
      }
      ASSERT_EQ(s.stack(), ref);
      ASSERT_EQ(s.capacity(), capacity);
      ASSERT_EQ(s.version(), version);
      for (arch::ObjectId id = 0; id < pool + 2; ++id) {
        ASSERT_EQ(s.find(id), ref_find(id)) << "seed " << seed << " id " << id;
        if (ref_find(id)) {
          ASSERT_EQ(s.position_of(id), *ref_find(id));
        } else {
          ASSERT_THROW(s.position_of(id), vlsip::PreconditionError);
        }
      }
      ASSERT_FALSE(s.find(arch::kNoObject).has_value());
    }
  }
}

// ---- WSRF ------------------------------------------------------------------------

TEST(Wsrf, InsertAndLookup) {
  Wsrf w(4);
  EXPECT_TRUE(w.insert(7));
  ASSERT_NE(w.lookup(7), nullptr);
  EXPECT_EQ(w.lookup(9), nullptr);
}

TEST(Wsrf, RetiresOldestInactive) {
  Wsrf w(2);
  w.insert(1);
  w.insert(2);
  w.insert(3);  // retires 1
  EXPECT_EQ(w.lookup(1), nullptr);
  EXPECT_NE(w.lookup(2), nullptr);
  EXPECT_EQ(w.retirements(), 1u);
}

TEST(Wsrf, ActiveEntriesArePinned) {
  Wsrf w(2);
  w.insert(1);
  w.set_active(1, true);
  w.insert(2);
  w.set_active(2, true);
  EXPECT_FALSE(w.insert(3));  // all pinned
  w.set_active(1, false);
  EXPECT_TRUE(w.insert(3));   // retires 1
  EXPECT_EQ(w.lookup(1), nullptr);
}

TEST(Wsrf, ChannelRecording) {
  Wsrf w;
  w.insert(5);
  w.set_channel(5, 3);
  EXPECT_EQ(w.lookup(5)->channel.value(), 3u);
  EXPECT_THROW(w.set_channel(9, 1), vlsip::PreconditionError);
}

TEST(Wsrf, RefreshMovesToYoungest) {
  Wsrf w(2);
  w.insert(1);
  w.insert(2);
  w.insert(1);  // refresh: 1 becomes youngest
  w.insert(3);  // retires 2, not 1
  EXPECT_NE(w.lookup(1), nullptr);
  EXPECT_EQ(w.lookup(2), nullptr);
}

TEST(Wsrf, EraseAndClear) {
  Wsrf w;
  w.insert(1);
  w.insert(2);
  w.erase(1);
  EXPECT_EQ(w.lookup(1), nullptr);
  w.erase(99);  // erasing absent id is a no-op
  w.clear();
  EXPECT_EQ(w.size(), 0);
}

/// The list-based WSRF the flat register file replaced: insertion-ordered
/// entries (front = oldest) with an id index. Kept as the reference
/// model for the differential test below.
class ListWsrf {
 public:
  explicit ListWsrf(int capacity) : capacity_(capacity) {}

  const WsrfEntry* lookup(arch::ObjectId id) const {
    const auto it = index_.find(id);
    return it == index_.end() ? nullptr : &*it->second;
  }
  bool insert(arch::ObjectId id) {
    if (const auto it = index_.find(id); it != index_.end()) {
      entries_.splice(entries_.end(), entries_, it->second);
      return true;
    }
    if (static_cast<int>(entries_.size()) == capacity_) {
      auto victim = entries_.begin();
      while (victim != entries_.end() && victim->active) ++victim;
      if (victim == entries_.end()) return false;
      index_.erase(victim->id);
      entries_.erase(victim);
      ++retirements_;
    }
    entries_.push_back(WsrfEntry{id, std::nullopt, false});
    index_[id] = std::prev(entries_.end());
    return true;
  }
  void set_channel(arch::ObjectId id, std::uint32_t channel) {
    index_.at(id)->channel = channel;
  }
  void set_active(arch::ObjectId id, bool active) {
    index_.at(id)->active = active;
  }
  void erase(arch::ObjectId id) {
    if (const auto it = index_.find(id); it != index_.end()) {
      entries_.erase(it->second);
      index_.erase(it);
    }
  }
  void clear() {
    entries_.clear();
    index_.clear();
  }
  int size() const { return static_cast<int>(entries_.size()); }
  std::size_t retirements() const { return retirements_; }
  void save(snapshot::Writer& w) const {
    w.section("ap.wsrf");
    w.i32(capacity_);
    w.u64(entries_.size());
    for (const auto& e : entries_) {
      w.u32(e.id);
      w.b(e.channel.has_value());
      w.u32(e.channel.value_or(0));
      w.b(e.active);
    }
    w.u64(retirements_);
  }

 private:
  int capacity_;
  std::list<WsrfEntry> entries_;
  std::unordered_map<arch::ObjectId, std::list<WsrfEntry>::iterator> index_;
  std::size_t retirements_ = 0;
};

template <typename W>
std::vector<std::uint8_t> wsrf_bytes(const W& wsrf) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  wsrf.save(w);
  return snap.bytes();
}

TEST(Wsrf, MatchesListModelUnderRandomOperations) {
  for (const int capacity : {1, 2, 40}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    Xoshiro256 rng(static_cast<std::uint64_t>(capacity) * 7919);
    const auto ids = static_cast<std::uint64_t>(2 * capacity + 4);
    ListWsrf model(capacity);
    Wsrf flat(capacity);
    constexpr int kOps = 10000;
    for (int op = 0; op < kOps; ++op) {
      if (op == kOps / 2) {
        // Save -> restore -> continue: the restored register file must
        // keep matching the model.
        snapshot::Snapshot snap;
        snapshot::Writer w(snap);
        flat.save(w);
        Wsrf restored(capacity);
        snapshot::Reader r(snap);
        restored.restore(r);
        flat = restored;
        ASSERT_EQ(wsrf_bytes(flat), wsrf_bytes(model));
      }
      const auto id = static_cast<arch::ObjectId>(rng.uniform(ids));
      const std::uint64_t kind = rng.uniform(100);
      if (kind < 45) {
        ASSERT_EQ(flat.insert(id), model.insert(id)) << "op " << op;
      } else if (kind < 70) {
        if (model.lookup(id) != nullptr) {
          const bool active = rng.bernoulli(0.6);
          flat.set_active(id, active);
          model.set_active(id, active);
        }
      } else if (kind < 80) {
        if (model.lookup(id) != nullptr) {
          const auto channel = static_cast<std::uint32_t>(rng.uniform(64));
          flat.set_channel(id, channel);
          model.set_channel(id, channel);
        }
      } else if (kind < 99) {
        flat.erase(id);
        model.erase(id);
      } else {
        flat.clear();
        model.clear();
      }
      ASSERT_EQ(flat.size(), model.size()) << "op " << op;
      ASSERT_EQ(flat.retirements(), model.retirements()) << "op " << op;
      for (arch::ObjectId probe = 0; probe < ids; ++probe) {
        const WsrfEntry* a = flat.lookup(probe);
        const WsrfEntry* b = model.lookup(probe);
        ASSERT_EQ(a != nullptr, b != nullptr) << "op " << op;
        if (a == nullptr) continue;
        ASSERT_EQ(a->id, b->id);
        ASSERT_EQ(a->channel, b->channel);
        ASSERT_EQ(a->active, b->active);
      }
      if (op % 97 == 0) {
        ASSERT_EQ(wsrf_bytes(flat), wsrf_bytes(model)) << "op " << op;
      }
    }
    EXPECT_EQ(wsrf_bytes(flat), wsrf_bytes(model));
    EXPECT_GT(flat.retirements(), 0u);
  }
}

// ---- End-to-end: configure + execute small programs ---------------------------------

ApConfig small_config(int capacity = 16) {
  ApConfig c;
  c.capacity = capacity;
  c.memory_blocks = 4;
  return c;
}

TEST(Ap, LinearPipelineComputes) {
  AdaptiveProcessor ap(small_config());
  const auto p = arch::linear_pipeline_program(4);
  const auto cfg = ap.configure(p);
  EXPECT_EQ(cfg.elements, p.stream.size());
  EXPECT_GT(cfg.cycles, 0u);
  ap.feed("in", arch::make_word_i(5));
  const auto exec = ap.run(1, 10000);
  ASSERT_TRUE(exec.completed);
  // ((5+1)*2+3)*2 = 30
  ASSERT_EQ(ap.output("out").size(), 1u);
  EXPECT_EQ(ap.output("out")[0].i, 30);
}

TEST(Ap, StreamOfTokens) {
  AdaptiveProcessor ap(small_config());
  const auto p = arch::linear_pipeline_program(2);
  ap.configure(p);
  for (int v : {1, 2, 3, 4}) ap.feed("in", arch::make_word_i(v));
  const auto exec = ap.run(4, 20000);
  ASSERT_TRUE(exec.completed);
  const auto& out = ap.output("out");
  ASSERT_EQ(out.size(), 4u);
  // (v+1)*2 for each v.
  EXPECT_EQ(out[0].i, 4);
  EXPECT_EQ(out[1].i, 6);
  EXPECT_EQ(out[2].i, 8);
  EXPECT_EQ(out[3].i, 10);
}

TEST(Ap, ConditionalExampleBothArms) {
  AdaptiveProcessor ap(small_config());
  const auto p = arch::conditional_example_program();
  ap.configure(p);
  // x > y -> z = x + 1.
  ap.feed("x", arch::make_word_i(10));
  ap.feed("y", arch::make_word_i(3));
  // x <= y -> z = y + 2.
  ap.feed("x", arch::make_word_i(1));
  ap.feed("y", arch::make_word_i(7));
  const auto exec = ap.run(2, 20000);
  ASSERT_TRUE(exec.completed);
  const auto& z = ap.output("z");
  ASSERT_EQ(z.size(), 2u);
  EXPECT_EQ(z[0].i, 11);
  EXPECT_EQ(z[1].i, 9);
}

TEST(Ap, FirFilterStreaming) {
  ApConfig c = small_config(32);
  AdaptiveProcessor ap(c);
  const auto p = arch::fir_program({0.5, 0.5});  // 2-tap moving average
  ASSERT_TRUE(ap.fits_streaming(p));
  ap.configure(p);
  for (double v : {2.0, 4.0, 6.0, 8.0}) ap.feed("x", arch::make_word_f(v));
  const auto exec = ap.run_streaming(4, 40000);
  ASSERT_TRUE(exec.completed);
  const auto& y = ap.output("y");
  ASSERT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y[0].f, 1.0);  // (2+0)/2
  EXPECT_DOUBLE_EQ(y[1].f, 3.0);  // (4+2)/2
  EXPECT_DOUBLE_EQ(y[2].f, 5.0);
  EXPECT_DOUBLE_EQ(y[3].f, 7.0);
}

TEST(Ap, StreamingRejectsOversizedDatapath) {
  AdaptiveProcessor ap(small_config(4));
  const auto p = arch::linear_pipeline_program(4);  // 10 objects > 4
  EXPECT_FALSE(ap.fits_streaming(p));
  ap.configure(p);
  EXPECT_THROW(ap.run_streaming(1, 1000), vlsip::PreconditionError);
}

TEST(Ap, VirtualHardwareRunsOversizedScalar) {
  // Datapath larger than C: scalar execution must still complete via
  // object faults and LRU replacement (§2.5).
  AdaptiveProcessor ap(small_config(6));
  const auto p = arch::linear_pipeline_program(4);  // 10 objects
  ap.configure(p);
  ap.feed("in", arch::make_word_i(5));
  const auto exec = ap.run(1, 100000);
  ASSERT_TRUE(exec.completed) << "deadlocked=" << exec.deadlocked;
  EXPECT_EQ(ap.output("out")[0].i, 30);
  EXPECT_GT(exec.faults, 0u);
  EXPECT_GT(ap.stats().faults.evictions, 0u);
}

TEST(Ap, ConfigureMissesThenHits) {
  AdaptiveProcessor ap(small_config());
  const auto p = arch::linear_pipeline_program(2);
  const auto first = ap.configure(p);
  EXPECT_EQ(first.hits + first.misses, first.object_requests);
  EXPECT_GT(first.misses, 0u);  // cold
  ap.release_datapath();
  const auto second = ap.configure(p);
  // Objects stayed cached in the object space: all hits now (§2.4).
  EXPECT_EQ(second.misses, 0u);
  EXPECT_GT(second.hits, 0u);
  EXPECT_LT(second.cycles, first.cycles);
}

TEST(Ap, MemoryLoadStore) {
  AdaptiveProcessor ap(small_config());
  // store(addr=4, x); y = load(4) gated after store? Simpler: two
  // independent datapaths — write then read.
  DatapathBuilder bw;
  const auto addr = bw.constant_i(4, "addr");
  const auto val = bw.input("v");
  bw.op(Opcode::kStore, addr, val, "st");
  // Store produces nothing; use the value pass-through as output to
  // detect completion.
  bw.output("done", val);
  auto wp = std::move(bw).build();
  ap.configure(wp);
  ap.feed("v", arch::make_word_i(77));
  ASSERT_TRUE(ap.run(1, 10000).completed);
  EXPECT_EQ(ap.memory().read(4).i, 77);

  ap.release_datapath();
  DatapathBuilder br;
  const auto addr2 = br.constant_i(4, "addr2");
  const auto ld = br.op(Opcode::kLoad, addr2, "ld");
  br.output("r", ld);
  auto rp = std::move(br).build();
  ap.configure(rp);
  const auto exec = ap.run(1, 10000);
  ASSERT_TRUE(exec.completed);
  EXPECT_EQ(ap.output("r")[0].i, 77);
  EXPECT_GT(exec.mem_ops, 0u);
}

TEST(Ap, ReleaseFiresTokensAndKeepsCache) {
  AdaptiveProcessor ap(small_config());
  const auto p = arch::linear_pipeline_program(2);
  ap.configure(p);
  const auto resident_before = ap.object_space().size();
  ap.release_datapath();
  EXPECT_FALSE(ap.has_datapath());
  EXPECT_GT(ap.stats().release_tokens, 0u);
  EXPECT_EQ(ap.object_space().size(), resident_before);  // cache kept
  EXPECT_EQ(ap.network().active_routes(), 0u);           // chains gone
}

TEST(Ap, OpMixCounted) {
  AdaptiveProcessor ap(small_config());
  DatapathBuilder b;
  const auto x = b.input("x");
  const auto f = b.op(Opcode::kFMul, b.constant_f(2.0), b.constant_f(3.0));
  const auto i = b.op(Opcode::kIAdd, x, b.constant_i(1));
  b.output("fo", f);
  b.output("io", i);
  auto p = std::move(b).build();
  ap.configure(p);
  ap.feed("x", arch::make_word_i(0));
  const auto exec = ap.run(1, 10000);
  ASSERT_TRUE(exec.completed);
  EXPECT_GT(exec.float_ops, 0u);
  EXPECT_GT(exec.int_ops, 0u);
  EXPECT_GT(exec.transport_ops, 0u);
}

TEST(Ap, DivideByZeroIsZero) {
  AdaptiveProcessor ap(small_config());
  DatapathBuilder b;
  const auto x = b.input("x");
  const auto q = b.op(Opcode::kIDiv, x, b.constant_i(0));
  b.output("q", q);
  auto p = std::move(b).build();
  ap.configure(p);
  ap.feed("x", arch::make_word_i(100));
  ASSERT_TRUE(ap.run(1, 10000).completed);
  EXPECT_EQ(ap.output("q")[0].i, 0);
}

TEST(Ap, HandshakeCyclesCharged) {
  AdaptiveProcessor ap(small_config());
  const auto cfg = ap.configure(arch::linear_pipeline_program(3));
  EXPECT_GT(cfg.acquire_handshake_cycles, 0u);
}

TEST(Ap, ConfigValidation) {
  ApConfig bad;
  bad.capacity = 1;
  EXPECT_THROW(AdaptiveProcessor{bad}, vlsip::PreconditionError);
  AdaptiveProcessor ap(small_config());
  EXPECT_THROW(ap.feed("x", arch::make_word_u(0)),
               vlsip::PreconditionError);  // nothing configured
  EXPECT_THROW(ap.run(1, 100), vlsip::PreconditionError);
  arch::Program empty;
  EXPECT_THROW(ap.configure(empty), vlsip::PreconditionError);
}

TEST(Ap, UnknownPortsThrow) {
  AdaptiveProcessor ap(small_config());
  ap.configure(arch::linear_pipeline_program(1));
  EXPECT_THROW(ap.feed("nope", arch::make_word_u(0)),
               vlsip::PreconditionError);
  EXPECT_THROW(ap.output("nope"), vlsip::PreconditionError);
}

TEST(Ap, DeadlockDetected) {
  // A datapath needing two operands but fed only one never completes;
  // the executor must report a deadlock instead of spinning forever.
  AdaptiveProcessor ap(small_config());
  DatapathBuilder b;
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.output("s", b.op(Opcode::kIAdd, x, y));
  auto p = std::move(b).build();
  ExecConfig ec;
  ec.deadlock_window = 100;
  ApConfig c = small_config();
  c.exec = ec;
  AdaptiveProcessor ap2(c);
  ap2.configure(p);
  ap2.feed("x", arch::make_word_i(1));  // y never fed
  const auto exec = ap2.run(1, 100000);
  EXPECT_FALSE(exec.completed);
  EXPECT_TRUE(exec.deadlocked);
  (void)ap;
}

}  // namespace
}  // namespace vlsip::ap

// Tests for the wormhole router and the NoC fabric (fig. 7 e).
#include <gtest/gtest.h>

#include "common/require.hpp"
#include "noc/noc_fabric.hpp"
#include "noc/router.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::noc {
namespace {

Packet make_packet(int sx, int sy, int dx, int dy,
                   std::vector<std::uint64_t> payload = {},
                   PacketKind kind = PacketKind::kData) {
  Packet p;
  p.src_x = static_cast<std::uint16_t>(sx);
  p.src_y = static_cast<std::uint16_t>(sy);
  p.dst_x = static_cast<std::uint16_t>(dx);
  p.dst_y = static_cast<std::uint16_t>(dy);
  p.kind = kind;
  p.payload = std::move(payload);
  return p;
}

/// Every packet `noc` delivers, in delivery order, collected through
/// the delivery callback (the fabric itself keeps none).
struct Delivered {
  explicit Delivered(NocFabric& noc) {
    noc.set_on_deliver([this](const Packet& p) { packets.push_back(p); });
  }
  std::vector<Packet> packets;
};

std::size_t snapshot_bytes(const NocFabric& noc) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  noc.save(w);
  return snap.size();
}

// ---- Router primitives ------------------------------------------------------

TEST(Port, OppositeIsInvolution) {
  for (int i = 0; i < kPortCount; ++i) {
    const auto p = static_cast<Port>(i);
    EXPECT_EQ(opposite(opposite(p)), p);
  }
}

TEST(Router, QueueCapacityEnforced) {
  Router r(0, 0, RouterConfig{2});
  Flit f;
  f.kind = FlitKind::kHeadTail;
  EXPECT_TRUE(r.can_accept(Port::kLocal));
  r.accept(Port::kLocal, f);
  r.accept(Port::kLocal, f);
  EXPECT_FALSE(r.can_accept(Port::kLocal));
  EXPECT_THROW(r.accept(Port::kLocal, f), vlsip::PreconditionError);
}

ReadyMask all_ready(int vcs = 1) {
  ReadyMask m{};
  m.fill((1u << vcs) - 1u);
  return m;
}

TEST(Router, XyRoutesEastFirst) {
  Router r(1, 1, RouterConfig{});
  Flit head;
  head.kind = FlitKind::kHeadTail;
  head.dest_x = 3;
  head.dest_y = 3;
  r.accept(Port::kLocal, head);
  const auto transfers = r.compute(all_ready());
  ASSERT_EQ(transfers.size(), 1u);
  EXPECT_EQ(transfers[0].out, Port::kEast);  // X resolved before Y
}

TEST(Router, EjectsAtDestination) {
  Router r(2, 2, RouterConfig{});
  Flit head;
  head.kind = FlitKind::kHeadTail;
  head.dest_x = 2;
  head.dest_y = 2;
  r.accept(Port::kWest, head);
  const auto transfers = r.compute(all_ready());
  ASSERT_EQ(transfers.size(), 1u);
  EXPECT_EQ(transfers[0].out, Port::kLocal);
}

TEST(Router, WormholeLockHeldUntilTail) {
  Router r(0, 0, RouterConfig{});
  Flit head;
  head.kind = FlitKind::kHead;
  head.flow = 1;
  head.dest_x = 1;
  head.dest_y = 0;
  r.accept(Port::kLocal, head);
  auto t = r.compute(all_ready());
  r.commit(t);
  ASSERT_TRUE(r.output_owner(Port::kEast).has_value());
  EXPECT_EQ(r.output_owner(Port::kEast)->first, Port::kLocal);
  Flit tail;
  tail.kind = FlitKind::kTail;
  tail.flow = 1;
  r.accept(Port::kLocal, tail);
  t = r.compute(all_ready());
  r.commit(t);
  EXPECT_FALSE(r.output_owner(Port::kEast).has_value());
}

TEST(Router, BlockedDownstreamStallsWorm) {
  Router r(0, 0, RouterConfig{});
  Flit head;
  head.kind = FlitKind::kHeadTail;
  head.dest_x = 1;
  head.dest_y = 0;
  r.accept(Port::kLocal, head);
  ReadyMask none{};
  EXPECT_TRUE(r.compute(none).empty());
}

TEST(Router, VcConfigValidated) {
  EXPECT_THROW(Router(0, 0, RouterConfig{4, 0}), vlsip::PreconditionError);
  EXPECT_THROW(Router(0, 0, RouterConfig{4, kMaxVcs + 1}),
               vlsip::PreconditionError);
}

TEST(Router, SecondWormUsesSecondVc) {
  // Two heads for the same output in one cycle: only one flit crosses
  // the physical link, but with 2 VCs the second worm claims VC 1 on
  // the next cycle instead of waiting for the first tail.
  Router r(0, 0, RouterConfig{4, 2});
  Flit h1;
  h1.kind = FlitKind::kHead;
  h1.flow = 1;
  h1.dest_x = 1;
  Flit h2 = h1;
  h2.flow = 2;
  r.accept(Port::kWest, h1);
  r.accept(Port::kNorth, h2);
  auto t = r.compute(all_ready(2));
  ASSERT_EQ(t.size(), 1u);  // one physical link
  r.commit(t);
  auto t2 = r.compute(all_ready(2));
  ASSERT_EQ(t2.size(), 1u);
  EXPECT_NE(t2[0].out_vc, t[0].out_vc);  // second worm on the other VC
  r.commit(t2);
  EXPECT_TRUE(r.output_owner(Port::kEast, 0).has_value());
  EXPECT_TRUE(r.output_owner(Port::kEast, 1).has_value());
}

TEST(Router, VcAvoidsHeadOfLineBlocking) {
  // Worm A (to the East) is blocked downstream; worm B (to the South)
  // sits behind it on the same input VC? No — B is on another input.
  // The single-VC case where A's body occupies the East lock must not
  // stop B from taking the South link.
  Router r(1, 1, RouterConfig{4, 1});
  Flit a;
  a.kind = FlitKind::kHead;
  a.flow = 1;
  a.dest_x = 2;
  a.dest_y = 1;
  Flit b;
  b.kind = FlitKind::kHeadTail;
  b.flow = 2;
  b.dest_x = 1;
  b.dest_y = 2;
  r.accept(Port::kWest, a);
  r.accept(Port::kNorth, b);
  ReadyMask ready{};
  ready[static_cast<int>(Port::kSouth)] = 1;  // East NOT ready
  const auto t = r.compute(ready);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].out, Port::kSouth);
  EXPECT_EQ(t[0].flit.flow, 2u);
}

// ---- Fabric end-to-end -------------------------------------------------------

TEST(Fabric, SingleFlitDelivery) {
  NocFabric noc(4, 4);
  Delivered delivered(noc);
  noc.inject(make_packet(0, 0, 3, 3));
  ASSERT_TRUE(noc.run_until_drained(1000));
  ASSERT_EQ(delivered.packets.size(), 1u);
  const auto& p = delivered.packets[0];
  EXPECT_EQ(p.dst_x, 3);
  EXPECT_EQ(p.dst_y, 3);
  EXPECT_EQ(p.hops(), 6);
  // Latency >= hops + injection/ejection.
  EXPECT_GE(p.deliver_cycle - p.inject_cycle,
            static_cast<std::uint64_t>(p.hops()));
}

TEST(Fabric, PayloadArrivesIntact) {
  NocFabric noc(3, 3);
  Delivered delivered(noc);
  noc.inject(make_packet(0, 0, 2, 1, {11, 22, 33}));
  ASSERT_TRUE(noc.run_until_drained(1000));
  ASSERT_EQ(delivered.packets.size(), 1u);
  EXPECT_EQ(delivered.packets[0].payload,
            (std::vector<std::uint64_t>{11, 22, 33}));
  EXPECT_EQ(delivered.packets[0].kind, PacketKind::kData);
}

TEST(Fabric, SelfDelivery) {
  NocFabric noc(2, 2);
  Delivered delivered(noc);
  noc.inject(make_packet(1, 1, 1, 1, {7}));
  ASSERT_TRUE(noc.run_until_drained(100));
  ASSERT_EQ(delivered.packets.size(), 1u);
  EXPECT_EQ(delivered.packets[0].payload[0], 7u);
}

TEST(Fabric, ManyPacketsAllDeliver) {
  NocFabric noc(4, 4);
  Delivered delivered(noc);
  int expected = 0;
  for (int sx = 0; sx < 4; ++sx) {
    for (int sy = 0; sy < 4; ++sy) {
      noc.inject(make_packet(sx, sy, 3 - sx, 3 - sy, {1, 2}));
      ++expected;
    }
  }
  ASSERT_TRUE(noc.run_until_drained(10000));
  EXPECT_EQ(delivered.packets.size(), static_cast<std::size_t>(expected));
}

TEST(Fabric, WormsDoNotInterleaveFlits) {
  // Two long packets crossing the same column: payloads must arrive
  // intact (wormhole keeps worms contiguous per link).
  NocFabric noc(5, 5);
  Delivered delivered(noc);
  noc.inject(make_packet(0, 2, 4, 2, {1, 1, 1, 1, 1, 1}));
  noc.inject(make_packet(2, 0, 2, 4, {2, 2, 2, 2, 2, 2}));
  ASSERT_TRUE(noc.run_until_drained(10000));
  ASSERT_EQ(delivered.packets.size(), 2u);
  for (const auto& p : delivered.packets) {
    for (const auto w : p.payload) EXPECT_EQ(w, p.payload[0]);
  }
}

TEST(Fabric, LatencyScalesWithDistance) {
  NocFabric noc(8, 1);
  Delivered delivered(noc);
  noc.inject(make_packet(0, 0, 1, 0));
  noc.inject(make_packet(0, 0, 7, 0));
  ASSERT_TRUE(noc.run_until_drained(1000));
  const auto stats = noc.latency_stats();
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_GT(stats.max(), stats.min());
  // The lifetime statistics are exactly those of the delivered packets.
  RunningStats reference;
  for (const auto& p : delivered.packets) {
    reference.add(static_cast<double>(p.deliver_cycle - p.inject_cycle));
  }
  EXPECT_EQ(stats.mean(), reference.mean());
  EXPECT_EQ(stats.min(), reference.min());
  EXPECT_EQ(stats.max(), reference.max());
}

TEST(Fabric, StateIsBoundedByPacketsInFlight) {
  // Delivered packets leave no trace: after 1 000 packets sent one at a
  // time the checkpoint is exactly as large as after 10.
  NocFabric noc(4, 4);
  std::size_t after_ten = 0;
  for (int i = 0; i < 1000; ++i) {
    noc.inject(make_packet(i % 4, 0, 3 - i % 4, 3, {1, 2, 3}));
    ASSERT_TRUE(noc.run_until_drained(1000));
    if (i == 9) after_ten = snapshot_bytes(noc);
  }
  EXPECT_EQ(snapshot_bytes(noc), after_ten);
  EXPECT_EQ(noc.latency_stats().count(), 1000u);
}

TEST(Fabric, DeliveryCallbackFires) {
  NocFabric noc(2, 2);
  int calls = 0;
  noc.set_on_deliver([&](const Packet& p) {
    ++calls;
    EXPECT_EQ(p.kind, PacketKind::kConfig);
  });
  noc.inject(make_packet(0, 0, 1, 1, {5}, PacketKind::kConfig));
  ASSERT_TRUE(noc.run_until_drained(100));
  EXPECT_EQ(calls, 1);
}

TEST(Fabric, IdleWhenEmpty) {
  NocFabric noc(2, 2);
  EXPECT_TRUE(noc.idle());
  noc.inject(make_packet(0, 0, 1, 0));
  EXPECT_FALSE(noc.idle());
  ASSERT_TRUE(noc.run_until_drained(100));
  EXPECT_TRUE(noc.idle());
}

TEST(Fabric, InjectValidatesCoordinates) {
  NocFabric noc(2, 2);
  EXPECT_THROW(noc.inject(make_packet(0, 0, 5, 0)),
               vlsip::PreconditionError);
}

TEST(Fabric, HeavyContentionStillDrains) {
  // All nodes flood the same destination.
  NocFabric noc(4, 4, RouterConfig{2});
  Delivered delivered(noc);
  for (int sx = 0; sx < 4; ++sx) {
    for (int sy = 0; sy < 4; ++sy) {
      if (sx == 1 && sy == 1) continue;
      noc.inject(make_packet(sx, sy, 1, 1, {1, 2, 3, 4}));
    }
  }
  ASSERT_TRUE(noc.run_until_drained(100000));
  EXPECT_EQ(delivered.packets.size(), 15u);
}

TEST(Fabric, ZeroPayloadIsSingleFlit) {
  NocFabric noc(3, 1);
  noc.inject(make_packet(0, 0, 2, 0, {}));
  std::size_t moved = 0;
  while (!noc.idle() && noc.now() < 100) moved += noc.step();
  // One head-tail flit: 2 link hops + the local ejection = 3 transfers
  // (injection into the source queue is not a router transfer).
  EXPECT_EQ(moved, 3u);
}

}  // namespace
}  // namespace vlsip::noc

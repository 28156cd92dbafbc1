// Tests for the dynamic CSD network, the global-crossbar baseline and the
// functional CSD simulator (fig. 2 / fig. 3 mechanisms).
#include <gtest/gtest.h>

#include "arch/datapath.hpp"
#include "common/require.hpp"
#include "csd/csd_simulator.hpp"
#include "csd/dynamic_csd.hpp"
#include "csd/global_network.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::csd {
namespace {

CsdConfig cfg(Position positions, ChannelId channels) {
  return CsdConfig{positions, channels};
}

// ---- DynamicCsdNetwork basics ------------------------------------------------

TEST(DynamicCsd, RoutesOnLowestFreeChannel) {
  DynamicCsdNetwork net(cfg(8, 4));
  EXPECT_EQ(net.try_route(0, 3).value(), 0u);
  ASSERT_TRUE(net.establish(0, 3).has_value());
  // Overlapping span -> next channel.
  EXPECT_EQ(net.try_route(1, 4).value(), 1u);
}

TEST(DynamicCsd, DisjointSpansShareAChannel) {
  DynamicCsdNetwork net(cfg(16, 2));
  ASSERT_TRUE(net.establish(0, 4));
  // [8, 12) does not overlap [0, 4) -> same channel 0.
  EXPECT_EQ(net.try_route(8, 12).value(), 0u);
  ASSERT_TRUE(net.establish(8, 12));
  EXPECT_EQ(net.used_channels(), 1u);
  EXPECT_EQ(net.active_routes(), 2u);
}

TEST(DynamicCsd, AdjacentSpansShareAChannel) {
  // Segments are half-open: [0,4) and [4,8) touch but do not conflict.
  DynamicCsdNetwork net(cfg(16, 1));
  ASSERT_TRUE(net.establish(0, 4));
  EXPECT_TRUE(net.establish(4, 8).has_value());
}

TEST(DynamicCsd, ExhaustionReturnsNullopt) {
  DynamicCsdNetwork net(cfg(8, 2));
  ASSERT_TRUE(net.establish(0, 7));
  ASSERT_TRUE(net.establish(1, 6));
  EXPECT_FALSE(net.try_route(2, 5).has_value());
  EXPECT_FALSE(net.establish(2, 5).has_value());
}

TEST(DynamicCsd, ReleaseFreesSpan) {
  DynamicCsdNetwork net(cfg(8, 1));
  const auto r = net.establish(0, 7);
  ASSERT_TRUE(r);
  EXPECT_FALSE(net.try_route(2, 5));
  net.release(*r);
  EXPECT_TRUE(net.try_route(2, 5));
  EXPECT_EQ(net.active_routes(), 0u);
  EXPECT_EQ(net.used_channels(), 0u);
}

TEST(DynamicCsd, ReleaseAtEndpoint) {
  DynamicCsdNetwork net(cfg(8, 4));
  ASSERT_TRUE(net.establish(0, 3));
  ASSERT_TRUE(net.establish(3, 6));
  ASSERT_TRUE(net.establish(1, 2));
  net.release_at(3);
  EXPECT_EQ(net.active_routes(), 1u);
}

TEST(DynamicCsd, DirectionDoesNotMatterForSpan) {
  DynamicCsdNetwork net(cfg(8, 1));
  ASSERT_TRUE(net.establish(5, 2));  // sink below source
  EXPECT_FALSE(net.try_route(3, 4));
  const auto& r = net.routes()[0];
  EXPECT_EQ(r.lo, 2u);
  EXPECT_EQ(r.hi, 5u);
  EXPECT_EQ(r.span(), 3u);
}

TEST(DynamicCsd, EndpointValidation) {
  DynamicCsdNetwork net(cfg(8, 1));
  EXPECT_THROW(net.try_route(0, 8), vlsip::PreconditionError);
  EXPECT_THROW(net.try_route(3, 3), vlsip::PreconditionError);
  EXPECT_THROW(net.release(99), vlsip::PreconditionError);
}

TEST(DynamicCsd, ConfigValidation) {
  EXPECT_THROW(DynamicCsdNetwork(cfg(1, 4)), vlsip::PreconditionError);
  EXPECT_THROW(DynamicCsdNetwork(cfg(8, 0)), vlsip::PreconditionError);
}

TEST(DynamicCsd, RouteSlotReuse) {
  DynamicCsdNetwork net(cfg(8, 2));
  const auto a = net.establish(0, 2);
  net.release(*a);
  const auto b = net.establish(4, 6);
  EXPECT_EQ(*a, *b);  // slot recycled
}

// ---- Fan-out -------------------------------------------------------------------

TEST(DynamicCsd, FanoutSpansAllSinks) {
  DynamicCsdNetwork net(cfg(16, 2));
  const auto r = net.establish_fanout(4, {2, 9, 6});
  ASSERT_TRUE(r);
  // Claim covers [2, 9): conflicting route must fail on that channel.
  EXPECT_EQ(net.try_route(3, 5).value(), 1u);
  EXPECT_EQ(net.claimed_segments(), 7u);
}

TEST(DynamicCsd, TwoSidedFanoutReleasesItsWholeSpan) {
  DynamicCsdNetwork net(cfg(16, 2));
  const auto r = net.establish_fanout(4, {2, 9, 6});
  ASSERT_TRUE(r);
  EXPECT_EQ(net.routes()[*r].lo, 2u);
  EXPECT_EQ(net.routes()[*r].hi, 9u);
  net.release(*r);
  EXPECT_EQ(net.claimed_segments(), 0u);
  EXPECT_EQ(net.used_channels(), 0u);
  EXPECT_TRUE(net.span_free(0, 0, 15));
}

TEST(DynamicCsd, TwoSidedFanoutSurvivesACheckpoint) {
  DynamicCsdNetwork net(cfg(16, 2));
  const auto r = net.establish_fanout(4, {2, 9, 6});
  ASSERT_TRUE(r);
  snapshot::Snapshot snap;
  {
    snapshot::Writer w(snap);
    net.save(w);
  }
  DynamicCsdNetwork restored(cfg(16, 2));
  snapshot::Reader reader(snap);
  restored.restore(reader);
  EXPECT_EQ(restored.claimed_segments(), 7u);
  EXPECT_FALSE(restored.span_free(0, 2, 3));  // the side below the source
  EXPECT_EQ(restored.routes()[*r].lo, 2u);
  EXPECT_EQ(restored.routes()[*r].hi, 9u);
  restored.release(*r);
  EXPECT_EQ(restored.claimed_segments(), 0u);
}

TEST(DynamicCsd, FanoutValidation) {
  DynamicCsdNetwork net(cfg(8, 1));
  EXPECT_THROW(net.establish_fanout(1, {}), vlsip::PreconditionError);
  EXPECT_THROW(net.establish_fanout(1, {1}), vlsip::PreconditionError);
  EXPECT_THROW(net.establish_fanout(8, {1}), vlsip::PreconditionError);
}

// ---- Handshake latency (fig. 2) ---------------------------------------------------

TEST(DynamicCsd, HandshakeLatencyIsTwoSpansPlusTwo) {
  // request propagation (span) + priority encode (1) + grant (1) +
  // ack (span).
  EXPECT_EQ(DynamicCsdNetwork::handshake_latency(0, 1), 4u);
  EXPECT_EQ(DynamicCsdNetwork::handshake_latency(0, 5), 12u);
  EXPECT_EQ(DynamicCsdNetwork::handshake_latency(5, 0), 12u);
}

// ---- Stack shift through the network -----------------------------------------------

TEST(DynamicCsd, ShiftMovesClaims) {
  DynamicCsdNetwork net(cfg(8, 2));
  ASSERT_TRUE(net.establish(0, 2));
  EXPECT_TRUE(net.shift_prefix(3).empty());  // [0, 3) -> [1, 3]
  const auto& r = net.routes()[0];
  EXPECT_EQ(r.source, 1u);
  EXPECT_EQ(r.sink, 3u);
  EXPECT_EQ(r.lo, 1u);
  EXPECT_EQ(r.hi, 3u);
  EXPECT_EQ(r.channel, 0u);  // rides the shift on its own channel
  // Old span start is free again; the moved span is claimed.
  EXPECT_TRUE(net.span_free(0, 0, 1));
  EXPECT_FALSE(net.span_free(0, 1, 3));
  EXPECT_EQ(net.claimed_segments(), 2u);
  EXPECT_EQ(net.route_requests(), 1u);  // no re-handshake
}

TEST(DynamicCsd, ShiftShrinksClaimsStraddlingTheBlockEdge) {
  DynamicCsdNetwork net(cfg(8, 1));
  ASSERT_TRUE(net.establish(5, 1));
  ASSERT_TRUE(net.establish(6, 7));  // below the block: untouched
  net.shift_prefix(3);
  const auto& straddler = net.routes()[0];
  EXPECT_EQ(straddler.source, 5u);
  EXPECT_EQ(straddler.sink, 2u);
  EXPECT_EQ(straddler.lo, 2u);
  EXPECT_EQ(straddler.hi, 5u);
  EXPECT_EQ(net.routes()[1].lo, 6u);
  EXPECT_EQ(net.routes()[1].hi, 7u);
  EXPECT_EQ(net.claimed_segments(), 4u);
  EXPECT_TRUE(net.span_free(0, 0, 2));
  EXPECT_FALSE(net.span_free(0, 2, 3));
}

TEST(DynamicCsd, ShiftDropsRoutesFallingOffTheBottom) {
  DynamicCsdNetwork net(cfg(4, 2));
  ASSERT_TRUE(net.establish(2, 3));  // joins the block's bottom to 3
  ASSERT_TRUE(net.establish(0, 1));
  net.shift_prefix(3);
  // Position 3's object is the evicted (or promoted) one: the claim
  // joining it to the block is overwritten, leaving a zero-span route
  // for its owner to release.
  const auto& fallen = net.routes()[0];
  EXPECT_EQ(fallen.source, 3u);
  EXPECT_EQ(fallen.sink, 3u);
  EXPECT_EQ(fallen.span(), 0u);
  const auto& survivor = net.routes()[1];
  EXPECT_EQ(survivor.source, 1u);
  EXPECT_EQ(survivor.sink, 2u);
  EXPECT_EQ(net.claimed_segments(), 1u);
  net.release(0);
  EXPECT_EQ(net.active_routes(), 1u);
  EXPECT_EQ(net.claimed_segments(), 1u);
}

TEST(DynamicCsd, RepeatedShiftsEmptyTheNetwork) {
  DynamicCsdNetwork net(cfg(6, 3));
  ASSERT_TRUE(net.establish(0, 2));
  ASSERT_TRUE(net.establish(1, 4));
  for (int i = 0; i < 6; ++i) net.shift_prefix(5);
  EXPECT_EQ(net.claimed_segments(), 0u);
  EXPECT_EQ(net.used_channels(), 0u);
  EXPECT_TRUE(net.span_free(0, 0, 5));
  net.release(0);
  net.release(1);
  EXPECT_EQ(net.active_routes(), 0u);
}

TEST(DynamicCsd, ShiftTearsRoutesMovedOntoDeadWire) {
  DynamicCsdNetwork net(cfg(8, 2));
  net.kill_segment(0, 3);
  const auto moved = net.establish(0, 3);  // channel 0, segments 0-2
  const auto below = net.establish(4, 6);  // channel 0, outside the block
  ASSERT_TRUE(moved && below);
  const auto torn = net.shift_prefix(4);  // segment 2 moves onto dead 3
  ASSERT_EQ(torn.size(), 1u);
  EXPECT_EQ(torn[0], *moved);
  EXPECT_EQ(net.routes()[*moved].id, kNoRoute);
  EXPECT_EQ(net.active_routes(), 1u);
  EXPECT_EQ(net.claimed_segments(), 2u);
  EXPECT_EQ(net.dead_segments(), 1u);
  EXPECT_TRUE(net.segment_dead(0, 3));
  EXPECT_TRUE(net.span_free(0, 0, 3));
}

TEST(DynamicCsd, ShiftOfAnEmptyBlockMovesNothing) {
  DynamicCsdNetwork net(cfg(6, 1));
  ASSERT_TRUE(net.establish(0, 3));
  const auto version = net.version();
  EXPECT_TRUE(net.shift_prefix(0).empty());
  EXPECT_EQ(net.version(), version);
  EXPECT_EQ(net.routes()[0].lo, 0u);
  EXPECT_EQ(net.claimed_segments(), 3u);
  EXPECT_THROW(net.shift_prefix(6), vlsip::PreconditionError);
}

// ---- Utilisation metrics ------------------------------------------------------------

TEST(DynamicCsd, UtilisationAccounting) {
  DynamicCsdNetwork net(cfg(9, 2));  // 2 channels x 8 segments
  ASSERT_TRUE(net.establish(0, 4));  // 4 segments
  EXPECT_DOUBLE_EQ(net.utilisation(), 4.0 / 16.0);
  EXPECT_EQ(net.used_channels(), 1u);
}

TEST(DynamicCsd, RenderShowsOccupancy) {
  DynamicCsdNetwork net(cfg(5, 2));
  ASSERT_TRUE(net.establish(0, 2));
  const auto s = net.render();
  EXPECT_NE(s.find("##"), std::string::npos);
  EXPECT_NE(s.find(".."), std::string::npos);
}

// A checkpoint's route table comes from outside the program: restore
// must reject one that no sequence of establish/release/shift calls can
// produce, instead of claiming out of range or double-booking a slot.
TEST(DynamicCsd, RestoreRejectsUnreachableRouteTables) {
  struct Table {
    std::vector<Route> routes;
    std::vector<RouteId> free_slots;
    std::uint64_t active;
  };
  const auto restore = [](const Table& t) {
    snapshot::Snapshot snap;
    {
      snapshot::Writer w(snap);
      w.section("csd.network");
      w.u32(6);  // positions
      w.u32(2);  // channels
      w.u64(t.routes.size());
      for (const auto& r : t.routes) {
        w.u32(r.id);
        w.u32(r.source);
        w.u32(r.sink);
        w.u32(r.lo);
        w.u32(r.hi);
        w.u32(r.channel);
      }
      w.vec_u32(t.free_slots);
      w.u64(t.active);
      w.vec_u8(std::vector<std::uint8_t>(2 * 5, 0));
      for (int i = 0; i < 8; ++i) w.u64(0);  // counters and version
    }
    DynamicCsdNetwork net(cfg(6, 2));
    snapshot::Reader r(snap);
    net.restore(r);
    return net.claimed_segments();
  };
  const Route dead{kNoRoute, 0, 0, 0, 0, 0};
  EXPECT_EQ(restore({{{0, 0, 3, 0, 3, 0}, dead, {2, 5, 3, 3, 5, 0}}, {1}, 2}),
            5u);
  // A two-sided fan-out claims past its source; a stack shift can leave
  // a route of no length.
  EXPECT_EQ(restore({{{0, 2, 4, 1, 4, 0}}, {}, 1}), 3u);
  EXPECT_EQ(restore({{{0, 2, 2, 2, 2, 0}}, {}, 1}), 0u);
  // Span or channel out of range.
  EXPECT_THROW(restore({{{0, 0, 6, 0, 6, 0}}, {}, 1}),
               snapshot::SnapshotError);
  EXPECT_THROW(restore({{{0, 0, 3, 0, 3, 2}}, {}, 1}),
               snapshot::SnapshotError);
  // An endpoint outside the span, or a span turned inside out.
  EXPECT_THROW(restore({{{0, 1, 3, 2, 3, 0}}, {}, 1}),
               snapshot::SnapshotError);
  EXPECT_THROW(restore({{{0, 2, 2, 3, 2, 0}}, {}, 1}),
               snapshot::SnapshotError);
  // A slot whose id is not its index.
  EXPECT_THROW(restore({{{1, 0, 3, 0, 3, 0}}, {}, 1}),
               snapshot::SnapshotError);
  // Two routes on one channel sharing a segment.
  EXPECT_THROW(restore({{{0, 0, 3, 0, 3, 0}, {1, 2, 5, 2, 5, 0}}, {}, 2}),
               snapshot::SnapshotError);
  // Free slots must be exactly the unused ones.
  EXPECT_THROW(restore({{{0, 0, 3, 0, 3, 0}}, {0}, 1}),
               snapshot::SnapshotError);
  EXPECT_THROW(restore({{{0, 0, 3, 0, 3, 0}}, {7}, 1}),
               snapshot::SnapshotError);
  EXPECT_THROW(restore({{{0, 0, 3, 0, 3, 0}, dead}, {}, 1}),
               snapshot::SnapshotError);
  EXPECT_THROW(restore({{{0, 0, 3, 0, 3, 0}, dead}, {1, 1}, 1}),
               snapshot::SnapshotError);
  // The live count must match.
  EXPECT_THROW(restore({{{0, 0, 3, 0, 3, 0}}, {}, 2}),
               snapshot::SnapshotError);
}

// ---- GlobalNetwork baseline ----------------------------------------------------------

TEST(GlobalNetwork, WholeChannelPerRoute) {
  GlobalNetwork net(16, 2);
  ASSERT_TRUE(net.establish(0, 1));
  ASSERT_TRUE(net.establish(14, 15));  // disjoint span, still new channel
  EXPECT_EQ(net.used_channels(), 2u);
  EXPECT_FALSE(net.establish(5, 6).has_value());
}

TEST(GlobalNetwork, ReleaseRecycles) {
  GlobalNetwork net(8, 1);
  const auto c = net.establish(0, 7);
  ASSERT_TRUE(c);
  net.release(*c);
  EXPECT_TRUE(net.establish(1, 2));
}

TEST(GlobalNetwork, WireCostLinearInChannels) {
  GlobalNetwork a(64, 16), b(64, 32);
  EXPECT_EQ(b.wire_segments(), 2 * a.wire_segments());
}

TEST(GlobalNetwork, Validation) {
  GlobalNetwork net(8, 2);
  EXPECT_THROW(net.establish(8, 0), vlsip::PreconditionError);
  EXPECT_THROW(net.establish(1, 1), vlsip::PreconditionError);
  EXPECT_THROW(net.release(5), vlsip::PreconditionError);
}

// ---- Functional CSD simulator (fig. 3 mechanics) ---------------------------------------

TEST(FunctionalCsd, RunIsDeterministic) {
  FunctionalRunConfig c;
  c.n_objects = 64;
  c.n_channels = 64;
  c.n_elements = 64;
  c.locality = 0.4;
  c.seed = 99;
  const auto a = run_functional_csd(c);
  const auto b = run_functional_csd(c);
  EXPECT_EQ(a.peak_used_channels, b.peak_used_channels);
  EXPECT_EQ(a.routed, b.routed);
}

TEST(FunctionalCsd, FullProvisioningNeverRejects) {
  FunctionalRunConfig c;
  c.n_objects = 128;
  c.n_channels = 128;
  c.n_elements = 128;
  c.locality = 0.0;
  c.seed = 5;
  const auto r = run_functional_csd(c);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_GT(r.routed, 0u);
}

TEST(FunctionalCsd, PaperHeadline_HalfChannelsSufficeForRandom) {
  // §2.6.2: "Nobject channels were not used, and Nobject/2 channels are
  // sufficient for the random datapath."
  for (std::uint32_t n : {32u, 64u, 128u}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      FunctionalRunConfig c;
      c.n_objects = n;
      c.n_channels = n;
      c.n_elements = n;
      c.locality = 0.0;  // fully random
      c.seed = seed;
      const auto r = run_functional_csd(c);
      EXPECT_LE(r.peak_used_channels, n / 2)
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(FunctionalCsd, LocalityReducesChannelUsage) {
  const auto curve = locality_curve(128, {1.0, 0.5, 0.0}, 5, 1234);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_LT(curve[0].mean_peak_channels, curve[2].mean_peak_channels);
  // Perfect locality: sources adjacent to sinks, very few channels.
  EXPECT_LE(curve[0].mean_peak_channels, 8.0);
}

TEST(FunctionalCsd, ReplayStreamHonoursReplacement) {
  // Re-chaining the same sink twice with replacement on: one live chain.
  arch::ConfigStream s;
  arch::ConfigElement e1;
  e1.sink = 3;
  e1.sources[0] = 0;
  arch::ConfigElement e2;
  e2.sink = 3;
  e2.sources[0] = 7;
  s.push(e1);
  s.push(e2);
  const auto with = replay_stream(s, 8, 8, true);
  const auto without = replay_stream(s, 8, 8, false);
  EXPECT_EQ(with.routed, 2u);
  EXPECT_EQ(without.routed, 2u);
  EXPECT_LE(with.final_used_channels, without.final_used_channels);
}

TEST(Routability, SuccessImprovesWithChannels) {
  const auto sweep = routability_sweep(64, {2, 8, 32, 64}, 0.0, 5, 77);
  ASSERT_EQ(sweep.size(), 4u);
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GE(sweep[i].success_rate, sweep[i - 1].success_rate - 1e-9);
  }
  EXPECT_NEAR(sweep.back().success_rate, 1.0, 1e-9);
}

TEST(Routability, FewChannelsFail) {
  const auto sweep = routability_sweep(64, {1}, 0.0, 5, 31);
  EXPECT_LT(sweep[0].success_rate, 0.9);
}

}  // namespace
}  // namespace vlsip::csd

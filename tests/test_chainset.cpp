// Tests for ChainSet: the bookkeeping that keeps dynamic-CSD claims
// consistent with object placement across stack shifts and swaps.
#include <gtest/gtest.h>

#include "ap/object_space.hpp"
#include "ap/pipeline.hpp"
#include "common/require.hpp"
#include "csd/dynamic_csd.hpp"

namespace vlsip::ap {
namespace {

struct ChainFixture : ::testing::Test {
  ChainFixture()
      : net(csd::CsdConfig{16, 8}), space(8), chains(net, space) {}

  csd::DynamicCsdNetwork net;
  ObjectSpace space;
  ChainSet chains;
};

TEST_F(ChainFixture, RefreshRoutesResidentChains) {
  space.insert_top(1);
  space.insert_top(2);
  chains.add(1, 2, 0);
  EXPECT_EQ(chains.refresh(), 0u);
  EXPECT_EQ(chains.routed(), 1u);
  EXPECT_EQ(net.active_routes(), 1u);
}

TEST_F(ChainFixture, DormantChainsHoldNoRoute) {
  space.insert_top(1);
  chains.add(1, 9, 0);  // 9 is not resident
  chains.refresh();
  EXPECT_EQ(chains.routed(), 0u);
  EXPECT_EQ(net.active_routes(), 0u);
  EXPECT_EQ(chains.unrouted_resident(), 0u);  // dormant, not failed
}

TEST_F(ChainFixture, ShiftInvalidatesAndReroutes) {
  space.insert_top(1);
  space.insert_top(2);
  chains.add(1, 2, 0);
  chains.refresh();
  const auto before = net.routes()[chains.chains()[0].route];
  // A new object enters the top: both endpoints move down one.
  space.insert_top(3);
  chains.refresh();
  ASSERT_EQ(chains.routed(), 1u);
  const auto after = net.routes()[chains.chains()[0].route];
  EXPECT_EQ(after.lo, before.lo + 1);
  EXPECT_EQ(after.hi, before.hi + 1);
}

TEST_F(ChainFixture, UnmovedChainsKeepRoutes) {
  space.insert_top(5);
  space.insert_top(6);
  chains.add(6, 5, 0);  // positions 0 -> 1
  chains.refresh();
  const auto id_before = chains.chains()[0].route;
  chains.refresh();  // nothing moved
  EXPECT_EQ(chains.chains()[0].route, id_before);
}

TEST_F(ChainFixture, EvictionMakesChainDormantThenRevives) {
  space.insert_top(1);
  space.insert_top(2);
  chains.add(1, 2, 0);
  chains.refresh();
  EXPECT_EQ(chains.routed(), 1u);
  space.remove(1);  // swapped out
  chains.refresh();
  EXPECT_EQ(chains.routed(), 0u);
  space.insert_top(1);  // faults back in
  chains.refresh();
  EXPECT_EQ(chains.routed(), 1u);
}

TEST_F(ChainFixture, RemoveForDropsChainsAndRoutes) {
  space.insert_top(1);
  space.insert_top(2);
  space.insert_top(3);
  chains.add(1, 2, 0);
  chains.add(2, 3, 0);
  chains.refresh();
  chains.remove_for(2);
  EXPECT_EQ(chains.size(), 0u);  // both touched object 2
  EXPECT_EQ(net.active_routes(), 0u);
}

TEST_F(ChainFixture, ClearReleasesEverything) {
  space.insert_top(1);
  space.insert_top(2);
  space.insert_top(3);
  chains.add(1, 2, 0);
  chains.add(3, 2, 1);
  chains.refresh();
  chains.clear();
  EXPECT_EQ(chains.size(), 0u);
  EXPECT_EQ(net.active_routes(), 0u);
  EXPECT_EQ(net.claimed_segments(), 0u);
}

TEST_F(ChainFixture, SelfChainRejected) {
  EXPECT_THROW(chains.add(4, 4, 0), vlsip::PreconditionError);
}

TEST_F(ChainFixture, RoutabilityFailureCounted) {
  // One channel; two overlapping chains cannot both route.
  csd::DynamicCsdNetwork tiny(csd::CsdConfig{8, 1});
  ObjectSpace s(4);
  ChainSet cs(tiny, s);
  s.insert_top(0);
  s.insert_top(1);
  s.insert_top(2);
  s.insert_top(3);
  cs.add(0, 3, 0);  // positions 3 -> 0 (span covers everything)
  cs.add(1, 2, 0);  // overlaps on the single channel
  const auto failures = cs.refresh();
  EXPECT_EQ(failures, 1u);
  EXPECT_EQ(cs.routed(), 1u);
  EXPECT_EQ(cs.unrouted_resident(), 1u);
}

TEST_F(ChainFixture, RefreshSkipsWhenNothingChanged) {
  space.insert_top(1);
  space.insert_top(2);
  chains.add(1, 2, 0);
  const auto n0 = chains.rebuilds();
  const auto f0 = chains.refresh();
  EXPECT_EQ(chains.rebuilds(), n0 + 1);
  // No placement / claim / chain change since: the pass is skipped but
  // the cached failure count is still reported.
  EXPECT_EQ(chains.refresh(), f0);
  EXPECT_EQ(chains.rebuilds(), n0 + 1);
  // A placement change invalidates the memo.
  space.insert_top(3);
  chains.refresh();
  EXPECT_EQ(chains.rebuilds(), n0 + 2);
  // So does adding a chain, even with placement unchanged.
  chains.add(3, 1, 0);
  chains.refresh();
  EXPECT_EQ(chains.rebuilds(), n0 + 3);
}

TEST_F(ChainFixture, ShiftedChainsKeepTheirRoutes) {
  space.insert_top(1);
  space.insert_top(2);
  space.insert_top(3);  // stack: 3 2 1
  chains.add(1, 2, 0);
  chains.refresh();
  const auto id = chains.chains()[0].route;
  const auto requests = net.route_requests();
  // A new object enters the top: the chain rides the shift.
  chains.shift_prefix(space.size());
  space.insert_top(4);
  chains.refresh();
  EXPECT_EQ(chains.chains()[0].route, id);
  EXPECT_EQ(net.route_requests(), requests);
  EXPECT_EQ(net.routes()[id].source, 3u);
  EXPECT_EQ(net.routes()[id].sink, 2u);
  EXPECT_EQ(net.claimed_segments(), 1u);
}

TEST_F(ChainFixture, PromotedObjectsChainsReHandshake) {
  for (arch::ObjectId id = 1; id <= 4; ++id) space.insert_top(id);
  chains.add(1, 4, 0);  // positions 3 -> 0: the promoted object's chain
  chains.add(3, 2, 0);  // positions 1 -> 2: inside the shifted block
  chains.refresh();
  const auto inside = chains.chains()[1].route;
  const auto requests = net.route_requests();
  const int depth = space.promote(1);
  chains.shift_prefix(depth);
  chains.refresh();
  EXPECT_EQ(net.route_requests(), requests + 1);
  EXPECT_EQ(chains.chains()[1].route, inside);
  EXPECT_EQ(chains.routed(), 2u);
  EXPECT_EQ(net.routes()[chains.chains()[0].route].source, 0u);
  EXPECT_EQ(net.routes()[chains.chains()[0].route].sink, 1u);
  EXPECT_EQ(net.claimed_segments(), 2u);
}

TEST_F(ChainFixture, TornRoutesAreReHandshaked) {
  space.insert_top(1);
  space.insert_top(2);
  space.insert_top(3);  // stack: 3 2 1
  chains.add(3, 1, 0);  // positions 0 -> 2, channel 0
  chains.refresh();
  net.kill_segment(0, 2);
  // The shift moves the claim on segment 1 onto the dead segment 2.
  chains.shift_prefix(space.size());
  space.insert_top(4);
  EXPECT_FALSE(chains.chains()[0].routed());
  EXPECT_EQ(chains.refresh(), 0u);
  const auto& r = net.routes()[chains.chains()[0].route];
  EXPECT_EQ(r.channel, 1u);
  EXPECT_EQ(r.lo, 1u);
  EXPECT_EQ(r.hi, 3u);
}

TEST_F(ChainFixture, DroppedRoutesAreForgottenNotReleased) {
  csd::DynamicCsdNetwork one(csd::CsdConfig{8, 1});
  ObjectSpace s(4);
  ChainSet cs(one, s);
  s.insert_top(1);
  s.insert_top(2);
  s.insert_top(3);  // stack: 3 2 1
  cs.add(1, 2, 0);  // positions 2 -> 1
  cs.add(3, 2, 1);  // positions 0 -> 1
  ASSERT_EQ(cs.refresh(), 0u);
  // Each kill drops a route its chain still names (one channel, so no
  // re-route). The freed slot counts as unrouted, and is never released.
  ASSERT_EQ(one.kill_segment(0, 1).dropped, 1u);
  EXPECT_EQ(cs.refresh(), 1u);  // no healthy span left for 2 -> 1
  EXPECT_EQ(cs.routed(), 1u);
  ASSERT_EQ(one.kill_segment(0, 0).dropped, 1u);
  EXPECT_NO_THROW(cs.clear());
  EXPECT_EQ(one.active_routes(), 0u);
}

}  // namespace
}  // namespace vlsip::ap

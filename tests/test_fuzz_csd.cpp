// Randomized stress of the dynamic CSD network against a shadow model:
// establish/two-sided fan-out/release/stack-shift/kill sequences, with
// checkpoint round trips in the middle, must keep the claim state
// exactly consistent with the set of active routes, and every grant must
// be the fig. 2 priority encoder's choice (the lowest channel whose span
// is free).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "csd/dynamic_csd.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::csd {
namespace {

struct ShadowRoute {
  Position lo;
  Position hi;
  ChannelId channel;
};

using ShadowRoutes = std::map<RouteId, ShadowRoute>;

/// Reference model of the claim state: routes by id plus one flag per
/// (channel, hop segment) for defective wire.
struct Shadow {
  Position positions;
  ChannelId channels;
  ShadowRoutes routes;
  std::vector<std::uint8_t> dead;  // [channel * (positions - 1) + segment]

  bool is_dead(ChannelId c, Position s) const {
    return dead[static_cast<std::size_t>(c) * (positions - 1) + s] != 0;
  }
  std::size_t dead_count() const {
    return static_cast<std::size_t>(std::count(dead.begin(), dead.end(), 1));
  }
  /// True if channel `c` has no dead segment in [lo, hi) and no route
  /// overlaps it (a zero-span route claims nothing).
  bool span_free(ChannelId c, Position lo, Position hi) const {
    for (Position s = lo; s < hi; ++s) {
      if (is_dead(c, s)) return false;
    }
    for (const auto& [id, r] : routes) {
      if (r.channel == c && r.lo < r.hi && !(r.hi <= lo || hi <= r.lo)) {
        return false;
      }
    }
    return true;
  }
  /// Lowest channel free over [lo, hi), or `channels` if none.
  ChannelId lowest_free(Position lo, Position hi) const {
    for (ChannelId c = 0; c < channels; ++c) {
      if (span_free(c, lo, hi)) return c;
    }
    return channels;
  }
};

class CsdFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsdFuzz, ClaimsAlwaysMatchActiveRoutes) {
  const auto seed = GetParam();
  Xoshiro256 rng(seed);
  // Seeds past 12 use more than 64 positions and more than 64 channels,
  // so spans and channel masks cross 64-bit word boundaries.
  const bool wide = seed > 12;
  const Position positions =
      static_cast<Position>(wide ? 65 + rng.uniform(136) : 8 + rng.uniform(56));
  const ChannelId channels =
      static_cast<ChannelId>(wide ? 65 + rng.uniform(96) : 2 + rng.uniform(14));
  DynamicCsdNetwork net(CsdConfig{positions, channels});
  Shadow shadow{positions, channels, {},
                std::vector<std::uint8_t>(
                    static_cast<std::size_t>(channels) * (positions - 1), 0)};

  auto check_consistency = [&] {
    // 1. Active route count matches.
    ASSERT_EQ(net.active_routes(), shadow.routes.size());
    // 2. Every route records the shadow's span and channel; claimed
    //    segments and used channels equal a recount of the spans.
    std::size_t expect_segments = 0;
    std::vector<std::uint8_t> used(channels, 0);
    for (const auto& [id, r] : shadow.routes) {
      const Route& got = net.routes()[id];
      ASSERT_EQ(got.id, id);
      ASSERT_EQ(got.lo, r.lo) << "route " << id;
      ASSERT_EQ(got.hi, r.hi) << "route " << id;
      ASSERT_EQ(got.channel, r.channel) << "route " << id;
      ASSERT_TRUE(got.lo <= got.source && got.source <= got.hi);
      ASSERT_TRUE(got.lo <= got.sink && got.sink <= got.hi);
      expect_segments += r.hi - r.lo;
      if (r.hi > r.lo) used[r.channel] = 1;
    }
    ASSERT_EQ(net.claimed_segments(), expect_segments);
    ASSERT_EQ(net.used_channels(),
              static_cast<ChannelId>(std::count(used.begin(), used.end(), 1)));
    // 3. No two shadow routes on one channel overlap, and none covers a
    //    dead segment.
    for (auto a = shadow.routes.begin(); a != shadow.routes.end(); ++a) {
      for (Position s = a->second.lo; s < a->second.hi; ++s) {
        ASSERT_FALSE(shadow.is_dead(a->second.channel, s))
            << "route " << a->first << " claims a dead segment";
      }
      for (auto b = std::next(a); b != shadow.routes.end(); ++b) {
        if (a->second.channel != b->second.channel) continue;
        const bool disjoint = a->second.hi <= b->second.lo ||
                              b->second.hi <= a->second.lo ||
                              a->second.lo == a->second.hi ||
                              b->second.lo == b->second.hi;
        ASSERT_TRUE(disjoint) << "overlap on channel " << a->second.channel;
      }
    }
    // 4. span_free agrees with the shadow for random probes.
    for (int probe = 0; probe < 8; ++probe) {
      const auto c = static_cast<ChannelId>(rng.uniform(channels));
      const auto lo = static_cast<Position>(rng.uniform(positions - 1));
      const auto hi =
          static_cast<Position>(lo + 1 + rng.uniform(positions - 1 - lo));
      ASSERT_EQ(net.span_free(c, lo, hi), shadow.span_free(c, lo, hi))
          << "probe ch" << c << " [" << lo << "," << hi << ")";
    }
    // 5. Dead-segment accounting and the rendered claim matrix: every
    //    live route's bits are exactly its span on its channel, with no
    //    stray bits anywhere else.
    ASSERT_EQ(net.dead_segments(), shadow.dead_count());
    const std::size_t segs = positions - 1;
    std::string cells(shadow.dead.size(), '.');
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (shadow.dead[i]) cells[i] = 'X';
    }
    for (const auto& [id, r] : shadow.routes) {
      for (Position s = r.lo; s < r.hi; ++s) cells[r.channel * segs + s] = '#';
    }
    std::string expect_render;
    for (ChannelId c = 0; c < channels; ++c) {
      expect_render += "ch" + std::to_string(c) + ": " +
                       cells.substr(c * segs, segs) + "\n";
    }
    ASSERT_EQ(net.render(), expect_render);
  };

  // A granted establish must take the lowest channel the shadow says is
  // free; a reject is only allowed when no channel is free.
  auto record_grant = [&](std::optional<RouteId> route, Position lo,
                          Position hi, ChannelId expect) {
    if (expect == channels) {
      ASSERT_FALSE(route.has_value()) << "granted with no free channel";
      return;
    }
    ASSERT_TRUE(route.has_value()) << "rejected with channel " << expect
                                   << " free";
    const auto& r = net.routes()[*route];
    ASSERT_EQ(r.channel, expect) << "priority encoder skipped a channel";
    shadow.routes[*route] = ShadowRoute{lo, hi, r.channel};
  };

  // Wide arrays establish more and release less, so more than 64 routes
  // overlap and grants spill past the first channel word.
  const std::uint64_t establish_end = wide ? 13 : 10;
  for (int step = 0; step < 300; ++step) {
    const auto action = rng.uniform(20);
    if (action < establish_end) {
      // establish
      const auto a = static_cast<Position>(rng.uniform(positions));
      auto b = static_cast<Position>(rng.uniform(positions));
      if (a == b) b = (b + 1) % positions;
      const Position lo = std::min(a, b);
      const Position hi = std::max(a, b);
      const ChannelId expect = shadow.lowest_free(lo, hi);
      record_grant(net.establish(a, b), lo, hi, expect);
    } else if (action < establish_end + 1) {
      // Fan-out from a source to a few sinks anywhere on the array, so
      // the span often reaches both sides of the source.
      const auto source = static_cast<Position>(rng.uniform(positions));
      std::vector<Position> sinks;
      Position lo = source;
      Position hi = source;
      const auto n = 1 + rng.uniform(3);
      for (std::uint64_t i = 0; i < n; ++i) {
        sinks.push_back(static_cast<Position>(rng.uniform(positions)));
        lo = std::min(lo, sinks.back());
        hi = std::max(hi, sinks.back());
      }
      if (lo == hi) continue;
      const ChannelId expect = shadow.lowest_free(lo, hi);
      record_grant(net.establish_fanout(source, sinks), lo, hi, expect);
    } else if (action < 15) {
      // release a random active route
      if (!shadow.routes.empty()) {
        auto it = shadow.routes.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.uniform(shadow.routes.size())));
        net.release(it->first);
        shadow.routes.erase(it);
      }
    } else if (action < 17) {
      // Stack shift of a random top block [0, k) to [1, k]: every span
      // maps through p -> p + (p < k) on its own channel, and exactly the
      // routes whose mapped span covers dead wire are torn.
      const auto k = static_cast<Position>(rng.uniform(positions));
      const std::vector<RouteId> torn = net.shift_prefix(k);
      std::vector<RouteId> expect_torn;
      for (auto it = shadow.routes.begin(); it != shadow.routes.end();) {
        ShadowRoute& r = it->second;
        r.lo += static_cast<Position>(r.lo < k);
        r.hi += static_cast<Position>(r.hi < k);
        bool on_dead = false;
        for (Position s = r.lo; s < r.hi; ++s) {
          on_dead = on_dead || shadow.is_dead(r.channel, s);
        }
        if (on_dead) {
          expect_torn.push_back(it->first);
          it = shadow.routes.erase(it);
        } else {
          ++it;
        }
      }
      ASSERT_EQ(torn, expect_torn);
      for (const RouteId id : torn) ASSERT_EQ(net.routes()[id].id, kNoRoute);
    } else if (action < 19) {
      // Kill one hop segment; a route on it re-handshakes in its old
      // slot (the free list is LIFO) or is dropped.
      const auto c = static_cast<ChannelId>(rng.uniform(channels));
      const auto s = static_cast<Position>(rng.uniform(positions - 1));
      const bool was_dead = shadow.is_dead(c, s);
      auto victim = shadow.routes.end();
      for (auto it = shadow.routes.begin(); it != shadow.routes.end(); ++it) {
        if (it->second.channel == c && it->second.lo <= s &&
            s < it->second.hi) {
          victim = it;
        }
      }
      const auto result = net.kill_segment(c, s);
      shadow.dead[static_cast<std::size_t>(c) * (positions - 1) + s] = 1;
      if (was_dead || victim == shadow.routes.end()) {
        ASSERT_EQ(result.affected, 0u);
      } else {
        ASSERT_EQ(result.affected, 1u);
        const RouteId id = victim->first;
        ShadowRoute torn = victim->second;
        shadow.routes.erase(victim);
        torn.channel = shadow.lowest_free(torn.lo, torn.hi);
        if (torn.channel == channels) {
          ASSERT_EQ(result.dropped, 1u);
        } else {
          ASSERT_EQ(result.rerouted, 1u);
          ASSERT_EQ(net.routes()[id].id, id);
          ASSERT_EQ(net.routes()[id].channel, torn.channel)
              << "re-route skipped a channel";
          shadow.routes[id] = torn;
        }
      }
      ASSERT_TRUE(net.segment_dead(c, s));
    } else {
      // Checkpoint round trip: the restored network re-serializes to the
      // same bytes and carries on in place of the original.
      snapshot::Snapshot snap;
      {
        snapshot::Writer w(snap);
        net.save(w);
      }
      DynamicCsdNetwork restored(CsdConfig{positions, channels});
      snapshot::Reader r(snap);
      restored.restore(r);
      snapshot::Snapshot again;
      {
        snapshot::Writer w(again);
        restored.save(w);
      }
      ASSERT_EQ(snap.bytes(), again.bytes());
      ASSERT_EQ(restored.version(), net.version());
      net = std::move(restored);
    }
    ASSERT_EQ(net.route_requests(), net.route_grants() + net.route_rejects());
    check_consistency();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CsdFuzz,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace vlsip::csd

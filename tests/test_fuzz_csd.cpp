// Randomized stress of the dynamic CSD network against a shadow model:
// establish/fan-out/release/shift/kill sequences, with a checkpoint
// round trip in the middle, must keep the claim state exactly
// consistent with the set of active routes, and every grant must be the
// fig. 2 priority encoder's choice (the lowest channel whose span is
// free).
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
  /// of `in` overlaps it.
  bool span_free_in(const ShadowRoutes& in, ChannelId c, Position lo,
                    Position hi) const {
    for (Position s = lo; s < hi; ++s) {
      if (is_dead(c, s)) return false;
    }
    for (const auto& [id, r] : in) {
      if (r.channel == c && !(r.hi <= lo || hi <= r.lo)) return false;
    }
    return true;
  }
  bool span_free(ChannelId c, Position lo, Position hi) const {
    return span_free_in(routes, c, lo, hi);
  }
  /// Lowest channel free over [lo, hi) in `in`, or `channels` if none.
  ChannelId lowest_free_in(const ShadowRoutes& in, Position lo,
                           Position hi) const {
    for (ChannelId c = 0; c < channels; ++c) {
      if (span_free_in(in, c, lo, hi)) return c;
    }
    return channels;
  }
  ChannelId lowest_free(Position lo, Position hi) const {
    return lowest_free_in(routes, lo, hi);
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
    // 2. Total claimed segments = sum of shadow spans.
    std::size_t expect_segments = 0;
    for (const auto& [id, r] : shadow.routes) expect_segments += r.hi - r.lo;
    ASSERT_EQ(net.claimed_segments(), expect_segments);
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
                              b->second.hi <= a->second.lo;
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
    // 5. Dead-segment accounting and the rendered claim matrix.
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
      // Fan-out from a source to a few sinks on one side of it (a Route
      // records only the farthest sink, so a two-sided fan-out's span
      // is not recoverable from it).
      const auto source = static_cast<Position>(rng.uniform(positions));
      const bool down = rng.uniform(2) == 0;
      if (down ? source + 1 == positions : source == 0) continue;
      std::vector<Position> sinks;
      Position lo = source;
      Position hi = source;
      const auto n = 1 + rng.uniform(3);
      for (std::uint64_t i = 0; i < n; ++i) {
        sinks.push_back(static_cast<Position>(
            down ? source + 1 + rng.uniform(positions - 1 - source)
                 : rng.uniform(source)));
        lo = std::min(lo, sinks.back());
        hi = std::max(hi, sinks.back());
      }
      const ChannelId expect = shadow.lowest_free(lo, hi);
      record_grant(net.establish_fanout(source, sinks), lo, hi, expect);
    } else if (action < 16) {
      // release a random active route
      if (!shadow.routes.empty()) {
        auto it = shadow.routes.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.uniform(shadow.routes.size())));
        net.release(it->first);
        shadow.routes.erase(it);
      }
    } else if (action < 17) {
      // Stack shift: routes move +1 in id order; one pushed off the
      // bottom is dropped, and one whose shifted span now covers a dead
      // segment (or a channel a re-homed route already took) falls back
      // to the lowest free channel or is dropped.
      net.shift_down_one();
      ShadowRoutes moved;
      for (auto [id, r] : shadow.routes) {
        if (r.hi + 1 >= positions) continue;
        ++r.lo;
        ++r.hi;
        if (!shadow.span_free_in(moved, r.channel, r.lo, r.hi)) {
          r.channel = shadow.lowest_free_in(moved, r.lo, r.hi);
          if (r.channel == channels) continue;
        }
        moved[id] = r;
      }
      shadow.routes = std::move(moved);
      for (const auto& [id, r] : shadow.routes) {
        ASSERT_EQ(net.routes()[id].channel, r.channel) << "route " << id;
      }
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

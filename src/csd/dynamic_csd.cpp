#include "csd/dynamic_csd.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/require.hpp"
#include "common/simd.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::csd {

DynamicCsdNetwork::DynamicCsdNetwork(CsdConfig config, obs::TraceSink* trace) {
  reset(config, trace);
}

void DynamicCsdNetwork::reset(CsdConfig config, obs::TraceSink* trace) {
  VLSIP_REQUIRE(config.positions >= 2, "need at least two positions");
  VLSIP_REQUIRE(config.channels >= 1, "need at least one channel");
  config_ = config;
  words_per_segment_ = (static_cast<std::size_t>(config.channels) + 63) / 64;
  blocked_.assign((config_.positions - 1) * words_per_segment_, 0ull);
  dead_.assign(blocked_.size(), 0ull);
  dead_count_ = 0;
  claimed_per_channel_.assign(config_.channels, 0);
  claimed_total_ = 0;
  routes_.clear();
  free_slots_.clear();
  active_routes_ = 0;
  trace_ = trace;
  now_ = 0;
  version_ = 0;
  requests_ = 0;
  grants_ = 0;
  rejects_ = 0;
  segments_killed_ = 0;
  kill_reroutes_ = 0;
  kill_drops_ = 0;
}

bool DynamicCsdNetwork::span_free(ChannelId channel, Position lo,
                                  Position hi) const {
  const std::uint64_t bit = bit_of(channel);
  for (Position s = lo; s < hi; ++s) {
    if (blocked_[word_of(s, channel)] & bit) return false;
  }
  return true;
}

ChannelId DynamicCsdNetwork::lowest_free_channel(Position lo,
                                                 Position hi) const {
  // OR the span's channel masks one 64-channel word at a time; the
  // lowest clear bit of the first word that is not all ones is the
  // winner. Bits past the last channel start out set, so they never win.
  for (std::size_t w = 0; w < words_per_segment_; ++w) {
    const ChannelId base = static_cast<ChannelId>(w * 64);
    const ChannelId in_word = config_.channels - base;
    std::uint64_t busy = in_word < 64 ? ~0ull << in_word : 0ull;
    for (Position s = lo; s < hi && busy != ~0ull; ++s) {
      busy |= blocked_[word_of(s, base)];
    }
    if (busy != ~0ull) {
      return base + static_cast<ChannelId>(std::countr_one(busy));
    }
  }
  return config_.channels;
}

void DynamicCsdNetwork::claim(ChannelId c, Position lo, Position hi) {
  const std::uint64_t bit = bit_of(c);
  for (Position s = lo; s < hi; ++s) blocked_[word_of(s, c)] |= bit;
  claimed_per_channel_[c] += hi - lo;
  claimed_total_ += hi - lo;
  ++version_;
}

void DynamicCsdNetwork::unclaim(ChannelId c, Position lo, Position hi) {
  // A route torn by a stack shift has claim bits on dead wire; the dead
  // bit stays set there.
  const std::uint64_t bit = bit_of(c);
  for (Position s = lo; s < hi; ++s) {
    const std::size_t w = word_of(s, c);
    blocked_[w] &= ~bit | dead_[w];
  }
  claimed_per_channel_[c] -= hi - lo;
  claimed_total_ -= hi - lo;
  ++version_;
}

RouteId DynamicCsdNetwork::take_slot() {
  if (!free_slots_.empty()) {
    const RouteId id = free_slots_.back();
    free_slots_.pop_back();
    return id;
  }
  routes_.push_back(Route{});
  return static_cast<RouteId>(routes_.size() - 1);
}

ChannelId DynamicCsdNetwork::request(Position lo, Position hi) {
  ++requests_;
  const ChannelId c = lowest_free_channel(lo, hi);
  if (c < config_.channels) {
    ++grants_;
  } else {
    ++rejects_;
  }
  return c;
}

std::optional<ChannelId> DynamicCsdNetwork::try_route(Position source,
                                                      Position sink) {
  VLSIP_REQUIRE(source < config_.positions && sink < config_.positions,
                "route endpoint out of range");
  VLSIP_REQUIRE(source != sink, "source and sink must differ");
  // Priority encoder at the sink: lowest-index channel whose span is
  // entirely chained (free) wins.
  const ChannelId c = request(std::min(source, sink), std::max(source, sink));
  if (c < config_.channels) return c;
  return std::nullopt;
}

std::optional<RouteId> DynamicCsdNetwork::grant(Position source, Position sink,
                                                Position lo, Position hi) {
  const ChannelId c = request(lo, hi);
  if (c == config_.channels) return std::nullopt;
  const RouteId id = take_slot();
  routes_[id] = Route{id, source, sink, lo, hi, c};
  claim(c, lo, hi);
  ++active_routes_;
  return id;
}

std::optional<RouteId> DynamicCsdNetwork::handshake(Position source,
                                                    Position sink, Position lo,
                                                    Position hi) {
  const auto id = grant(source, sink, lo, hi);
  if (!id) {
    if (trace_) {
      trace_->event(now_, obs::Layer::kCsd, "csd", -1,
                    "route " + std::to_string(source) + "->" +
                        std::to_string(sink) + " REJECTED (no free channel)");
    }
    return std::nullopt;
  }
  const std::uint64_t latency = handshake_latency(lo, hi);
  now_ += latency;
  if (trace_) {
    trace_->event(now_, obs::Layer::kCsd, "csd",
                  static_cast<std::int64_t>(*id),
                  "route " + std::to_string(source) + "->" +
                      std::to_string(sink) + " granted channel " +
                      std::to_string(routes_[*id].channel),
                  latency);
  }
  return id;
}

std::optional<RouteId> DynamicCsdNetwork::establish(Position source,
                                                    Position sink) {
  VLSIP_REQUIRE(source < config_.positions && sink < config_.positions,
                "route endpoint out of range");
  VLSIP_REQUIRE(source != sink, "source and sink must differ");
  return handshake(source, sink, std::min(source, sink),
                   std::max(source, sink));
}

void DynamicCsdNetwork::drop(RouteId id) {
  Route& r = routes_[id];
  unclaim(r.channel, r.lo, r.hi);
  r.id = kNoRoute;
  free_slots_.push_back(id);
  --active_routes_;
}

void DynamicCsdNetwork::release(RouteId id) {
  VLSIP_REQUIRE(id < routes_.size() && routes_[id].id != kNoRoute,
                "release of unknown route");
  drop(id);
  if (trace_) {
    trace_->event(now_, obs::Layer::kCsd, "csd",
                  static_cast<std::int64_t>(id),
                  "route " + std::to_string(id) + " released");
  }
}

void DynamicCsdNetwork::release_at(Position p) {
  for (RouteId id = 0; id < routes_.size(); ++id) {
    const Route& r = routes_[id];
    if (r.id != kNoRoute && (r.source == p || r.sink == p)) {
      release(id);
    }
  }
}

std::optional<RouteId> DynamicCsdNetwork::establish_fanout(
    Position source, const std::vector<Position>& sinks) {
  VLSIP_REQUIRE(!sinks.empty(), "fan-out needs at least one sink");
  VLSIP_REQUIRE(source < config_.positions, "fan-out source out of range");
  Position lo = source;
  Position hi = source;
  for (Position s : sinks) {
    VLSIP_REQUIRE(s < config_.positions, "fan-out sink out of range");
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  VLSIP_REQUIRE(hi > lo, "fan-out must span at least one segment");
  // The farthest sink stands for the fan-out; the claim covers them all.
  const auto id = grant(source, hi == source ? lo : hi, lo, hi);
  if (id && trace_) {
    trace_->event(now_, obs::Layer::kCsd, "csd",
                  static_cast<std::int64_t>(*id),
                  "fanout from " + std::to_string(source) + " over [" +
                      std::to_string(lo) + "," + std::to_string(hi) +
                      "] on channel " + std::to_string(routes_[*id].channel));
  }
  return id;
}

std::vector<RouteId> DynamicCsdNetwork::shift_prefix(Position k) {
  VLSIP_REQUIRE(k < config_.positions, "stack shift past the bottom");
  std::vector<RouteId> torn;
  ++now_;  // every segment latch of the block moves in the same cycle
  if (k == 0) return torn;
  const std::size_t words = words_per_segment_;
  // Segment k-1 joined positions k-1 and k, which the shift separates:
  // its claims are overwritten.
  const std::size_t edge = static_cast<std::size_t>(k - 1) * words;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t lost = blocked_[edge + w] & ~dead_[edge + w];
    claimed_total_ -= static_cast<std::size_t>(std::popcount(lost));
    for (; lost != 0; lost &= lost - 1) {
      --claimed_per_channel_[w * 64 + std::countr_zero(lost)];
    }
  }
  // Segments [0, k-1) move up one segment, top word last (a masked
  // copy_backward). Dead wire stays where it is; a claim moved onto it
  // is torn below.
  std::uint64_t on_dead = 0;
  for (std::size_t i = edge; i-- > 0;) {
    const std::uint64_t moved = blocked_[i] & ~dead_[i];
    on_dead |= moved & dead_[i + words];
    blocked_[i + words] = moved | dead_[i + words];
  }
  // Segment 0 now leads to the entering object, which holds no claims.
  std::copy_n(dead_.begin(), words, blocked_.begin());
  for (Route& r : routes_) {
    r.source += static_cast<Position>(r.source < k);
    r.sink += static_cast<Position>(r.sink < k);
    r.lo += static_cast<Position>(r.lo < k);
    r.hi += static_cast<Position>(r.hi < k);
  }
  ++version_;
  if (on_dead != 0) {
    for (RouteId id = 0; id < routes_.size(); ++id) {
      const Route& r = routes_[id];
      if (r.id == kNoRoute) continue;
      const std::uint64_t bit = bit_of(r.channel);
      bool dead = false;
      for (Position s = r.lo; s < r.hi && !dead; ++s) {
        dead = (dead_[word_of(s, r.channel)] & bit) != 0;
      }
      if (!dead) continue;
      drop(id);
      torn.push_back(id);
      if (trace_) {
        trace_->event(now_, obs::Layer::kCsd, "csd",
                      static_cast<std::int64_t>(id),
                      "route " + std::to_string(id) +
                          " torn by stack shift (dead segment)");
      }
    }
  }
  if (trace_) {
    trace_->event(now_, obs::Layer::kCsd, "csd", -1,
                  "stack shift of positions [0," + std::to_string(k) + ")");
  }
  return torn;
}

SegmentKillResult DynamicCsdNetwork::kill_segment(ChannelId channel,
                                                  Position segment) {
  VLSIP_REQUIRE(channel < config_.channels, "channel out of range");
  VLSIP_REQUIRE(segment < config_.positions - 1, "segment out of range");
  SegmentKillResult result;
  const std::size_t word = word_of(segment, channel);
  const std::uint64_t bit = bit_of(channel);
  if (dead_[word] & bit) return result;  // already killed

  const auto kill = [&] {
    dead_[word] |= bit;
    blocked_[word] |= bit;
    ++dead_count_;
    ++version_;
  };
  if (blocked_[word] & bit) {
    // A live route claims the segment. Tear it off the dead wire, then
    // re-handshake: the fig. 2 procedure naturally finds a surviving
    // channel.
    const auto victim = std::find_if(
        routes_.begin(), routes_.end(), [&](const Route& r) {
          return r.id != kNoRoute && r.channel == channel &&
                 r.lo <= segment && segment < r.hi;
        });
    VLSIP_INVARIANT(victim != routes_.end(), "claimed segment has no route");
    const Route torn = *victim;
    release(torn.id);
    kill();
    result.affected = 1;
    if (handshake(torn.source, torn.sink, torn.lo, torn.hi).has_value()) {
      ++result.rerouted;
    } else {
      ++result.dropped;
    }
  } else {
    kill();
  }
  ++segments_killed_;
  kill_reroutes_ += result.rerouted;
  kill_drops_ += result.dropped;
  if (trace_) {
    trace_->event(now_, obs::Layer::kCsd, "csd",
                  static_cast<std::int64_t>(channel),
                  "segment " + std::to_string(segment) + " of channel " +
                      std::to_string(channel) + " killed (" +
                      std::to_string(result.rerouted) + " rerouted, " +
                      std::to_string(result.dropped) + " dropped)");
  }
  return result;
}

bool DynamicCsdNetwork::segment_dead(ChannelId channel,
                                     Position segment) const {
  VLSIP_REQUIRE(channel < config_.channels, "channel out of range");
  VLSIP_REQUIRE(segment < config_.positions - 1, "segment out of range");
  return (dead_[word_of(segment, channel)] & bit_of(channel)) != 0;
}

ChannelId DynamicCsdNetwork::used_channels() const {
  return static_cast<ChannelId>(simd::count_nonzero_u32(
      claimed_per_channel_.data(), config_.channels));
}

std::size_t DynamicCsdNetwork::claimed_segments() const {
  return claimed_total_;
}

double DynamicCsdNetwork::utilisation() const {
  const std::size_t segments =
      static_cast<std::size_t>(config_.channels) * (config_.positions - 1);
  return static_cast<double>(claimed_segments()) /
         static_cast<double>(segments);
}

std::size_t DynamicCsdNetwork::active_routes() const { return active_routes_; }

std::uint64_t DynamicCsdNetwork::handshake_latency(Position source,
                                                   Position sink) {
  const Position span =
      source < sink ? sink - source : source - sink;
  // request propagation + priority encode + grant/unchain + ack return
  return static_cast<std::uint64_t>(span) + 1 + 1 +
         static_cast<std::uint64_t>(span);
}

namespace {

/// The CSD probe's metric ids, interned once.
struct CsdMetricIds {
  obs::MetricId requests = obs::metric_id("ap.csd.requests");
  obs::MetricId grants = obs::metric_id("ap.csd.grants");
  obs::MetricId rejects = obs::metric_id("ap.csd.rejects");
  obs::MetricId segments_killed = obs::metric_id("ap.csd.segments_killed");
  obs::MetricId kill_reroutes = obs::metric_id("ap.csd.kill_reroutes");
  obs::MetricId kill_drops = obs::metric_id("ap.csd.kill_drops");
  obs::MetricId active_routes = obs::metric_id("ap.csd.active_routes");
  obs::MetricId used_channels = obs::metric_id("ap.csd.used_channels");
  obs::MetricId claimed_segments = obs::metric_id("ap.csd.claimed_segments");
  obs::MetricId dead_segments = obs::metric_id("ap.csd.dead_segments");
  obs::MetricId utilisation = obs::metric_id("ap.csd.utilisation");
};

}  // namespace

void DynamicCsdNetwork::export_obs(obs::MetricRegistry& registry) const {
  static const CsdMetricIds id;
  registry.counter(id.requests) += requests_;
  registry.counter(id.grants) += grants_;
  registry.counter(id.rejects) += rejects_;
  registry.counter(id.segments_killed) += segments_killed_;
  registry.counter(id.kill_reroutes) += kill_reroutes_;
  registry.counter(id.kill_drops) += kill_drops_;
  // Occupancy is point-in-time, not monotonic: gauges.
  registry.gauge(id.active_routes) = static_cast<double>(active_routes());
  registry.gauge(id.used_channels) = static_cast<double>(used_channels());
  registry.gauge(id.claimed_segments) =
      static_cast<double>(claimed_segments());
  registry.gauge(id.dead_segments) = static_cast<double>(dead_segments());
  registry.gauge(id.utilisation) = utilisation();
}

std::string DynamicCsdNetwork::render() const {
  std::ostringstream out;
  const Position segs = config_.positions - 1;
  for (ChannelId c = 0; c < config_.channels; ++c) {
    out << "ch" << c << ": ";
    const std::uint64_t bit = bit_of(c);
    for (Position s = 0; s < segs; ++s) {
      const std::size_t word = word_of(s, c);
      out << ((dead_[word] & bit) ? 'X'
                                  : ((blocked_[word] & bit) ? '#' : '.'));
    }
    out << "\n";
  }
  return out.str();
}

void DynamicCsdNetwork::save(snapshot::Writer& w) const {
  w.section("csd.network");
  w.u32(config_.positions);
  w.u32(config_.channels);
  w.u64(routes_.size());
  for (const auto& r : routes_) {
    w.u32(r.id);
    w.u32(r.source);
    w.u32(r.sink);
    w.u32(r.lo);
    w.u32(r.hi);
    w.u32(r.channel);
  }
  w.vec_u32(free_slots_);
  w.u64(active_routes_);
  // Channel-major byte map, one byte per hop segment.
  const Position segs = config_.positions - 1;
  std::vector<std::uint8_t> dead;
  dead.reserve(static_cast<std::size_t>(config_.channels) * segs);
  for (ChannelId c = 0; c < config_.channels; ++c) {
    for (Position s = 0; s < segs; ++s) {
      dead.push_back(segment_dead(c, s) ? 1 : 0);
    }
  }
  w.vec_u8(dead);
  w.u64(now_);
  w.u64(requests_);
  w.u64(grants_);
  w.u64(rejects_);
  w.u64(segments_killed_);
  w.u64(kill_reroutes_);
  w.u64(kill_drops_);
  w.u64(version_);
}

void DynamicCsdNetwork::restore(snapshot::Reader& r) {
  r.section("csd.network");
  const Position positions = r.u32();
  const ChannelId channels = r.u32();
  VLSIP_REQUIRE(positions == config_.positions &&
                    channels == config_.channels,
                "snapshot CSD geometry mismatch");
  routes_.clear();
  const std::uint64_t n_routes = r.count(24);
  routes_.reserve(static_cast<std::size_t>(n_routes));
  for (std::uint64_t i = 0; i < n_routes; ++i) {
    Route route;
    route.id = r.u32();
    route.source = r.u32();
    route.sink = r.u32();
    route.lo = r.u32();
    route.hi = r.u32();
    route.channel = r.u32();
    routes_.push_back(route);
  }
  free_slots_ = r.vec_u32();
  active_routes_ = static_cast<std::size_t>(r.u64());
  const Position segs = config_.positions - 1;
  const std::vector<std::uint8_t> dead = r.vec_u8();
  VLSIP_REQUIRE(dead.size() == static_cast<std::size_t>(config_.channels) *
                                   segs,
                "snapshot CSD segment map mismatch");
  // Rebuild all derived claim state: clear, re-mark dead segments, then
  // re-claim every live route's span exactly as establish() did.
  std::fill(dead_.begin(), dead_.end(), 0ull);
  dead_count_ = 0;
  for (ChannelId c = 0; c < config_.channels; ++c) {
    for (Position s = 0; s < segs; ++s) {
      if (dead[static_cast<std::size_t>(c) * segs + s] == 0) continue;
      dead_[word_of(s, c)] |= bit_of(c);
      ++dead_count_;
    }
  }
  blocked_ = dead_;
  std::fill(claimed_per_channel_.begin(), claimed_per_channel_.end(), 0u);
  claimed_total_ = 0;
  const auto corrupt = [](const std::string& what) {
    throw snapshot::SnapshotError("snapshot CSD route table: " + what);
  };
  std::vector<std::uint8_t> is_free(routes_.size(), 0);
  for (const RouteId slot : free_slots_) {
    if (slot >= routes_.size() || routes_[slot].id != kNoRoute ||
        is_free[slot]) {
      corrupt("free slot " + std::to_string(slot) + " is not an unused slot");
    }
    is_free[slot] = 1;
  }
  std::size_t live = 0;
  for (std::size_t i = 0; i < routes_.size(); ++i) {
    const Route& route = routes_[i];
    if (route.id == kNoRoute) continue;
    const auto inside = [&route](Position p) {
      return route.lo <= p && p <= route.hi;
    };
    if (route.id != i || route.hi >= config_.positions ||
        !inside(route.source) || !inside(route.sink) ||
        route.channel >= config_.channels ||
        !span_free(route.channel, route.lo, route.hi)) {
      corrupt("route " + std::to_string(i) + " is not establishable");
    }
    claim(route.channel, route.lo, route.hi);
    ++live;
  }
  if (live != active_routes_ || live + free_slots_.size() != routes_.size()) {
    corrupt("live and free slot counts disagree");
  }
  now_ = r.u64();
  requests_ = r.u64();
  grants_ = r.u64();
  rejects_ = r.u64();
  segments_killed_ = r.u64();
  kill_reroutes_ = r.u64();
  kill_drops_ = r.u64();
  version_ = r.u64();  // after claim() calls, which bump it
}

}  // namespace vlsip::csd

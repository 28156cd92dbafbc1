// Dynamic channel-segmentation-distribution (CSD) network (paper §2.6.2,
// fig. 2).
//
// The adaptive processor's objects sit on a linear array. A *channel* runs
// along the whole array and is segmented at every hop; segments default to
// "chained" (so an idle channel is one long wire) and are *unchained* by
// the routing procedure to isolate the span a communication actually uses.
// Because claims are spans, one channel can carry any number of pairwise
// disjoint communications — that is what lets the channel count stay far
// below the object count (fig. 3).
//
// Routing handshake (fig. 2): the source broadcasts a request on every
// channel; the request propagates hop by hop through chained request
// segments; the sink's priority encoder picks the lowest-index channel
// whose span is free; the grant is stored in a memory cell (which
// unchains the span and gates data into the sink) and travels back to the
// source as the acknowledgement.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "costmodel/energy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

namespace vlsip::snapshot {
class Writer;
class Reader;
}  // namespace vlsip::snapshot

namespace vlsip::csd {

using Position = std::uint32_t;   // index on the linear object array
using ChannelId = std::uint32_t;
using RouteId = std::uint32_t;

inline constexpr RouteId kNoRoute = 0xFFFFFFFFu;

/// An established communication: source object position -> sink object
/// position on one channel, claiming the hop segments [lo, hi). A
/// unicast route's span runs between its endpoints; a fan-out's covers
/// every sink, on either side of the source. Every endpoint lies in
/// [lo, hi].
struct Route {
  RouteId id = kNoRoute;
  // The four positions are adjacent so a stack shift maps them as one
  // vector.
  Position source = 0;
  /// The sink, or a fan-out's farthest sink.
  Position sink = 0;
  Position lo = 0;
  Position hi = 0;
  ChannelId channel = 0;

  /// Number of hop segments the route claims (adjacent objects claim
  /// the single segment between them; 0 once a stack shift has merged
  /// both ends onto one position).
  Position span() const { return hi - lo; }
};

struct CsdConfig {
  /// Number of object positions on the linear array (>= 2).
  Position positions = 16;
  /// Number of parallel channels. The paper's headline claim is that
  /// positions/2 suffices for random datapaths.
  ChannelId channels = 16;
};

/// Outcome of killing one channel hop segment: the routes torn off the
/// dead segment, how many found a healthy span on another channel, and
/// how many were dropped (their communication must re-handshake after
/// the owning object faults back in).
struct SegmentKillResult {
  std::size_t affected = 0;
  std::size_t rerouted = 0;
  std::size_t dropped = 0;
};

/// The dynamic CSD network. Immediate-mode interface: try_route() resolves
/// the full request/grant/ack handshake combinationally and returns the
/// granted channel; handshake_latency() reports the cycle cost the
/// cycle-level AP model charges for it.
class DynamicCsdNetwork {
 public:
  explicit DynamicCsdNetwork(CsdConfig config, obs::TraceSink* trace = nullptr);

  /// Returns to the constructed state for `config`: no routes, no dead
  /// segments, every counter at zero. The claim words and route table
  /// keep their storage.
  void reset(CsdConfig config, obs::TraceSink* trace);

  Position positions() const { return config_.positions; }
  ChannelId channel_count() const { return config_.channels; }

  /// Attempts to establish source -> sink. Returns the granted channel or
  /// nullopt if every channel has a conflicting claim on the span
  /// (routability failure, §2.6.2's trade-off). source != sink required.
  std::optional<ChannelId> try_route(Position source, Position sink);

  /// As try_route, but also registers the route for later release/shift
  /// and returns its handle.
  std::optional<RouteId> establish(Position source, Position sink);

  /// Releases an established route, re-chaining its segments.
  void release(RouteId id);

  /// Releases every route touching position `p` (used when the object at
  /// p is evicted/replaced).
  void release_at(Position p);

  /// Fan-out (broadcast) claim: one channel spanning [min, max] of the
  /// source and every sink in `sinks` (§2.6.2: remaining channels can be
  /// allocated to the fan-out).
  std::optional<RouteId> establish_fanout(Position source,
                                          const std::vector<Position>& sinks);

  /// Stack shift of the top block (§2.6.2: "capable of stack-shifting
  /// from the top to the bottom"): positions [0, k) move to [1, k] in
  /// one cycle. Claims move with their objects on their own channel, so
  /// every route endpoint, lo and hi maps through p -> p + (p < k).
  /// Claims on segment k-1 are overwritten, so a claim straddling the
  /// block edge shrinks by that segment and one joining k-1 to k
  /// collapses to zero span; the object at k is the one a promote moved
  /// to the top or an eviction removed, so such routes are stale for
  /// their owner. Dead segments are wire and stay put: a route whose
  /// moved claim lands on one is torn, and its id is returned so the
  /// owner can re-handshake it. O(k · channel words + route slots).
  std::vector<RouteId> shift_prefix(Position k);

  // --- fault injection (§1's defect tolerance at wire granularity) -----

  /// Marks one hop segment of one channel permanently defective: the
  /// segment can no longer be chained into any span. A route claiming
  /// the segment is released and re-routed through the normal
  /// request/grant handshake on the surviving channels; if no channel
  /// has a healthy free span it is dropped. Killing an already-dead
  /// segment is a no-op reported as zero affected routes.
  SegmentKillResult kill_segment(ChannelId channel, Position segment);

  /// True if the hop segment has been killed.
  bool segment_dead(ChannelId channel, Position segment) const;

  /// Dead hop segments across all channels.
  std::size_t dead_segments() const { return dead_count_; }

  /// Number of channels with at least one claimed segment — the fig. 3
  /// metric.
  ChannelId used_channels() const;

  /// Total claimed hop segments across all channels.
  std::size_t claimed_segments() const;

  /// Channel utilisation in [0,1]: claimed segments / total segments.
  double utilisation() const;

  std::size_t active_routes() const;

  const std::vector<Route>& routes() const { return routes_; }

  /// Cycle cost of the fig. 2 handshake for a span of `distance` hops:
  /// request propagation (1 cycle/hop) + priority encode (1) + grant
  /// write & unchain (1) + ack propagation (1 cycle/hop).
  static std::uint64_t handshake_latency(Position source, Position sink);

  /// True if `channel` has no claim on any segment in [lo, hi).
  bool span_free(ChannelId channel, Position lo, Position hi) const;

  /// Claim-state generation: bumped by every mutation of segment state
  /// (establish/release/shift_prefix/kill). ChainSet::refresh uses it
  /// together with ObjectSpace::version to skip no-op re-resolutions.
  std::uint64_t version() const { return version_; }

  // --- observability ----------------------------------------------------

  /// Lifetime handshake accounting: every priority-encoder resolution is
  /// one request; it ends in a grant (some channel had a free span) or a
  /// reject (routability failure).
  std::uint64_t route_requests() const { return requests_; }
  std::uint64_t route_grants() const { return grants_; }
  std::uint64_t route_rejects() const { return rejects_; }

  /// Publishes handshake counters and segment-occupancy gauges into
  /// `registry` under "ap.csd." names (every network lives inside an
  /// adaptive processor) — this layer's probe into the observability
  /// spine.
  void export_obs(obs::MetricRegistry& registry) const;

  /// Folds this network's lifetime activity into `a` (energy spine):
  /// handshake cycles (now_ accumulates 2·span+2 per established route,
  /// so it is hop-proportional, and 1 per stack shift) and
  /// priority-encoder resolutions. Both sources are serialized counters
  /// — energy derived from them survives checkpoint/resume bit-exactly.
  void fold_energy(cost::EnergyActivity& a) const {
    a.units[cost::kEnergyCsdHandshake] += now_;
    a.units[cost::kEnergyCsdRequest] += requests_;
  }

  std::string render() const;

  /// Checkpoint codec. Serializes routes (with their [lo, hi] spans),
  /// free slots, dead segments and counters; the claim bitwords and
  /// per-channel claim counts are *rebuilt* on restore by re-claiming
  /// every live route's span — derived state never hits the snapshot. A
  /// route table no network could reach (span or channel out of range,
  /// an endpoint outside its span, overlapping or dead spans, free slots
  /// that are not exactly the unused ones) throws snapshot::SnapshotError.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  /// Word holding channel `c`'s bit for hop segment `seg`.
  std::size_t word_of(Position seg, ChannelId c) const {
    return static_cast<std::size_t>(seg) * words_per_segment_ + (c >> 6);
  }
  static std::uint64_t bit_of(ChannelId c) { return 1ull << (c & 63); }
  /// The fig. 2 priority encoder: the lowest channel whose span [lo, hi)
  /// is free, or channel_count() when every channel is blocked.
  ChannelId lowest_free_channel(Position lo, Position hi) const;
  /// One priority-encoder resolution, counted as a grant or a reject:
  /// the chosen channel, or channel_count() when none is free.
  ChannelId request(Position lo, Position hi);
  void claim(ChannelId c, Position lo, Position hi);
  /// Clears a route's claim; dead segments in [lo, hi) stay blocked.
  void unclaim(ChannelId c, Position lo, Position hi);
  /// The fig. 2 request/grant over [lo, hi): counts the request and, on
  /// a grant, claims the span in a fresh route slot.
  std::optional<RouteId> grant(Position source, Position sink, Position lo,
                               Position hi);
  /// establish() over a known span: grant, then charge the handshake.
  std::optional<RouteId> handshake(Position source, Position sink,
                                   Position lo, Position hi);
  /// Unclaims a live route and frees its slot.
  void drop(RouteId id);
  /// Takes a free route slot (the most recently freed one first).
  RouteId take_slot();

  CsdConfig config_;
  /// Channel bitwords per hop segment: ceil(channels / 64).
  std::size_t words_per_segment_ = 0;
  /// Segment-major channel masks: bit c of word_of(s, c) is set when
  /// hop segment s of channel c is claimed by a route or dead. A span's
  /// masks OR together into the set of channels it is blocked on, so
  /// the priority encoder resolves every channel in one pass over the
  /// span.
  std::vector<std::uint64_t> blocked_;
  /// Same layout: the segment is defective and unroutable. A claim never
  /// covers a dead segment, so claimed = blocked_ & ~dead_.
  std::vector<std::uint64_t> dead_;
  std::size_t dead_count_ = 0;
  /// Claimed-segment count per channel; makes used_channels() O(channels)
  /// and claimed_segments() O(1) instead of scans over all segments.
  std::vector<std::uint32_t> claimed_per_channel_;
  std::size_t claimed_total_ = 0;
  std::vector<Route> routes_;        // slot reuse via free list
  std::vector<RouteId> free_slots_;
  std::size_t active_routes_ = 0;
  obs::TraceSink* trace_ = nullptr;
  std::uint64_t now_ = 0;  // advanced by handshake latencies for tracing
  std::uint64_t version_ = 0;
  // Lifetime handshake counters (see route_requests()).
  std::uint64_t requests_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t rejects_ = 0;
  // Cumulative fault-path accounting across kill_segment calls.
  std::uint64_t segments_killed_ = 0;
  std::uint64_t kill_reroutes_ = 0;
  std::uint64_t kill_drops_ = 0;
};

}  // namespace vlsip::csd

// The adaptive processor's configuration pipeline (paper §2.2–§2.3,
// fig. 1) and the chain bookkeeping it maintains.
//
// Five stages walk the global configuration data stream:
//   1. Pointer Update      — advances the stream pointer (independent);
//   2. Request Fetch       — fetches the element (like instruction fetch);
//   3. Request Evaluation  — evaluates the request (memory requests too);
//   4. Request             — requests the named objects; the cache-miss
//                            handling is inserted at this stage;
//   5. Acquirement         — acquires resources: the WSRF issues the
//                            acquirement signal and the dynamic CSD
//                            network performs the chaining handshake.
//
// A cache miss loads the logical object from the library into one of the
// configuration-buffer objects (CFB, 3 entries — Table 3), then forces a
// stack shift "from the top of the stack to the bottom" to enter it into
// the object space, and the element is requested again (§2.3).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "arch/config_stream.hpp"
#include "arch/datapath.hpp"
#include "ap/memory_block.hpp"
#include "ap/object_space.hpp"
#include "ap/replacement.hpp"
#include "ap/wsrf.hpp"
#include "csd/dynamic_csd.hpp"
#include "obs/trace_sink.hpp"

namespace vlsip::snapshot {
class Writer;
class Reader;
}  // namespace vlsip::snapshot

namespace vlsip::ap {

/// One configured dependency: source object feeds operand `operand` of
/// the sink object, over CSD route `route` when both ends are resident.
struct Chain {
  arch::ObjectId source = arch::kNoObject;
  arch::ObjectId sink = arch::kNoObject;
  int operand = 0;
  csd::RouteId route = csd::kNoRoute;

  bool routed() const { return route != csd::kNoRoute; }
};

/// Owns the set of configured chains and keeps the dynamic CSD network's
/// claims consistent with current object placement. A stack shift moves
/// the claims with their objects (shift_prefix, §2.6.2): claims inside
/// the shifted block ride it on their channel, claims straddling its edge
/// shrink and stay valid, and only chains touching the promoted or
/// evicted object go stale. refresh() releases the stale routes and
/// re-handshakes them — the re-request behaviour §2.6.2 attributes to
/// the dynamic CSD network.
class ChainSet {
 public:
  ChainSet(csd::DynamicCsdNetwork& network, const ObjectSpace& space);

  void add(arch::ObjectId source, arch::ObjectId sink, int operand);

  /// Drops chains touching `id` (released or defective object).
  void remove_for(arch::ObjectId id);

  void clear();

  /// Returns to the constructed state: no chains, no refresh history.
  /// Releases nothing on the network; the owner resets it too.
  void reset();

  /// Mirrors ObjectSpace's stack shift of positions [0, k) to [1, k] on
  /// the network. A route the shift tears (its moved claim landed on a
  /// dead segment) leaves its chain unrouted, so refresh() re-handshakes
  /// it.
  void shift_prefix(int k);

  /// Re-resolves chains against current placement: chains whose route
  /// no longer joins their endpoints' positions are released and
  /// re-established, as are chains whose route the network dropped (a
  /// killed segment); dormant chains (an endpoint swapped out) hold no
  /// route. Returns the number of resident chains that could not be
  /// routed (channel exhaustion — the routability trade-off of §2.6.2).
  ///
  /// Incremental: when neither the object placement, the network claim
  /// state, nor the chain list changed since the previous refresh, the
  /// pass is skipped entirely (re-running it would be a deterministic
  /// no-op) and the cached failure count is returned. Version counters
  /// on ObjectSpace and DynamicCsdNetwork detect the changes.
  std::size_t refresh();

  std::size_t size() const { return chains_.size(); }
  std::size_t routed() const;
  std::size_t unrouted_resident() const;
  const std::vector<Chain>& chains() const { return chains_; }
  /// Refresh passes that actually ran (skipped no-op passes excluded).
  std::size_t rebuilds() const { return rebuilds_; }

  /// Checkpoint codec. The network/space references are not serialized;
  /// restore() assumes they were restored first and rebinds nothing.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  /// True if the chain holds a route the network still has live (a
  /// killed segment can drop a route behind the chain's back).
  bool holds_live_route(const Chain& c) const {
    return c.route < network_.routes().size() &&
           network_.routes()[c.route].id == c.route;
  }

  csd::DynamicCsdNetwork& network_;
  const ObjectSpace& space_;
  std::vector<Chain> chains_;
  std::size_t rebuilds_ = 0;
  // Memoization of the last completed refresh.
  bool chains_dirty_ = true;
  std::uint64_t seen_space_version_ = 0;
  std::uint64_t seen_net_version_ = 0;
  std::size_t last_failures_ = 0;
};

struct PipelineConfig {
  /// Concurrent cache-miss loads (configuration buffer objects).
  int cfb_entries = 3;
  /// Extra cycles when the object is resident but its WSRF tag was
  /// retired, forcing a search in the array instead of the central WSRF.
  int array_search_penalty = 2;
  /// Record the per-element stage timeline into ConfigStats::timeline
  /// (fig. 1 visualisation; off by default to keep configure() lean).
  bool record_timeline = false;
  /// LRU re-sort on hit (§2.4: "a stack shift sorts the objects in the
  /// array" so placement order == recency order). false = FIFO stack
  /// (insertion order, no promotion) — the ablation baseline showing
  /// why the paper's stack discipline matters.
  bool promote_on_hit = true;
};

/// When each element occupied each pipeline stage (absolute cycles).
struct ElementTiming {
  std::uint64_t pointer_update = 0;
  std::uint64_t request_fetch = 0;
  std::uint64_t request_evaluation = 0;
  std::uint64_t request_start = 0;
  std::uint64_t request_done = 0;
  std::uint64_t acquire_start = 0;
  std::uint64_t acquire_done = 0;
};

struct ConfigStats {
  std::uint64_t cycles = 0;
  std::uint64_t elements = 0;
  std::uint64_t object_requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t array_searches = 0;
  std::uint64_t stack_inserts = 0;
  std::uint64_t promotes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t write_backs = 0;
  std::uint64_t acquire_handshake_cycles = 0;
  std::uint64_t miss_wait_cycles = 0;
  std::uint64_t write_back_stalls = 0;  // scheduling-table port waits
  std::uint64_t route_failures = 0;
  /// Extra cycles the request-fetch stage spent reading the stream out
  /// of the memory blocks (configure_from_memory only).
  std::uint64_t stream_fetch_cycles = 0;
  /// Per-element stage occupancy; filled only when
  /// PipelineConfig::record_timeline is set.
  std::vector<ElementTiming> timeline;

  double hit_rate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

/// Checkpoint codecs for ConfigStats (free functions — the struct stays
/// an aggregate).
void save_config_stats(snapshot::Writer& w, const ConfigStats& stats);
ConfigStats restore_config_stats(snapshot::Reader& r);

/// Cycle-level model of the five-stage configuration pipeline.
class ConfigurationPipeline {
 public:
  ConfigurationPipeline(ObjectSpace& space, Wsrf& wsrf,
                        ObjectLibrary& library, ChainSet& chains,
                        ReplacementScheduler& scheduler,
                        PipelineConfig config = {},
                        obs::TraceSink* trace = nullptr);

  /// Runs the whole stream to completion; logical objects are loaded
  /// from the library on miss (the AP stores the program's objects into
  /// the library beforehand). Returns per-run statistics.
  ConfigStats configure(const arch::Program& program);

  /// Requests a single object outside stream processing (used by the
  /// executor's virtual-hardware faults). Returns the cycles consumed.
  std::uint64_t request_object(const arch::Program& program,
                               arch::ObjectId id, ConfigStats& stats);

  /// Write-back predicate (§2.5: "replaceable object(s) is stored if
  /// necessary"): returns true when the victim's state diverged from
  /// the library image. Unset = conservatively always dirty.
  using DirtyProbe = std::function<bool(arch::ObjectId)>;
  void set_dirty_probe(DirtyProbe probe) { dirty_probe_ = std::move(probe); }

  /// Returns to the constructed state for `config` (no dirty probe).
  void reset(PipelineConfig config, obs::TraceSink* trace) {
    config_ = config;
    trace_ = trace;
    dirty_probe_ = nullptr;
  }

 private:
  struct MissLoad {
    arch::ObjectId id;
    std::uint64_t ready_at;
  };

  /// Ensures `id` is resident, charging loads/evictions/shifts onto
  /// `stats` starting at absolute cycle `now`; returns the cycle at
  /// which the object is usable.
  std::uint64_t ensure_resident(const arch::Program& program,
                                arch::ObjectId id, std::uint64_t now,
                                ConfigStats& stats);

  ObjectSpace& space_;
  Wsrf& wsrf_;
  ObjectLibrary& library_;
  ChainSet& chains_;
  ReplacementScheduler& scheduler_;
  PipelineConfig config_;
  obs::TraceSink* trace_;
  DirtyProbe dirty_probe_;
};

}  // namespace vlsip::ap

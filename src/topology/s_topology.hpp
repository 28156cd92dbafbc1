// The S-topology (paper §3.1, fig. 4): a 2-D fabric of replicated
// clusters onto which the adaptive processor's linear array is folded.
//
// Required properties (paper's list):
//  1. hierarchical/fractal — the fabric is a uniform grid of one cluster
//     pattern, so any sub-rectangle is itself an S-topology;
//  2. minimum number of layout patterns — exactly one cluster is
//     replicated;
//  3. regular chain/unchain switch points — every cluster boundary has a
//     programmable switch (fig. 6 b,c) in a regular pattern.
//
// A *cluster* is the unit of scaling: one minimum-scale adaptive
// processor (16 physical objects + 16 memory objects + system object in
// the cost model). Chaining clusters through the programmable switches
// extends the linear stack across cluster boundaries; unchaining splits
// it. The default switch state is UNCHAINED (§3.2), so a fresh chip is
// all minimum-scale processors.
//
// An optional second die layer models the 3-D stacked variant of
// fig. 6(d): vertically adjacent clusters are switch neighbours too.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace vlsip::snapshot {
class Writer;
class Reader;
}  // namespace vlsip::snapshot

namespace vlsip::topology {

using ClusterId = std::uint32_t;
inline constexpr ClusterId kNoCluster = 0xFFFFFFFFu;

/// Region handle; regions themselves are managed in region.hpp.
using RegionId = std::uint32_t;
inline constexpr RegionId kNoRegion = 0xFFFFFFFFu;

struct Coord {
  int x = 0;
  int y = 0;
  int layer = 0;  // 0 unless die-stacked

  bool operator==(const Coord&) const = default;
  auto operator<=>(const Coord&) const = default;
};

/// Manhattan distance in the cluster grid; a vertical (die-to-die) hop
/// counts as one.
int manhattan(const Coord& a, const Coord& b);

/// What a cluster contains (the cost model consumes these counts).
struct ClusterSpec {
  int physical_objects = 16;
  int memory_objects = 16;
  int system_objects = 1;

  /// Linear-array capacity contributed by one cluster (compute positions;
  /// memory objects sit beside the stack, §2.6.2).
  int stack_capacity() const { return physical_objects; }
};

/// State of the programmable switch pair on one inter-cluster boundary.
struct LinkState {
  /// Bidirectional chain network (fig. 6 c): true = clusters fused.
  bool chained = false;
  /// Unidirectional stack-shift network (fig. 6 b): which endpoint the
  /// shift flows *from* (set when the link is chained into a region).
  std::optional<ClusterId> shift_from;
  /// Wormhole-configuration reservation flag (§3.3): set while a scaling
  /// configuration worm traverses the switch, preventing allocation
  /// conflicts between concurrent scalings.
  RegionId reserved_by = kNoRegion;
};

/// The S-topology fabric: geometry, neighbourhood and switch state.
/// Region/processor semantics are layered on top (region.hpp).
class STopologyFabric {
 public:
  STopologyFabric(int width, int height, ClusterSpec spec, int layers = 1);

  int width() const { return width_; }
  int height() const { return height_; }
  int layers() const { return layers_; }
  const ClusterSpec& cluster_spec() const { return spec_; }
  std::size_t cluster_count() const {
    return static_cast<std::size_t>(width_) * height_ * layers_;
  }

  ClusterId at(const Coord& c) const;
  Coord coord(ClusterId id) const;
  bool valid(const Coord& c) const;

  /// Grid/stack neighbourhood (4-neighbour within a layer, plus the
  /// vertically adjacent cluster when die-stacked).
  std::vector<ClusterId> neighbors(ClusterId id) const;
  bool are_neighbors(ClusterId a, ClusterId b) const;

  /// The canonical serpentine fold (fig. 4 c): boustrophedon rows within
  /// a layer, layers concatenated. Consecutive indices are always grid
  /// neighbours — the property that lets one linear stack cover the chip.
  std::size_t serpentine_index(ClusterId id) const;
  ClusterId serpentine_at(std::size_t index) const;

  // --- programmable switches (fig. 6 b,c) -------------------------------

  /// Programs the chain switch between neighbouring clusters `from` and
  /// `to`: fuses them and orients the stack-shift network from->to.
  void chain(ClusterId from, ClusterId to);
  void unchain(ClusterId a, ClusterId b);
  bool chained(ClusterId a, ClusterId b) const;

  /// Stack-shift orientation of a chained link (nullopt if unchained).
  std::optional<ClusterId> shift_source(ClusterId a, ClusterId b) const;

  /// Wormhole reservation flags (§3.3).
  bool reserve(ClusterId a, ClusterId b, RegionId owner);
  void clear_reservation(ClusterId a, ClusterId b);
  RegionId reservation(ClusterId a, ClusterId b) const;

  /// Number of chained links (diagnostics).
  std::size_t chained_links() const;

  /// Resets every switch to the default (unchained, unreserved) state.
  void reset_switches();

  /// Checkpoint codec: switch state verbatim (chain, shift orientation,
  /// wormhole reservations). Geometry is fingerprint-checked.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

  std::string render() const;

 private:
  std::uint64_t link_key(ClusterId a, ClusterId b) const;
  LinkState& link(ClusterId a, ClusterId b);
  const LinkState* find_link(ClusterId a, ClusterId b) const;

  int width_;
  int height_;
  int layers_;
  ClusterSpec spec_;
  std::map<std::uint64_t, LinkState> links_;
};

}  // namespace vlsip::topology

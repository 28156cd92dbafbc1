// Regions: connected cluster chains on the S-topology (paper §3.1, figs.
// 4–5).
//
// A region is an ordered path of pairwise-neighbouring clusters whose
// chain switches have been programmed, forming one linear stack — i.e.
// one (scaled) adaptive processor. "The S-topology network supports the
// ability to unchain (split) the array into any arbitrary shape that may
// be formed by connecting the clusters"; closing the path's ends yields a
// ring (fig. 5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/s_topology.hpp"

namespace vlsip::snapshot {
class Writer;
class Reader;
}  // namespace vlsip::snapshot

namespace vlsip::topology {

struct Region {
  RegionId id = kNoRegion;
  /// Clusters in linear-stack order (top of stack = path.front()).
  std::vector<ClusterId> path;
  /// True if the last cluster is also chained back to the first.
  bool ring = false;

  std::size_t cluster_count() const { return path.size(); }
};

/// Manages region allocation on a fabric: checks path validity, programs
/// and clears switches, tracks which cluster belongs to which region.
class RegionManager {
 public:
  explicit RegionManager(STopologyFabric& fabric);

  /// True if `path` can become a region: non-empty, no duplicates,
  /// consecutive clusters are neighbours, and every cluster is free.
  bool can_form(const std::vector<ClusterId>& path) const;

  /// Forms a region along `path`, programming the chain switches in
  /// order (top of stack first). Throws PreconditionError if !can_form.
  /// Ids are internal: a dissolved region's id is reused.
  RegionId form(const std::vector<ClusterId>& path, bool ring = false);

  /// Releases the region: unchains its switches and frees its clusters.
  void dissolve(RegionId id);

  /// Splits the region after position `keep` (0-based cluster index):
  /// clusters [0..keep] stay in the region (switch between keep and
  /// keep+1 is unchained), clusters [keep+1..] are freed. Rings are
  /// opened first. Returns the freed clusters in order.
  std::vector<ClusterId> shrink(RegionId id, std::size_t keep);

  /// Extends the region by chaining `next` (must neighbour the current
  /// tail and be free). Rings cannot be extended.
  void extend(RegionId id, ClusterId next);

  const Region& region(RegionId id) const;
  bool alive(RegionId id) const;

  /// Region owning `cluster`, or kNoRegion.
  RegionId owner(ClusterId cluster) const;

  std::size_t free_clusters() const;

  /// Total stack capacity (compute positions) of a region.
  int stack_capacity(RegionId id) const;

  /// Serpentine-greedy allocation: takes the first `n` free clusters in
  /// serpentine order that form a contiguous chain; returns an empty
  /// vector if no such run exists. This is the "in-order configuration
  /// [that] may perform a spatially local placement" of §3.3.
  std::vector<ClusterId> find_serpentine_run(std::size_t n) const;

  /// Checkpoint codec: region table and ownership verbatim. Switches
  /// are NOT re-programmed on restore — the fabric's own codec carries
  /// their state, so the two must be restored together. restore throws
  /// SnapshotError when the ownership map disagrees with the live
  /// regions' paths.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  void check_alive(RegionId id) const;

  STopologyFabric& fabric_;
  std::vector<Region> regions_;
  std::vector<RegionId> cluster_owner_;
};

/// Validates that `path` is a simple path of pairwise neighbours on the
/// fabric (stand-alone helper shared with tests).
bool is_simple_neighbor_path(const STopologyFabric& fabric,
                             const std::vector<ClusterId>& path);

/// Enumerates the rectangular ring (cycle) of clusters with the given
/// top-left corner and size; returns empty if it does not fit or is
/// degenerate (needs w >= 2 and h >= 2). Layer 0.
std::vector<ClusterId> rectangle_ring(const STopologyFabric& fabric, int x0,
                                      int y0, int w, int h);

}  // namespace vlsip::topology

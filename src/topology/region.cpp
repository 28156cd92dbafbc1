#include "topology/region.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/require.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::topology {

bool is_simple_neighbor_path(const STopologyFabric& fabric,
                             const std::vector<ClusterId>& path) {
  if (path.empty()) return false;
  std::unordered_set<ClusterId> seen;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] >= fabric.cluster_count()) return false;
    if (!seen.insert(path[i]).second) return false;
    if (i > 0 && !fabric.are_neighbors(path[i - 1], path[i])) return false;
  }
  return true;
}

std::vector<ClusterId> rectangle_ring(const STopologyFabric& fabric, int x0,
                                      int y0, int w, int h) {
  if (w < 2 || h < 2) return {};
  if (x0 < 0 || y0 < 0 || x0 + w > fabric.width() ||
      y0 + h > fabric.height()) {
    return {};
  }
  std::vector<ClusterId> ring;
  for (int x = x0; x < x0 + w; ++x) ring.push_back(fabric.at({x, y0, 0}));
  for (int y = y0 + 1; y < y0 + h; ++y) {
    ring.push_back(fabric.at({x0 + w - 1, y, 0}));
  }
  for (int x = x0 + w - 2; x >= x0; --x) {
    ring.push_back(fabric.at({x, y0 + h - 1, 0}));
  }
  for (int y = y0 + h - 2; y > y0; --y) ring.push_back(fabric.at({x0, y, 0}));
  return ring;
}

RegionManager::RegionManager(STopologyFabric& fabric)
    : fabric_(fabric), cluster_owner_(fabric.cluster_count(), kNoRegion) {}

bool RegionManager::can_form(const std::vector<ClusterId>& path) const {
  if (!is_simple_neighbor_path(fabric_, path)) return false;
  return std::all_of(path.begin(), path.end(), [&](ClusterId c) {
    return cluster_owner_[c] == kNoRegion;
  });
}

RegionId RegionManager::form(const std::vector<ClusterId>& path, bool ring) {
  VLSIP_REQUIRE(can_form(path), "path is not a free simple neighbour chain");
  if (ring) {
    VLSIP_REQUIRE(path.size() >= 3, "a ring needs at least three clusters");
    VLSIP_REQUIRE(fabric_.are_neighbors(path.back(), path.front()),
                  "ring ends must be neighbours");
  }
  // Reuse the first dissolved entry, so the table never outgrows the
  // peak number of concurrent regions.
  const auto dead =
      std::find_if(regions_.begin(), regions_.end(),
                   [](const Region& r) { return r.id == kNoRegion; });
  const auto id = static_cast<RegionId>(dead - regions_.begin());
  if (dead == regions_.end()) regions_.emplace_back();
  Region& r = regions_[id];
  r.id = id;
  r.path = path;
  r.ring = ring;
  for (std::size_t i = 1; i < path.size(); ++i) {
    fabric_.chain(path[i - 1], path[i]);
  }
  if (ring) fabric_.chain(path.back(), path.front());
  for (ClusterId c : path) cluster_owner_[c] = id;
  return id;
}

void RegionManager::check_alive(RegionId id) const {
  VLSIP_REQUIRE(id < regions_.size() && regions_[id].id != kNoRegion,
                "region is not alive");
}

void RegionManager::dissolve(RegionId id) {
  check_alive(id);
  Region& r = regions_[id];
  for (std::size_t i = 1; i < r.path.size(); ++i) {
    fabric_.unchain(r.path[i - 1], r.path[i]);
  }
  if (r.ring && r.path.size() >= 2) {
    fabric_.unchain(r.path.back(), r.path.front());
  }
  for (ClusterId c : r.path) cluster_owner_[c] = kNoRegion;
  r.id = kNoRegion;
  r.path.clear();
}

std::vector<ClusterId> RegionManager::shrink(RegionId id, std::size_t keep) {
  check_alive(id);
  Region& r = regions_[id];
  VLSIP_REQUIRE(keep + 1 <= r.path.size(), "keep index out of range");
  if (r.ring) {
    fabric_.unchain(r.path.back(), r.path.front());
    r.ring = false;
  }
  std::vector<ClusterId> freed(r.path.begin() + keep + 1, r.path.end());
  for (std::size_t i = keep + 1; i < r.path.size(); ++i) {
    fabric_.unchain(r.path[i - 1], r.path[i]);
    cluster_owner_[r.path[i]] = kNoRegion;
  }
  r.path.resize(keep + 1);
  return freed;
}

void RegionManager::extend(RegionId id, ClusterId next) {
  check_alive(id);
  Region& r = regions_[id];
  VLSIP_REQUIRE(!r.ring, "cannot extend a closed ring");
  VLSIP_REQUIRE(next < fabric_.cluster_count(), "cluster id out of range");
  VLSIP_REQUIRE(cluster_owner_[next] == kNoRegion, "cluster is not free");
  VLSIP_REQUIRE(fabric_.are_neighbors(r.path.back(), next),
                "extension must neighbour the region tail");
  fabric_.chain(r.path.back(), next);
  r.path.push_back(next);
  cluster_owner_[next] = id;
}

const Region& RegionManager::region(RegionId id) const {
  check_alive(id);
  return regions_[id];
}

bool RegionManager::alive(RegionId id) const {
  return id < regions_.size() && regions_[id].id != kNoRegion;
}

RegionId RegionManager::owner(ClusterId cluster) const {
  VLSIP_REQUIRE(cluster < cluster_owner_.size(), "cluster id out of range");
  return cluster_owner_[cluster];
}

std::size_t RegionManager::free_clusters() const {
  return static_cast<std::size_t>(
      std::count(cluster_owner_.begin(), cluster_owner_.end(), kNoRegion));
}

int RegionManager::stack_capacity(RegionId id) const {
  check_alive(id);
  return static_cast<int>(regions_[id].path.size()) *
         fabric_.cluster_spec().stack_capacity();
}

std::vector<ClusterId> RegionManager::find_serpentine_run(
    std::size_t n) const {
  VLSIP_REQUIRE(n >= 1, "run length must be positive");
  const std::size_t total = fabric_.cluster_count();
  std::vector<ClusterId> run;
  for (std::size_t i = 0; i < total; ++i) {
    const ClusterId c = fabric_.serpentine_at(i);
    if (cluster_owner_[c] == kNoRegion) {
      run.push_back(c);
      if (run.size() == n) return run;
    } else {
      run.clear();
    }
  }
  return {};
}

void RegionManager::save(snapshot::Writer& w) const {
  w.section("topology.regions");
  w.u64(regions_.size());
  for (const auto& region : regions_) {
    w.u32(region.id);
    w.vec_u32(region.path);
    w.b(region.ring);
  }
  w.vec_u32(cluster_owner_);
}

void RegionManager::restore(snapshot::Reader& r) {
  r.section("topology.regions");
  regions_.clear();
  const std::uint64_t n = r.count(13);
  regions_.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    Region region;
    region.id = r.u32();
    region.path = r.vec_u32();
    region.ring = r.b();
    regions_.push_back(std::move(region));
  }
  cluster_owner_ = r.vec_u32();
  VLSIP_REQUIRE(cluster_owner_.size() == fabric_.cluster_count(),
                "snapshot region ownership mismatch");
  // The ownership map must be exactly what the live regions' paths
  // claim: an entry naming a dead region, or a cluster two regions
  // share, is a table no manager produces.
  std::vector<RegionId> claimed(cluster_owner_.size(), kNoRegion);
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const Region& region = regions_[i];
    if (region.id == kNoRegion) continue;
    if (region.id != i) {
      throw snapshot::SnapshotError("region entry " + std::to_string(i) +
                                    " holds id " + std::to_string(region.id));
    }
    for (const ClusterId c : region.path) {
      if (c >= claimed.size() || claimed[c] != kNoRegion) {
        throw snapshot::SnapshotError("region " + std::to_string(i) +
                                      " claims an invalid or shared cluster");
      }
      claimed[c] = region.id;
    }
  }
  if (claimed != cluster_owner_) {
    throw snapshot::SnapshotError(
        "cluster ownership disagrees with the live regions' paths");
  }
}

}  // namespace vlsip::topology

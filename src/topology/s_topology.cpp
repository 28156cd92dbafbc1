#include "topology/s_topology.hpp"

#include <cmath>
#include <sstream>

#include "common/require.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::topology {

int manhattan(const Coord& a, const Coord& b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y) +
         std::abs(a.layer - b.layer);
}

STopologyFabric::STopologyFabric(int width, int height, ClusterSpec spec,
                                 int layers)
    : width_(width), height_(height), layers_(layers), spec_(spec) {
  VLSIP_REQUIRE(width >= 1 && height >= 1, "fabric must be non-empty");
  VLSIP_REQUIRE(layers >= 1 && layers <= 2,
                "at most two dies (fig. 6d is chip-on-chip)");
  VLSIP_REQUIRE(spec.physical_objects >= 1, "cluster needs compute objects");
}

bool STopologyFabric::valid(const Coord& c) const {
  return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_ &&
         c.layer >= 0 && c.layer < layers_;
}

ClusterId STopologyFabric::at(const Coord& c) const {
  VLSIP_REQUIRE(valid(c), "coordinate outside the fabric");
  return static_cast<ClusterId>((c.layer * height_ + c.y) * width_ + c.x);
}

Coord STopologyFabric::coord(ClusterId id) const {
  VLSIP_REQUIRE(id < cluster_count(), "cluster id out of range");
  Coord c;
  c.x = static_cast<int>(id) % width_;
  c.y = (static_cast<int>(id) / width_) % height_;
  c.layer = static_cast<int>(id) / (width_ * height_);
  return c;
}

std::vector<ClusterId> STopologyFabric::neighbors(ClusterId id) const {
  const Coord c = coord(id);
  std::vector<ClusterId> out;
  const Coord candidates[] = {
      {c.x - 1, c.y, c.layer}, {c.x + 1, c.y, c.layer},
      {c.x, c.y - 1, c.layer}, {c.x, c.y + 1, c.layer},
      {c.x, c.y, c.layer - 1}, {c.x, c.y, c.layer + 1},
  };
  for (const auto& cand : candidates) {
    if (valid(cand)) out.push_back(at(cand));
  }
  return out;
}

bool STopologyFabric::are_neighbors(ClusterId a, ClusterId b) const {
  if (a == b) return false;
  return manhattan(coord(a), coord(b)) == 1;
}

std::size_t STopologyFabric::serpentine_index(ClusterId id) const {
  const Coord c = coord(id);
  const std::size_t per_layer =
      static_cast<std::size_t>(width_) * height_;
  // Boustrophedon within a layer. An odd layer walks the layer-0 pattern
  // *backwards*, so the die crossing (fig. 6 d) lands exactly above the
  // previous layer's endpoint — a single vertical hop.
  const bool reversed_row = (c.y % 2) == 1;
  std::size_t in_layer = static_cast<std::size_t>(c.y) * width_ +
                         (reversed_row ? width_ - 1 - c.x : c.x);
  if (c.layer % 2 == 1) in_layer = per_layer - 1 - in_layer;
  return static_cast<std::size_t>(c.layer) * per_layer + in_layer;
}

ClusterId STopologyFabric::serpentine_at(std::size_t index) const {
  VLSIP_REQUIRE(index < cluster_count(), "serpentine index out of range");
  const std::size_t per_layer =
      static_cast<std::size_t>(width_) * height_;
  const int layer = static_cast<int>(index / per_layer);
  std::size_t in_layer = index % per_layer;
  if (layer % 2 == 1) in_layer = per_layer - 1 - in_layer;
  const int y = static_cast<int>(in_layer) / width_;
  int x = static_cast<int>(in_layer) % width_;
  if ((y % 2) == 1) x = width_ - 1 - x;
  return at(Coord{x, y, layer});
}

std::uint64_t STopologyFabric::link_key(ClusterId a, ClusterId b) const {
  VLSIP_REQUIRE(are_neighbors(a, b),
                "switches exist only between neighbouring clusters");
  const ClusterId lo = a < b ? a : b;
  const ClusterId hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

LinkState& STopologyFabric::link(ClusterId a, ClusterId b) {
  return links_[link_key(a, b)];
}

const LinkState* STopologyFabric::find_link(ClusterId a, ClusterId b) const {
  const auto it = links_.find(link_key(a, b));
  return it == links_.end() ? nullptr : &it->second;
}

void STopologyFabric::chain(ClusterId from, ClusterId to) {
  LinkState& l = link(from, to);
  VLSIP_REQUIRE(!l.chained, "link already chained");
  l.chained = true;
  l.shift_from = from;
}

void STopologyFabric::unchain(ClusterId a, ClusterId b) {
  LinkState& l = link(a, b);
  VLSIP_REQUIRE(l.chained, "link not chained");
  l.chained = false;
  l.shift_from.reset();
}

bool STopologyFabric::chained(ClusterId a, ClusterId b) const {
  const LinkState* l = find_link(a, b);
  return l != nullptr && l->chained;
}

std::optional<ClusterId> STopologyFabric::shift_source(ClusterId a,
                                                       ClusterId b) const {
  const LinkState* l = find_link(a, b);
  if (l == nullptr || !l->chained) return std::nullopt;
  return l->shift_from;
}

bool STopologyFabric::reserve(ClusterId a, ClusterId b, RegionId owner) {
  // Even a refused reservation may have materialised the link entry,
  // which changes the serialised link table.
  LinkState& l = link(a, b);
  if (l.reserved_by != kNoRegion && l.reserved_by != owner) return false;
  l.reserved_by = owner;
  return true;
}

void STopologyFabric::clear_reservation(ClusterId a, ClusterId b) {
  LinkState& l = link(a, b);
  l.reserved_by = kNoRegion;
}

RegionId STopologyFabric::reservation(ClusterId a, ClusterId b) const {
  const LinkState* l = find_link(a, b);
  return l == nullptr ? kNoRegion : l->reserved_by;
}

std::size_t STopologyFabric::chained_links() const {
  std::size_t n = 0;
  for (const auto& [key, l] : links_) {
    (void)key;
    if (l.chained) ++n;
  }
  return n;
}

void STopologyFabric::reset_switches() {
  links_.clear();
}

std::string STopologyFabric::render() const {
  // Layer-0 map: '+' cluster, '-'/'|' chained links.
  std::ostringstream out;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      out << '+';
      if (x + 1 < width_) {
        out << (chained(at({x, y, 0}), at({x + 1, y, 0})) ? '-' : ' ');
      }
    }
    out << '\n';
    if (y + 1 < height_) {
      for (int x = 0; x < width_; ++x) {
        out << (chained(at({x, y, 0}), at({x, y + 1, 0})) ? '|' : ' ');
        if (x + 1 < width_) out << ' ';
      }
      out << '\n';
    }
  }
  return out.str();
}

void STopologyFabric::save(snapshot::Writer& w) const {
  w.section("topology.fabric");
  w.i32(width_);
  w.i32(height_);
  w.i32(layers_);
  w.u64(links_.size());
  for (const auto& [key, state] : links_) {
    w.u64(key);
    w.b(state.chained);
    w.b(state.shift_from.has_value());
    w.u32(state.shift_from.value_or(kNoCluster));
    w.u32(state.reserved_by);
  }
}

void STopologyFabric::restore(snapshot::Reader& r) {
  r.section("topology.fabric");
  const int width = r.i32();
  const int height = r.i32();
  const int layers = r.i32();
  VLSIP_REQUIRE(width == width_ && height == height_ && layers == layers_,
                "snapshot fabric geometry mismatch");
  links_.clear();
  const std::uint64_t n = r.count(18);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t key = r.u64();
    LinkState state;
    state.chained = r.b();
    const bool has_shift = r.b();
    const ClusterId shift_from = r.u32();
    if (has_shift) state.shift_from = shift_from;
    state.reserved_by = r.u32();
    links_.emplace(key, state);
  }
}

}  // namespace vlsip::topology

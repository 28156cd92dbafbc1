#include "noc/noc_fabric.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/require.hpp"
#include "common/simd.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::noc {

int Packet::hops() const {
  return std::abs(static_cast<int>(dst_x) - static_cast<int>(src_x)) +
         std::abs(static_cast<int>(dst_y) - static_cast<int>(src_y));
}

NocFabric::NocFabric(int width, int height, RouterConfig router_config)
    : width_(width), height_(height), router_config_(router_config) {
  VLSIP_REQUIRE(width >= 1 && height >= 1, "fabric must be non-empty");
  const auto nodes = static_cast<std::size_t>(width) * height;
  routers_.reserve(nodes);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      routers_.emplace_back(x, y, router_config);
    }
  }
  feeds_.resize(nodes * kMaxVcs);
  feed_nodes_.reset(nodes);
  active_.reset(nodes);
  link_flits_.assign(nodes * kPortCount, 0);
}

std::size_t NocFabric::index(int x, int y) const {
  VLSIP_REQUIRE(x >= 0 && x < width_ && y >= 0 && y < height_,
                "router coordinate out of range");
  return static_cast<std::size_t>(y) * width_ + x;
}

Router& NocFabric::router_mut(int x, int y) { return routers_[index(x, y)]; }

const Router& NocFabric::router(int x, int y) const {
  return routers_[index(x, y)];
}

std::uint32_t NocFabric::inject(Packet packet) {
  VLSIP_REQUIRE(packet.src_x < width_ && packet.src_y < height_,
                "source out of range");
  VLSIP_REQUIRE(packet.dst_x < width_ && packet.dst_y < height_,
                "destination out of range");
  packet.id = next_packet_id_++;
  packet.inject_cycle = now_;

  // Flatten into flits: head, bodies, tail. Zero-payload packets are a
  // single head-tail flit. Packets rotate over the injection VCs so two
  // packets from one node do not serialise at the source.
  const auto node =
      static_cast<std::uint32_t>(index(packet.src_x, packet.src_y));
  const auto vc = static_cast<std::uint8_t>(
      packet.id % static_cast<std::uint32_t>(router_config_.virtual_channels));
  std::uint32_t slot;
  if (!flow_free_.empty()) {
    slot = flow_free_.back();
    flow_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
  }
  auto& feed = feeds_[static_cast<std::size_t>(node) * kMaxVcs + vc];
  if (feed.empty()) {
    feed.buf.clear();
    feed.head = 0;
  }
  Flit head;
  head.kind = packet.payload.empty() ? FlitKind::kHeadTail : FlitKind::kHead;
  head.flow = slot;
  head.vc = vc;
  head.dest_x = packet.dst_x;
  head.dest_y = packet.dst_y;
  head.pkind = packet.kind;
  head.payload = packet.payload.size();
  feed.buf.push_back(head);
  for (std::size_t i = 0; i < packet.payload.size(); ++i) {
    Flit f;
    f.kind = (i + 1 == packet.payload.size()) ? FlitKind::kTail
                                              : FlitKind::kBody;
    f.flow = slot;
    f.vc = vc;
    f.payload = packet.payload[i];
    feed.buf.push_back(f);
  }
  feed_nodes_.insert(node);

  const std::uint32_t id = packet.id;
  Flow& flow = flows_[slot];
  // The payload words now live in the flits; the delivered packet's
  // payload is rebuilt from them at the destination.
  packet.payload.clear();
  flow.packet = std::move(packet);
  flow.head_seen = false;
  flow.live = true;
  ++live_flows_;
  return id;
}

bool NocFabric::feed_injection(std::uint32_t node) {
  Router& r = routers_[node];
  bool pending = false;
  bool fed = false;
  for (int vc = 0; vc < router_config_.virtual_channels; ++vc) {
    auto& feed = feeds_[static_cast<std::size_t>(node) * kMaxVcs + vc];
    while (!feed.empty() && r.can_accept(Port::kLocal, vc)) {
      r.accept(Port::kLocal, feed.buf[feed.head++]);
      ++queued_flits_;
      fed = true;
    }
    if (!feed.empty()) pending = true;
  }
  if (fed) active_.insert(node);
  return pending;
}

std::size_t NocFabric::step() {
  // Phase 0: injection into local input queues. Only nodes with pending
  // feed flits are visited; a node whose local queue is full stays in
  // the feed set for the next cycle.
  feed_nodes_.drain_to(feed_scratch_);
  for (const auto node : feed_scratch_) {
    if (feed_injection(node)) feed_nodes_.insert(node);
  }

  // Phase 1: every active router computes transfers from pre-cycle
  // state. drain_to yields ascending router index — the dense scan
  // order, which fixes the delivery order below.
  active_.drain_to(step_nodes_);
  step_transfers_.clear();
  step_ranges_.clear();
  for (const auto node : step_nodes_) {
    const int x = static_cast<int>(node) % width_;
    const int y = static_cast<int>(node) / width_;
    ReadyMask ready{};
    const std::uint32_t all_vcs = (1u << routers_[node].vcs()) - 1u;
    ready[static_cast<int>(Port::kLocal)] = all_vcs;  // delivery sink
    if (y > 0) {
      ready[static_cast<int>(Port::kNorth)] =
          router(x, y - 1).accept_mask(Port::kSouth);
    }
    if (x + 1 < width_) {
      ready[static_cast<int>(Port::kEast)] =
          router(x + 1, y).accept_mask(Port::kWest);
    }
    if (y + 1 < height_) {
      ready[static_cast<int>(Port::kSouth)] =
          router(x, y + 1).accept_mask(Port::kNorth);
    }
    if (x > 0) {
      ready[static_cast<int>(Port::kWest)] =
          router(x - 1, y).accept_mask(Port::kEast);
    }
    const auto begin = static_cast<std::uint32_t>(step_transfers_.size());
    routers_[node].compute_into(ready, step_transfers_);
    if (step_transfers_.size() != begin) {
      step_ranges_.emplace_back(node, begin);
    }
  }

  // Phase 2: commit — pop from sources, push to neighbours / deliver.
  // Receivers join the activity set; senders stay in it below iff they
  // still hold flits.
  std::size_t moved = 0;
  for (std::size_t ri = 0; ri < step_ranges_.size(); ++ri) {
    const auto [node, begin] = step_ranges_[ri];
    const std::uint32_t end = (ri + 1 < step_ranges_.size())
                                  ? step_ranges_[ri + 1].second
                                  : static_cast<std::uint32_t>(
                                        step_transfers_.size());
    const int x = static_cast<int>(node) % width_;
    const int y = static_cast<int>(node) / width_;
    routers_[node].commit(step_transfers_.data() + begin, end - begin);
    for (std::uint32_t ti = begin; ti < end; ++ti) {
      const auto& t = step_transfers_[ti];
      ++moved;
      ++link_flits_[node * static_cast<std::size_t>(kPortCount) +
                    static_cast<std::size_t>(t.out)];
      std::size_t to = node;
      switch (t.out) {
        case Port::kNorth: to = index(x, y - 1); break;
        case Port::kEast: to = index(x + 1, y); break;
        case Port::kSouth: to = index(x, y + 1); break;
        case Port::kWest: to = index(x - 1, y); break;
        case Port::kLocal: {
          // Reassemble at the destination.
          --queued_flits_;
          VLSIP_INVARIANT(t.flit.flow < flows_.size(),
                          "delivered flit of unknown flow");
          Flow& flow = flows_[t.flit.flow];
          if (t.flit.is_head()) {
            VLSIP_INVARIANT(flow.live, "delivered flit of unknown packet");
            flow.head_seen = true;
          } else {
            VLSIP_INVARIANT(flow.head_seen, "body flit before head");
            flow.packet.payload.push_back(t.flit.payload);
          }
          if (t.flit.is_tail()) {
            flow.packet.deliver_cycle = now_ + 1;  // arrives end of cycle
            ++total_delivered_;
            lifetime_latency_.add(static_cast<double>(
                flow.packet.deliver_cycle - flow.packet.inject_cycle));
            if (on_deliver_) on_deliver_(flow.packet);
            flow.packet = Packet{};
            flow.head_seen = false;
            flow.live = false;
            flow_free_.push_back(t.flit.flow);
            --live_flows_;
          }
          continue;
        }
      }
      routers_[to].accept(opposite(t.out), t.flit);
      active_.insert(static_cast<std::uint32_t>(to));
    }
  }
  for (const auto node : step_nodes_) {
    if (routers_[node].total_queued() != 0) active_.insert(node);
  }

  total_flits_moved_ += moved;
  ++now_;
  return moved;
}

bool NocFabric::run_until_drained(std::uint64_t max_cycles) {
  for (std::uint64_t c = 0; c < max_cycles; ++c) {
    if (idle()) return true;
    step();
  }
  return idle();
}

std::uint64_t NocFabric::link_flits(int x, int y, Port out) const {
  return link_flits_[index(x, y) * kPortCount +
                     static_cast<std::size_t>(out)];
}

std::uint64_t NocFabric::peak_link_flits() const {
  return simd::max_u64(link_flits_.data(), link_flits_.size());
}

std::string NocFabric::render_link_heatmap() const {
  std::string out;
  char buf[8];
  auto two = [&](std::uint64_t v) {
    std::snprintf(buf, sizeof(buf), "%2u",
                  static_cast<unsigned>(std::min<std::uint64_t>(v, 99)));
    return std::string(buf);
  };
  for (int y = 0; y < height_; ++y) {
    // Node row: east links.
    for (int x = 0; x < width_; ++x) {
      out += "+";
      if (x + 1 < width_) {
        out += two(link_flits(x, y, Port::kEast) +
                   link_flits(x + 1, y, Port::kWest));
      }
    }
    out += "\n";
    if (y + 1 < height_) {
      for (int x = 0; x < width_; ++x) {
        out += two(link_flits(x, y, Port::kSouth) +
                   link_flits(x, y + 1, Port::kNorth));
        if (x + 1 < width_) out += " ";
      }
      out += "\n";
    }
  }
  return out;
}

namespace {

/// The NoC probe's metric ids, interned once.
struct NocMetricIds {
  obs::MetricId packets_injected = obs::metric_id("noc.packets_injected");
  obs::MetricId packets_delivered = obs::metric_id("noc.packets_delivered");
  obs::MetricId flits_moved = obs::metric_id("noc.flits_moved");
  obs::MetricId cycles = obs::metric_id("noc.cycles");
  obs::MetricId queued_flits = obs::metric_id("noc.queued_flits");
  obs::MetricId peak_link_flits = obs::metric_id("noc.peak_link_flits");
  obs::MetricId flit_latency_mean = obs::metric_id("noc.flit_latency_mean");
  obs::MetricId flit_latency_min = obs::metric_id("noc.flit_latency_min");
  obs::MetricId flit_latency_max = obs::metric_id("noc.flit_latency_max");
};

}  // namespace

void NocFabric::export_obs(obs::MetricRegistry& registry) const {
  static const NocMetricIds id;
  registry.counter(id.packets_injected) += next_packet_id_ - 1;
  registry.counter(id.packets_delivered) += total_delivered_;
  registry.counter(id.flits_moved) += total_flits_moved_;
  registry.counter(id.cycles) += now_;
  registry.gauge(id.queued_flits) = static_cast<double>(queued_flits_);
  registry.gauge(id.peak_link_flits) =
      static_cast<double>(peak_link_flits());
  if (lifetime_latency_.count() > 0) {
    registry.gauge(id.flit_latency_mean) = lifetime_latency_.mean();
    registry.gauge(id.flit_latency_min) = lifetime_latency_.min();
    registry.gauge(id.flit_latency_max) = lifetime_latency_.max();
  }
}

namespace {

void save_packet(snapshot::Writer& w, const Packet& p) {
  w.u32(p.id);
  w.u32(p.src_x);
  w.u32(p.src_y);
  w.u32(p.dst_x);
  w.u32(p.dst_y);
  w.u8(static_cast<std::uint8_t>(p.kind));
  w.vec_u64(p.payload);
  w.u64(p.inject_cycle);
  w.u64(p.deliver_cycle);
}

Packet restore_packet(snapshot::Reader& r) {
  Packet p;
  p.id = r.u32();
  p.src_x = static_cast<std::uint16_t>(r.u32());
  p.src_y = static_cast<std::uint16_t>(r.u32());
  p.dst_x = static_cast<std::uint16_t>(r.u32());
  p.dst_y = static_cast<std::uint16_t>(r.u32());
  p.kind = static_cast<PacketKind>(r.u8());
  p.payload = r.vec_u64();
  p.inject_cycle = r.u64();
  p.deliver_cycle = r.u64();
  return p;
}

}  // namespace

void NocFabric::save(snapshot::Writer& w) const {
  w.section("noc.fabric");
  w.i32(width_);
  w.i32(height_);
  for (const auto& router : routers_) router.save(w);
  w.u64(now_);
  w.u32(next_packet_id_);
  w.u64(feeds_.size());
  for (const auto& q : feeds_) {
    w.u64(q.buf.size());
    for (const auto& flit : q.buf) save_flit(w, flit);
    w.u64(q.head);
  }
  w.u64(feed_nodes_.size());
  w.vec_u64(feed_nodes_.words());
  w.u64(active_.size());
  w.vec_u64(active_.words());
  w.u64(flows_.size());
  for (const auto& f : flows_) {
    save_packet(w, f.packet);
    w.b(f.head_seen);
    w.b(f.live);
  }
  w.vec_u32(flow_free_);
  w.u64(live_flows_);
  w.u64(queued_flits_);
  w.u64(total_delivered_);
  w.u64(total_flits_moved_);
  const RunningStats::Raw lat = lifetime_latency_.raw();
  w.u64(lat.n);
  w.f64(lat.mean);
  w.f64(lat.m2);
  w.f64(lat.min);
  w.f64(lat.max);
  w.vec_u64(link_flits_);
}

void NocFabric::restore(snapshot::Reader& r) {
  r.section("noc.fabric");
  const int width = r.i32();
  const int height = r.i32();
  VLSIP_REQUIRE(width == width_ && height == height_,
                "snapshot NoC geometry mismatch");
  for (auto& router : routers_) router.restore(r);
  now_ = r.u64();
  next_packet_id_ = r.u32();
  const std::uint64_t n_feeds = r.u64();
  VLSIP_REQUIRE(n_feeds == feeds_.size(),
                "snapshot NoC feed queue mismatch");
  for (auto& q : feeds_) {
    const std::uint64_t len = r.count(20);
    q.buf.clear();
    q.buf.reserve(static_cast<std::size_t>(len));
    for (std::uint64_t i = 0; i < len; ++i) q.buf.push_back(restore_flit(r));
    q.head = static_cast<std::size_t>(r.u64());
  }
  // Both sets index the router table; a drain visits their ids
  // unchecked.
  for (ActivitySet* set : {&feed_nodes_, &active_}) {
    const std::uint64_t size = r.u64();
    if (size != routers_.size() ||
        !set->restore_words(routers_.size(), r.vec_u64())) {
      throw snapshot::SnapshotError("snapshot NoC activity set corrupt");
    }
  }
  flows_.clear();
  const std::uint64_t n_flows = r.count(40);
  flows_.reserve(static_cast<std::size_t>(n_flows));
  for (std::uint64_t i = 0; i < n_flows; ++i) {
    Flow f;
    f.packet = restore_packet(r);
    f.head_seen = r.b();
    f.live = r.b();
    flows_.push_back(std::move(f));
  }
  flow_free_ = r.vec_u32();
  live_flows_ = static_cast<std::size_t>(r.u64());
  queued_flits_ = static_cast<std::size_t>(r.u64());
  total_delivered_ = r.u64();
  total_flits_moved_ = r.u64();
  RunningStats::Raw lat;
  lat.n = static_cast<std::size_t>(r.u64());
  lat.mean = r.f64();
  lat.m2 = r.f64();
  lat.min = r.f64();
  lat.max = r.f64();
  lifetime_latency_.set_raw(lat);
  link_flits_ = r.vec_u64();
  VLSIP_REQUIRE(link_flits_.size() ==
                    routers_.size() * static_cast<std::size_t>(kPortCount),
                "snapshot NoC link counter mismatch");
}

}  // namespace vlsip::noc

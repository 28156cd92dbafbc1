// The chip-wide router fabric: one router per cluster, mesh-connected,
// with packet-level injection/delivery on the local ports.
//
// The fabric is cycle-stepped. Per cycle every router decides its
// transfers from pre-cycle state, then all transfers commit — flits move
// at most one hop per cycle and no router sees another's same-cycle
// update (two-phase simulation).
//
// Event-driven stepping: only routers that can possibly move a flit —
// those holding queued flits or being fed an injection — are computed
// each cycle. Routers enter the activity set when a flit is accepted
// into them and leave when they drain; an idle mesh costs nothing per
// cycle. Transfers are still computed from pre-cycle state and applied
// in ascending router index order, so the schedule (and the delivery
// order) is bit-identical to the dense every-router scan: a skipped
// router has no flits and would have produced no transfers.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/activity_set.hpp"
#include "common/stats.hpp"
#include "costmodel/energy.hpp"
#include "noc/router.hpp"
#include "obs/metrics.hpp"

namespace vlsip::snapshot {
class Writer;
class Reader;
}  // namespace vlsip::snapshot

namespace vlsip::noc {

struct Packet {
  std::uint32_t id = 0;
  std::uint16_t src_x = 0;
  std::uint16_t src_y = 0;
  std::uint16_t dst_x = 0;
  std::uint16_t dst_y = 0;
  PacketKind kind = PacketKind::kData;
  std::vector<std::uint64_t> payload;  // one flit per word (>= 1 flit total)

  std::uint64_t inject_cycle = 0;   // filled by the fabric
  std::uint64_t deliver_cycle = 0;  // filled on delivery
  int hops() const;
};

class NocFabric {
 public:
  NocFabric(int width, int height, RouterConfig router_config = {});

  int width() const { return width_; }
  int height() const { return height_; }
  std::uint64_t now() const { return now_; }

  /// Queues a packet for injection at its source router's local port.
  /// Returns the packet id.
  std::uint32_t inject(Packet packet);

  /// Advances one cycle. Returns the number of flits moved.
  std::size_t step();

  /// Runs until all injected packets are delivered or `max_cycles`
  /// elapse; returns true if the network drained.
  bool run_until_drained(std::uint64_t max_cycles);

  /// Delivery callback, invoked once per packet as it completes at its
  /// destination's local port, in delivery order. The fabric keeps no
  /// record of delivered packets: a caller that wants them collects
  /// them here.
  void set_on_deliver(std::function<void(const Packet&)> cb) {
    on_deliver_ = std::move(cb);
  }

  /// O(1): no pending feeds, no queued flits, no undelivered packets.
  bool idle() const {
    return feed_nodes_.empty() && queued_flits_ == 0 && live_flows_ == 0;
  }

  /// Latency statistics over every packet delivered so far (inject ->
  /// deliver).
  const RunningStats& latency_stats() const { return lifetime_latency_; }

  /// Publishes fabric counters (packets, flit movement, lifetime flit
  /// latency) and point-in-time queue depth into `registry` under
  /// "noc." names — this layer's probe into the observability spine.
  void export_obs(obs::MetricRegistry& registry) const;

  /// Folds the fabric's lifetime activity into `a` (energy spine):
  /// flit-hops moved and packets ejected — both serialized counters,
  /// identical across dense and event-driven stepping.
  void fold_energy(cost::EnergyActivity& a) const {
    a.units[cost::kEnergyNocFlit] += total_flits_moved_;
    a.units[cost::kEnergyNocDelivery] += total_delivered_;
  }

  const Router& router(int x, int y) const;

  /// Flits carried by the directed link from (x,y) toward `out`
  /// (kLocal = ejections at (x,y)).
  std::uint64_t link_flits(int x, int y, Port out) const;

  /// Busiest link's flit count (congestion indicator).
  std::uint64_t peak_link_flits() const;

  /// ASCII heat map of horizontal/vertical link loads (two digits per
  /// link, saturating at 99).
  std::string render_link_heatmap() const;

  /// Checkpoint codec: routers, injection queues, flow reassembly
  /// state and lifetime counters. The delivery callback is NOT
  /// serialized — re-install it after restore.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  /// One undelivered packet: the source metadata plus the destination's
  /// reassembly state. Slots are reused through a free list, and every
  /// flit of the packet carries its slot, so the table is bounded by
  /// the packets in flight.
  struct Flow {
    Packet packet;
    bool head_seen = false;
    bool live = false;
  };
  /// Pending injection flits for one (node, VC), consumed front-first.
  struct FeedQueue {
    std::vector<Flit> buf;
    std::size_t head = 0;
    bool empty() const { return head >= buf.size(); }
  };

  Router& router_mut(int x, int y);
  std::size_t index(int x, int y) const;
  /// Converts the next pending packet at node `node` into flits if the
  /// local input queue has room; returns true if flits remain pending.
  bool feed_injection(std::uint32_t node);

  int width_;
  int height_;
  RouterConfig router_config_;
  std::vector<Router> routers_;
  std::uint64_t now_ = 0;
  std::uint32_t next_packet_id_ = 1;

  /// In-progress flit feeds: feeds_[node * kMaxVcs + vc], one FIFO per
  /// (node, injection VC) so packets on different VCs do not serialise
  /// at the source. feed_nodes_ marks nodes with any pending feed.
  std::vector<FeedQueue> feeds_;
  ActivitySet feed_nodes_;
  /// Routers that may move a flit this cycle (queued or being fed).
  ActivitySet active_;

  std::vector<Flow> flows_;
  std::vector<std::uint32_t> flow_free_;
  std::size_t live_flows_ = 0;
  /// Flits currently inside router input queues, fabric-wide.
  std::size_t queued_flits_ = 0;

  // step() scratch, reused across cycles.
  std::vector<std::uint32_t> step_nodes_;
  std::vector<std::uint32_t> feed_scratch_;
  std::vector<Router::Transfer> step_transfers_;
  /// (router index, begin offset into step_transfers_) per router that
  /// produced transfers; end offset = next entry's begin (or total).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> step_ranges_;

  std::function<void(const Packet&)> on_deliver_;
  /// Lifetime observability counters.
  std::uint64_t total_delivered_ = 0;
  std::uint64_t total_flits_moved_ = 0;
  RunningStats lifetime_latency_;
  /// link_flits_[(y*width + x) * kPortCount + out]
  std::vector<std::uint64_t> link_flits_;
};

}  // namespace vlsip::noc

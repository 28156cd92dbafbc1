#include "noc/router.hpp"

#include "common/require.hpp"
#include "common/simd.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::noc {

Port opposite(Port p) {
  switch (p) {
    case Port::kNorth: return Port::kSouth;
    case Port::kEast: return Port::kWest;
    case Port::kSouth: return Port::kNorth;
    case Port::kWest: return Port::kEast;
    case Port::kLocal: return Port::kLocal;
  }
  return Port::kLocal;
}

Router::Router(int x, int y, RouterConfig config)
    : x_(x), y_(y), config_(config) {
  VLSIP_REQUIRE(config.queue_depth >= 1 && config.queue_depth <= 0xFFFF,
                "queue depth must be in [1, 65535]");
  VLSIP_REQUIRE(config.virtual_channels >= 1 &&
                    config.virtual_channels <= kMaxVcs,
                "virtual channels must be in [1, kMaxVcs]");
  rings_.resize(static_cast<std::size_t>(kPortCount) *
                config.virtual_channels * config.queue_depth);
  head_.fill(0);
  len_.fill(0);
  owner_.fill(-1);
  rr_.fill(0);
}

int Router::queue_index(Port p, int vc) const {
  return static_cast<int>(p) * config_.virtual_channels + vc;
}

int Router::lock_index(Port out, int vc) const {
  return static_cast<int>(out) * config_.virtual_channels + vc;
}

bool Router::can_accept(Port p, int vc) const {
  VLSIP_REQUIRE(vc >= 0 && vc < config_.virtual_channels,
                "vc out of range");
  return len_[queue_index(p, vc)] < config_.queue_depth;
}

std::uint32_t Router::accept_mask(Port p) const {
  // Queue indices for port p are contiguous (p * vcs + vc), so the
  // whole mask is one lanewise compare against the depth bound.
  return simd::lt_mask_u16(
      len_.data() + static_cast<int>(p) * config_.virtual_channels,
      static_cast<std::size_t>(config_.virtual_channels),
      static_cast<std::uint16_t>(config_.queue_depth));
}

void Router::accept(Port p, const Flit& flit) {
  VLSIP_REQUIRE(flit.vc < config_.virtual_channels, "flit vc out of range");
  VLSIP_REQUIRE(can_accept(p, flit.vc), "input queue overflow");
  const int q = queue_index(p, flit.vc);
  const int slot = (head_[q] + len_[q]) % config_.queue_depth;
  rings_[static_cast<std::size_t>(q) * config_.queue_depth + slot] = flit;
  ++len_[q];
  ++total_queued_;
}

Port Router::route(const Flit& head) const {
  // Dimension-ordered XY routing: resolve X first, then Y, then eject.
  if (head.dest_x > x_) return Port::kEast;
  if (head.dest_x < x_) return Port::kWest;
  if (head.dest_y > y_) return Port::kSouth;  // +y is "down" (south)
  if (head.dest_y < y_) return Port::kNorth;
  return Port::kLocal;
}

void Router::compute_into(const ReadyMask& downstream_ready,
                          std::vector<Transfer>& transfers) {
  const int vcs = config_.virtual_channels;
  // Flit-ring occupancy mask: bit q set = input queue q non-empty. One
  // SIMD compare over the contiguous len_ lanes replaces the per-queue
  // length loads in both passes, and a fully drained router (the common
  // case at scale — most of a 1024-cluster mesh is quiescent between
  // worms) exits before touching the arbitration loops at all.
  const std::uint32_t occ = simd::nonzero_mask_u16(
      len_.data(), static_cast<std::size_t>(kPortCount) * vcs);
  if (occ == 0) return;
  // One flit per output port per cycle (one physical link each).
  std::array<bool, kPortCount> link_used{};

  // Pass 1: locked paths — body/tail flits of in-flight worms have
  // priority so worms drain. Walk output VCs round-robin-ish (by index;
  // fairness among VCs comes from pass order stability being broken by
  // tail releases).
  for (int out = 0; out < kPortCount; ++out) {
    for (int ovc = 0; ovc < vcs && !link_used[out]; ++ovc) {
      const std::int8_t own = owner_[lock_index(static_cast<Port>(out), ovc)];
      if (own < 0) continue;
      const Port in = static_cast<Port>(own / vcs);
      const int ivc = own % vcs;
      const int q = queue_index(in, ivc);
      if (!(occ & (1u << q))) continue;
      const Flit& f = front(q);
      if (f.is_head()) continue;  // next packet; must re-arbitrate
      if (!(downstream_ready[out] & (1u << ovc))) continue;
      Flit sent = f;
      sent.vc = static_cast<std::uint8_t>(ovc);
      transfers.push_back(
          Transfer{in, ivc, static_cast<Port>(out), ovc, sent});
      link_used[out] = true;
    }
  }

  // Pass 2: head flits arbitrate for a free output VC on their routed
  // port, round-robin over input (port, vc) pairs for fairness.
  const int inputs = kPortCount * vcs;
  for (int out = 0; out < kPortCount; ++out) {
    if (link_used[out]) continue;
    for (int k = 0; k < inputs; ++k) {
      const int slot = (rr_[out] + k) % inputs;
      const Port in = static_cast<Port>(slot / vcs);
      const int ivc = slot % vcs;
      const int q = queue_index(in, ivc);
      if (!(occ & (1u << q))) continue;
      const Flit& f = front(q);
      if (!f.is_head()) continue;
      if (route(f) != static_cast<Port>(out)) continue;
      // Allocate the lowest free + ready output VC.
      int ovc = -1;
      for (int v = 0; v < vcs; ++v) {
        if (owner_[lock_index(static_cast<Port>(out), v)] < 0 &&
            (downstream_ready[out] & (1u << v))) {
          ovc = v;
          break;
        }
      }
      if (ovc < 0) continue;
      Flit sent = f;
      sent.vc = static_cast<std::uint8_t>(ovc);
      transfers.push_back(
          Transfer{in, ivc, static_cast<Port>(out), ovc, sent});
      link_used[out] = true;
      rr_[out] = (slot + 1) % inputs;
      break;
    }
  }
}

std::vector<Router::Transfer> Router::compute(
    const ReadyMask& downstream_ready) {
  std::vector<Transfer> transfers;
  compute_into(downstream_ready, transfers);
  return transfers;
}

void Router::commit(const Transfer* transfers, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const Transfer& t = transfers[i];
    const int q = queue_index(t.in, t.in_vc);
    VLSIP_INVARIANT(len_[q] != 0, "commit of empty queue");
    pop(q);
    std::int8_t& own = owner_[lock_index(t.out, t.out_vc)];
    if (t.flit.is_head()) {
      own = static_cast<std::int8_t>(queue_index(t.in, t.in_vc));
    }
    if (t.flit.is_tail()) own = -1;
  }
}

void Router::commit(const std::vector<Transfer>& transfers) {
  commit(transfers.data(), transfers.size());
}

std::size_t Router::queued(Port p, int vc) const {
  return len_[queue_index(p, vc)];
}

std::optional<std::pair<Port, int>> Router::output_owner(Port out,
                                                         int out_vc) const {
  const std::int8_t own = owner_[lock_index(out, out_vc)];
  if (own < 0) return std::nullopt;
  return std::make_pair(static_cast<Port>(own / config_.virtual_channels),
                        own % config_.virtual_channels);
}

void save_flit(snapshot::Writer& w, const Flit& flit) {
  w.u8(static_cast<std::uint8_t>(flit.kind));
  w.u32(flit.flow);
  w.u8(flit.vc);
  w.u32(flit.dest_x);
  w.u32(flit.dest_y);
  w.u8(static_cast<std::uint8_t>(flit.pkind));
  w.u64(flit.payload);
}

Flit restore_flit(snapshot::Reader& r) {
  Flit flit;
  flit.kind = static_cast<FlitKind>(r.u8());
  flit.flow = r.u32();
  flit.vc = r.u8();
  flit.dest_x = static_cast<std::uint16_t>(r.u32());
  flit.dest_y = static_cast<std::uint16_t>(r.u32());
  flit.pkind = static_cast<PacketKind>(r.u8());
  flit.payload = r.u64();
  return flit;
}

void Router::save(snapshot::Writer& w) const {
  w.section("noc.router");
  w.u64(rings_.size());
  for (const auto& flit : rings_) save_flit(w, flit);
  for (const auto h : head_) w.u32(h);
  for (const auto l : len_) w.u32(l);
  w.u64(total_queued_);
  for (const auto o : owner_) w.i32(o);
  for (const auto p : rr_) w.i32(p);
}

void Router::restore(snapshot::Reader& r) {
  r.section("noc.router");
  const std::uint64_t n = r.u64();
  VLSIP_REQUIRE(n == rings_.size(), "snapshot router ring arena mismatch");
  for (auto& flit : rings_) flit = restore_flit(r);
  for (auto& h : head_) h = static_cast<std::uint16_t>(r.u32());
  for (auto& l : len_) l = static_cast<std::uint16_t>(r.u32());
  total_queued_ = static_cast<std::size_t>(r.u64());
  for (auto& o : owner_) o = static_cast<std::int8_t>(r.i32());
  for (auto& p : rr_) p = r.i32();
}

}  // namespace vlsip::noc

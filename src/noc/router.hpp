// The on-chip router of fig. 7(e): five ports (N/E/S/W/Local), each with
// a queue -> allocation -> output stage, carrying wormhole packets —
// optionally with virtual channels [Dally, TPDS 3(2) 1992, the paper's
// ref 18].
//
// Wormhole flow control: a packet is a head flit (carrying the
// destination), body flits and a tail flit. The head allocates an output
// port and an output VC; body flits follow the established (port, VC)
// path; the tail releases it. With a single VC a blocked worm blocks the
// whole link (head-of-line blocking); with multiple VCs other worms
// interleave on the physical link, which the ablation bench measures.
//
// Data layout: the input queues are fixed-capacity rings in one flat
// flit arena (`rings_`), not per-queue deques — the compute phase walks
// queue fronts out of contiguous storage and enqueue/dequeue never
// allocate. Wormhole locks are a flat slot array with a -1 sentinel.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

namespace vlsip::snapshot {
class Writer;
class Reader;
}  // namespace vlsip::snapshot

namespace vlsip::noc {

enum class Port : std::uint8_t {
  kNorth = 0,
  kEast = 1,
  kSouth = 2,
  kWest = 3,
  kLocal = 4,
};
inline constexpr int kPortCount = 5;
inline constexpr const char* kPortNames[kPortCount] = {"N", "E", "S", "W",
                                                       "L"};
/// Upper bound on virtual channels per port (config may use fewer).
inline constexpr int kMaxVcs = 4;

Port opposite(Port p);

enum class FlitKind : std::uint8_t { kHead, kBody, kTail, kHeadTail };

/// Packet categories the VLSI processor sends (§3.3–3.4).
enum class PacketKind : std::uint8_t {
  kConfig,  // switch-programming worm (scaling)
  kData,    // inter-processor data (write into follower's memory block)
  kControl, // activation / release token
};

struct Flit {
  FlitKind kind = FlitKind::kBody;
  std::uint32_t flow = 0;     // the fabric's reassembly slot
  std::uint8_t vc = 0;        // virtual channel on the incoming link
  // Head-flit fields:
  std::uint16_t dest_x = 0;
  std::uint16_t dest_y = 0;
  PacketKind pkind = PacketKind::kData;
  // Payload word (one per flit).
  std::uint64_t payload = 0;

  bool is_head() const {
    return kind == FlitKind::kHead || kind == FlitKind::kHeadTail;
  }
  bool is_tail() const {
    return kind == FlitKind::kTail || kind == FlitKind::kHeadTail;
  }
};

struct RouterConfig {
  int queue_depth = 4;       // flits per input VC queue
  int virtual_channels = 1;  // 1..kMaxVcs
};

/// Checkpoint codecs for a single flit (shared by Router and the
/// fabric's injection queues).
void save_flit(snapshot::Writer& w, const Flit& flit);
Flit restore_flit(snapshot::Reader& r);

/// Per-port readiness mask: bit v set = the downstream input can accept
/// a flit on VC v this cycle.
using ReadyMask = std::array<std::uint32_t, kPortCount>;

/// One router. The surrounding fabric wires output->input links and
/// drives the two-phase step: every router computes its transfers from
/// the pre-cycle state, then the fabric applies them, so intra-cycle
/// ordering between routers cannot leak. Each output port moves at most
/// one flit per cycle (one physical link), whichever VC it belongs to.
class Router {
 public:
  Router(int x, int y, RouterConfig config);

  int x() const { return x_; }
  int y() const { return y_; }
  int vcs() const { return config_.virtual_channels; }

  /// True if input queue (p, vc) can accept a flit this cycle.
  bool can_accept(Port p, int vc = 0) const;
  /// Bitmask of accepting VCs on port p.
  std::uint32_t accept_mask(Port p) const;
  /// Enqueues an incoming flit on its flit.vc queue.
  void accept(Port p, const Flit& flit);

  /// A transfer decided in the compute phase.
  struct Transfer {
    Port in;
    int in_vc;
    Port out;
    int out_vc;
    Flit flit;  // vc field already rewritten to out_vc
  };

  /// Compute phase: decides at most one flit per output port, based on
  /// XY routing for heads and the locked (port, VC) path for body/tail
  /// flits. `downstream_ready[out]` is the accept mask of the neighbour
  /// (or local sink) on that output.
  std::vector<Transfer> compute(const ReadyMask& downstream_ready);

  /// As compute(), but appends into `out` (not cleared) so the caller
  /// can batch many routers' transfers into one reused buffer.
  void compute_into(const ReadyMask& downstream_ready,
                    std::vector<Transfer>& out);

  /// Commit phase: removes the transferred flits from the input queues
  /// and updates the wormhole locks.
  void commit(const std::vector<Transfer>& transfers);
  void commit(const Transfer* transfers, std::size_t count);

  std::size_t queued(Port p, int vc = 0) const;
  std::size_t total_queued() const { return total_queued_; }
  /// Which (input port, input VC) currently owns output (out, out_vc).
  std::optional<std::pair<Port, int>> output_owner(Port out,
                                                   int out_vc = 0) const;

  /// Checkpoint codec: ring arena verbatim (stale slots included —
  /// reproducible machine state), queue cursors, wormhole locks and
  /// round-robin pointers.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  Port route(const Flit& head) const;
  int queue_index(Port p, int vc) const;
  int lock_index(Port out, int vc) const;
  const Flit& front(int q) const {
    return rings_[static_cast<std::size_t>(q) * config_.queue_depth +
                  head_[q]];
  }
  void pop(int q) {
    head_[q] = static_cast<std::uint16_t>((head_[q] + 1) %
                                          config_.queue_depth);
    --len_[q];
    --total_queued_;
  }

  int x_;
  int y_;
  RouterConfig config_;
  /// Ring arena: queue q owns slots [q*depth, (q+1)*depth), q = port *
  /// vcs + vc; the live window is [head_[q], head_[q]+len_[q]) mod depth.
  std::vector<Flit> rings_;
  std::array<std::uint16_t, kPortCount * kMaxVcs> head_{};
  std::array<std::uint16_t, kPortCount * kMaxVcs> len_{};
  std::size_t total_queued_ = 0;
  /// Wormhole lock per (output port, output VC): owning input slot
  /// (port * vcs + vc), or -1 when the output is unlocked.
  std::array<std::int8_t, kPortCount * kMaxVcs> owner_;
  /// Round-robin pointers per output port: over input (port, vc) pairs.
  std::array<int, kPortCount> rr_;
};

}  // namespace vlsip::noc

// Ablation: virtual-channel flow control on the scaling NoC (the
// paper's ref [18], Dally). Head-of-line blocking: a worm stuck behind a
// blocked worm in the same input queue cannot advance even when its own
// output is free — unless it rides another virtual channel.
#include <cstdio>

#include "bench_util.hpp"
#include "noc/noc_fabric.hpp"

namespace {

using namespace vlsip;

std::vector<std::uint64_t> worm(std::size_t flits) {
  return std::vector<std::uint64_t>(flits, 0xAB);
}

/// The adversarial scenario on a 4x2 mesh:
///   P1: (0,0) -> (3,0), 16 flits — a long worm holding link (2,0)-(3,0);
///   P2: (1,0) -> (3,0), 16 flits — blocks at (2,0) behind P1's lock and
///       backpressures along (1,0)-(2,0);
///   P3: (1,0) -> (2,1), 1 flit — shares the link (1,0)-(2,0) with P2,
///       then turns south at (2,0), whose output is completely free.
/// With one VC, P3 is trapped behind P2's flits in the shared input
/// queue (head-of-line blocking); with two, it bypasses on VC 1.
std::uint64_t victim_latency(int vcs) {
  noc::RouterConfig rc;
  rc.queue_depth = 2;
  rc.virtual_channels = vcs;
  noc::NocFabric fabric(4, 2, rc);

  noc::Packet p1;
  p1.src_x = 0; p1.src_y = 0; p1.dst_x = 3; p1.dst_y = 0;
  p1.payload = worm(16);
  noc::Packet p2;
  p2.src_x = 1; p2.src_y = 0; p2.dst_x = 3; p2.dst_y = 0;
  p2.payload = worm(16);
  noc::Packet p3;
  p3.src_x = 1; p3.src_y = 0; p3.dst_x = 2; p3.dst_y = 1;
  p3.payload = worm(1);

  fabric.inject(p1);
  fabric.inject(p2);
  const auto victim = fabric.inject(p3);
  std::uint64_t latency = ~0ull;
  fabric.set_on_deliver([&](const noc::Packet& d) {
    if (d.id == victim) latency = d.deliver_cycle - d.inject_cycle;
  });
  fabric.run_until_drained(1u << 20);
  return latency;
}

}  // namespace

int main() {
  bench::banner("Ablation — Virtual Channels on the Scaling NoC",
                "Head-of-line blocking: a 1-flit data packet trapped "
                "behind a stalled 16-flit worm [Dally 92, paper ref 18]");

  AsciiTable out({"VCs", "Victim latency [cycles]", "Speedup vs 1 VC"});
  double base = 0;
  for (int vcs : {1, 2, 3, 4}) {
    const auto lat = victim_latency(vcs);
    if (vcs == 1) base = static_cast<double>(lat);
    out.add_row({std::to_string(vcs), std::to_string(lat),
                 format_sig(base / static_cast<double>(lat), 3) + "x"});
  }
  std::printf("%s\n", out.render().c_str());

  std::printf(
      "Why it matters here: inter-processor hand-offs (fig. 7 d) are "
      "long data worms into followers' memory blocks, while activation "
      "tokens and scaling config packets are single flits. Without VCs "
      "a parked hand-off delays every activation crossing its path; "
      "with 2+ VCs the control traffic bypasses it. Short config worms "
      "themselves gain nothing — the second VC is for the bystanders.\n");
  return 0;
}

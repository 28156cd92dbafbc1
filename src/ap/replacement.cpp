#include "ap/replacement.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::ap {

ReplacementScheduler::ReplacementScheduler(ReplacementConfig config) {
  reset(config);
}

void ReplacementScheduler::reset(ReplacementConfig config) {
  VLSIP_REQUIRE(config.ports >= 1, "need at least one write-back port");
  VLSIP_REQUIRE(config.write_back_latency >= 1,
                "write-back latency must be positive");
  config_ = config;
  port_free_at_.assign(static_cast<std::size_t>(config.ports), 0);
  scheduled_ = 0;
  stall_cycles_ = 0;
}

std::uint64_t ReplacementScheduler::schedule_write_back(
    arch::ObjectId victim, std::uint64_t now) {
  VLSIP_REQUIRE(victim != arch::kNoObject, "victim must be a real object");
  // Earliest-free port wins (the table entry).
  auto it = std::min_element(port_free_at_.begin(), port_free_at_.end());
  const std::uint64_t start = std::max(*it, now);
  *it = start + static_cast<std::uint64_t>(config_.write_back_latency);
  ++scheduled_;
  stall_cycles_ += start - now;
  return start;
}

std::uint64_t ReplacementScheduler::drained_at() const {
  return *std::max_element(port_free_at_.begin(), port_free_at_.end());
}

int ReplacementScheduler::busy_ports_at(std::uint64_t t) const {
  return static_cast<int>(std::count_if(
      port_free_at_.begin(), port_free_at_.end(),
      [t](std::uint64_t free_at) { return free_at > t; }));
}

void ReplacementScheduler::save(snapshot::Writer& w) const {
  w.section("ap.replacement");
  w.vec_u64(port_free_at_);
  w.u64(scheduled_);
  w.u64(stall_cycles_);
}

void ReplacementScheduler::restore(snapshot::Reader& r) {
  r.section("ap.replacement");
  port_free_at_ = r.vec_u64();
  VLSIP_REQUIRE(port_free_at_.size() ==
                    static_cast<std::size_t>(config_.ports),
                "snapshot replacement port count mismatch");
  scheduled_ = static_cast<std::size_t>(r.u64());
  stall_cycles_ = r.u64();
}

}  // namespace vlsip::ap

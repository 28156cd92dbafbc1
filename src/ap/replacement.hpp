// The replacement scheduling table (paper §2.5): "The replacement is
// scheduled using a special interconnection network composing a
// scheduling table."
//
// When the object space is full, the victim's state must be written back
// to the library in a memory block before its slot can be reused. Doing
// that inline would stall the configuration pipeline for the whole
// write-back; the scheduling table instead queues the write-back on one
// of a small number of ports (the special interconnection network) and
// releases the slot immediately — the pipeline only stalls when every
// port is already busy.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/object.hpp"

namespace vlsip::snapshot {
class Writer;
class Reader;
}  // namespace vlsip::snapshot

namespace vlsip::ap {

struct ReplacementConfig {
  /// Concurrent write-back ports on the scheduling network.
  int ports = 2;
  /// Cycles to drain one object's state to a memory block.
  int write_back_latency = 8;
};

class ReplacementScheduler {
 public:
  explicit ReplacementScheduler(ReplacementConfig config = {});

  /// Returns to the constructed state: every port free, nothing
  /// scheduled.
  void reset(ReplacementConfig config);

  /// Schedules the victim's write-back at (or after) cycle `now`.
  /// Returns the cycle at which the pipeline may proceed: `now` if a
  /// port was free, later if it had to wait for one. The write-back
  /// itself continues in the background after that point.
  std::uint64_t schedule_write_back(arch::ObjectId victim,
                                    std::uint64_t now);

  /// Cycle at which every scheduled write-back has drained.
  std::uint64_t drained_at() const;

  /// Ports still busy at cycle `t`.
  int busy_ports_at(std::uint64_t t) const;

  std::size_t scheduled() const { return scheduled_; }
  std::uint64_t stall_cycles() const { return stall_cycles_; }

  const ReplacementConfig& config() const { return config_; }

  /// Checkpoint codec.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  ReplacementConfig config_;
  /// port_free_at_[p]: cycle at which port p finishes its write-back.
  std::vector<std::uint64_t> port_free_at_;
  std::size_t scheduled_ = 0;
  std::uint64_t stall_cycles_ = 0;
};

}  // namespace vlsip::ap

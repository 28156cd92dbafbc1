// ChipConfigBuilder — the one construction surface for a chip.
//
// Configuration knobs used to be scattered over five nested structs
// (ChipConfig -> ClusterSpec / RouterConfig / ScalingConfig ->
// ApConfig -> ExecConfig ...): callers had to know, for example, that
// the event-driven toggle lives at
// `cfg.scaling.ap_template.exec.event_driven`. The builder names every
// commonly-tuned knob once, routes it to the right nested field, and
// validates the result in build(). Aggregate-initialising the structs
// directly still works — it is the legacy path the builder wraps, kept
// so existing examples and tests migrate incrementally.
//
//   auto cfg = core::ChipConfigBuilder()
//                  .grid(4, 4)
//                  .cluster(8, 8)
//                  .event_driven(true)
//                  .trace(false)
//                  .build();
//   core::VlsiProcessor chip(cfg);
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/status.hpp"
#include "core/vlsi_processor.hpp"

namespace vlsip::core {

class ChipConfigBuilder {
 public:
  /// Cluster grid dimensions (width x height per layer).
  ChipConfigBuilder& grid(int width, int height) {
    config_.width = width;
    config_.height = height;
    return *this;
  }

  /// 2 = die-stacked (fig. 6 d).
  ChipConfigBuilder& layers(int n) {
    config_.layers = n;
    return *this;
  }

  /// Objects per cluster: compute stack positions and memory blocks
  /// beside them (§2.6.2's provisioning).
  ChipConfigBuilder& cluster(int physical_objects, int memory_objects,
                             int system_objects = 1) {
    config_.cluster.physical_objects = physical_objects;
    config_.cluster.memory_objects = memory_objects;
    config_.cluster.system_objects = system_objects;
    return *this;
  }

  /// NoC router provisioning.
  ChipConfigBuilder& router(int queue_depth, int virtual_channels = 1) {
    config_.router.queue_depth = queue_depth;
    config_.router.virtual_channels = virtual_channels;
    return *this;
  }

  /// Cluster the configurator injects scaling worms from.
  ChipConfigBuilder& configurator(int x, int y) {
    config_.scaling.configurator_x = x;
    config_.scaling.configurator_y = y;
    return *this;
  }

  ChipConfigBuilder& max_config_cycles(std::uint64_t cycles) {
    config_.scaling.max_config_cycles = cycles;
    return *this;
  }

  // --- AP template knobs (applied to every fused processor) -------------

  /// Event-driven cycle engine vs the dense reference scan
  /// (bit-identical; event-driven is the fast path).
  ChipConfigBuilder& event_driven(bool on) {
    config_.scaling.ap_template.exec.event_driven = on;
    return *this;
  }

  /// Virtual-hardware object faulting, and how many faults may be in
  /// service concurrently (Table 3's CFB count).
  ChipConfigBuilder& allow_faults(bool on, int concurrency = 3) {
    config_.scaling.ap_template.exec.allow_faults = on;
    config_.scaling.ap_template.exec.fault_concurrency = concurrency;
    return *this;
  }

  /// Per-chain token queue depth.
  ChipConfigBuilder& edge_capacity(int depth) {
    config_.scaling.ap_template.exec.edge_capacity = depth;
    return *this;
  }

  /// Cycles without progress before a run is declared deadlocked.
  ChipConfigBuilder& deadlock_window(std::uint64_t cycles) {
    config_.scaling.ap_template.exec.deadlock_window = cycles;
    return *this;
  }

  ChipConfigBuilder& wsrf_capacity(int entries) {
    config_.scaling.ap_template.wsrf_capacity = entries;
    return *this;
  }

  ChipConfigBuilder& library_load_latency(int cycles) {
    config_.scaling.ap_template.library_load_latency = cycles;
    return *this;
  }

  /// Structured tracing for the chip and every AP fused on it.
  ChipConfigBuilder& trace(bool on) {
    config_.enable_trace = on;
    config_.scaling.ap_template.enable_trace = on;
    return *this;
  }

  /// Live energy accounting priced at an ITRS node (docs/ENERGY.md).
  ChipConfigBuilder& energy(bool on, int node_year = 2012) {
    config_.energy.enabled = on;
    config_.energy.node_year = node_year;
    return *this;
  }

  /// Validates and returns the config; throws PreconditionError on an
  /// impossible shape (the same failure the VlsiProcessor constructor
  /// would raise, but named at the knob that caused it).
  ChipConfig build() const {
    const Status s = validate();
    VLSIP_REQUIRE(s.ok(), s.to_string());
    return config_;
  }

  /// Non-throwing build() for callers on the Status surface.
  StatusOr<ChipConfig> try_build() const {
    const Status s = validate();
    if (!s.ok()) return s;
    return config_;
  }

  /// The config as accumulated so far, unvalidated — for callers that
  /// want to tweak a field the builder does not name.
  ChipConfig& raw() { return config_; }

 private:
  Status validate() const {
    if (config_.width < 1 || config_.height < 1) {
      return Status(StatusCode::kInvalidArgument,
                    "chip grid must be at least 1x1");
    }
    if (config_.layers < 1) {
      return Status(StatusCode::kInvalidArgument,
                    "chip needs at least one layer");
    }
    if (config_.cluster.physical_objects < 1 ||
        config_.cluster.memory_objects < 1) {
      return Status(StatusCode::kInvalidArgument,
                    "cluster needs at least one physical and one memory "
                    "object");
    }
    if (config_.router.queue_depth < 1 ||
        config_.router.queue_depth > 0xFFFF) {
      return Status(StatusCode::kInvalidArgument,
                    "router queue depth must be in [1, 65535]");
    }
    if (config_.router.virtual_channels < 1 ||
        config_.router.virtual_channels > noc::kMaxVcs) {
      return Status(StatusCode::kInvalidArgument,
                    "router virtual channels must be in [1, " +
                        std::to_string(noc::kMaxVcs) + "]");
    }
    if (config_.scaling.configurator_x < 0 ||
        config_.scaling.configurator_x >= config_.width ||
        config_.scaling.configurator_y < 0 ||
        config_.scaling.configurator_y >= config_.height) {
      return Status(StatusCode::kInvalidArgument,
                    "configurator cluster is outside the grid");
    }
    return Status::Ok();
  }

  ChipConfig config_;
};

}  // namespace vlsip::core

#include "core/vlsi_processor.hpp"

#include <unordered_map>

#include "common/require.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::core {

VlsiProcessor::VlsiProcessor(ChipConfig config)
    : config_(config),
      trace_(config.enable_trace),
      fabric_(config.width, config.height, config.cluster, config.layers),
      noc_(config.width, config.height, config.router),
      manager_(fabric_, noc_, config.scaling,
               config.enable_trace ? &trace_ : nullptr) {
  if (config_.energy.enabled) {
    energy_model_ = std::make_unique<cost::EnergyModel>(config_.energy);
    dvs_level_ = config_.energy.initial_level;
  }
}

scaling::ProcId VlsiProcessor::fuse(std::size_t clusters) {
  return manager_.allocate(clusters);
}

scaling::ProcId VlsiProcessor::fuse_path(
    const std::vector<topology::ClusterId>& path, bool ring) {
  return manager_.allocate_path(path, ring);
}

void VlsiProcessor::split(scaling::ProcId id, std::size_t keep_clusters) {
  manager_.downscale(id, keep_clusters);
}

StatusOr<scaling::ProcId> VlsiProcessor::try_fuse(std::size_t clusters) {
  try {
    const scaling::ProcId id = fuse(clusters);
    if (id == scaling::kNoProc) {
      return Status(StatusCode::kUnavailable,
                    "no contiguous free run of " + std::to_string(clusters) +
                        " clusters (try release or compact)");
    }
    return id;
  } catch (const std::logic_error& e) {
    return Status(StatusCode::kInvalidArgument, e.what());
  }
}

Status VlsiProcessor::try_split(scaling::ProcId id,
                                std::size_t keep_clusters) {
  try {
    split(id, keep_clusters);
    return Status::Ok();
  } catch (const std::logic_error& e) {
    return Status(StatusCode::kInvalidArgument, e.what());
  }
}

RunResult VlsiProcessor::run_program(
    scaling::ProcId id, const arch::Program& program,
    const std::map<std::string, std::vector<arch::Word>>& inputs,
    std::size_t expected_per_output, std::uint64_t max_cycles) {
  VLSIP_REQUIRE(manager_.alive(id), "processor is not alive");
  // Configuration data is stored while inactive (§3.3); execution runs
  // active. run_program handles both transitions for convenience.
  const bool was_inactive =
      manager_.state(id) == scaling::ProcState::kInactive;
  ap::AdaptiveProcessor& ap = manager_.processor(id);

  RunResult result;
  result.config = ap.configure(program);
  for (const auto& [name, words] : inputs) {
    ap.feed(name, words);
  }
  if (was_inactive) manager_.activate(id);
  result.exec = ap.run(expected_per_output, max_cycles);
  for (const auto& [name, obj] : program.outputs) {
    (void)obj;
    result.outputs[name] = ap.output(name);
  }
  if (was_inactive) manager_.deactivate(id);
  return result;
}

std::string VlsiProcessor::render_layout() {
  std::string out;
  // Map regions to letters by processor id for stability. Built once per
  // render instead of scanning live_processors() for every cell.
  std::unordered_map<topology::RegionId, char> region_letter;
  for (const auto p : manager_.live_processors()) {
    region_letter.emplace(manager_.info(p).region,
                          static_cast<char>('A' + (p % 26)));
  }
  for (int y = 0; y < config_.height; ++y) {
    for (int x = 0; x < config_.width; ++x) {
      const auto cluster = fabric_.at({x, y, 0});
      char c = '.';
      if (manager_.is_defective(cluster)) {
        c = 'x';
      } else {
        const auto region = manager_.regions().owner(cluster);
        if (region != topology::kNoRegion) {
          // Quarantine regions are defective and already handled above;
          // a region without a live owner renders as '?'.
          const auto it = region_letter.find(region);
          c = it == region_letter.end() ? '?' : it->second;
        }
      }
      out += c;
    }
    out += '\n';
  }
  return out;
}

cost::ScalingRow VlsiProcessor::price_at(const cost::ProcessNode& node,
                                         double die_area_cm2) const {
  cost::ApComposition ap;
  ap.physical_objects = config_.cluster.physical_objects;
  ap.memory_objects = config_.cluster.memory_objects;
  return cost::evaluate_node(node, ap, die_area_cm2);
}

void VlsiProcessor::save(snapshot::Writer& w) const {
  w.section("core.chip");
  w.i32(config_.width);
  w.i32(config_.height);
  w.i32(config_.layers);
  w.i32(config_.cluster.physical_objects);
  w.i32(config_.cluster.memory_objects);
  w.i32(config_.cluster.system_objects);
  // DVS meter state rides in the header, gated on the chip's own config
  // so energy-off snapshots keep their pre-energy byte layout.
  if (config_.energy.enabled) {
    w.section("core.energy");
    w.u64(dvs_level_);
    w.u64(dvs_transitions_);
    w.vec_u64(std::vector<std::uint64_t>(anchor_.units.begin(),
                                         anchor_.units.end()));
    w.vec_u64(std::vector<std::uint64_t>(settled_.dynamic_fj.begin(),
                                         settled_.dynamic_fj.end()));
    w.u64(settled_.leakage_fj);
  }
  // Restore order matters: the region manager validates against the
  // fabric and the scaling manager re-instantiates APs whose nested
  // codecs assume the NoC is already in place.
  fabric_.save(w);
  noc_.save(w);
  manager_.save(w);
}

void VlsiProcessor::restore(snapshot::Reader& r) {
  r.section("core.chip");
  const bool geometry_ok =
      r.i32() == config_.width && r.i32() == config_.height &&
      r.i32() == config_.layers &&
      r.i32() == config_.cluster.physical_objects &&
      r.i32() == config_.cluster.memory_objects &&
      r.i32() == config_.cluster.system_objects;
  if (!geometry_ok) {
    throw snapshot::SnapshotError(
        "snapshot chip geometry mismatch (different ChipConfig?)");
  }
  if (config_.energy.enabled) {
    r.section("core.energy");
    const std::uint64_t level = r.u64();
    if (level >= energy_model_->levels()) {
      throw snapshot::SnapshotError("snapshot DVS level outside the ladder");
    }
    dvs_level_ = static_cast<std::size_t>(level);
    dvs_transitions_ = r.u64();
    const std::vector<std::uint64_t> anchor = r.vec_u64();
    const std::vector<std::uint64_t> dyn = r.vec_u64();
    if (anchor.size() != cost::kEnergyClassCount ||
        dyn.size() != cost::kEnergyClassCount) {
      throw snapshot::SnapshotError("snapshot energy vector mismatch");
    }
    anchor_ = {};
    settled_ = {};
    for (std::size_t i = 0; i < cost::kEnergyClassCount; ++i) {
      anchor_.units[i] = anchor[i];
      settled_.dynamic_fj[i] = dyn[i];
    }
    settled_.leakage_fj = r.u64();
  }
  fabric_.restore(r);
  noc_.restore(r);
  manager_.restore(r);
}

Status VlsiProcessor::save(snapshot::Snapshot& snap) const {
  try {
    snapshot::Writer w(snap);
    save(w);
    return Status::Ok();
  } catch (const std::logic_error& e) {
    return Status(StatusCode::kInvalidArgument, e.what());
  }
}

Status VlsiProcessor::restore(const snapshot::Snapshot& snap) {
  try {
    snapshot::Reader r(snap);
    restore(r);
    return Status::Ok();
  } catch (const snapshot::SnapshotError& e) {
    return Status(StatusCode::kCorruptSnapshot, e.what());
  } catch (const std::logic_error& e) {
    return Status(StatusCode::kInvalidArgument, e.what());
  }
}

namespace {

/// The chip probe's metric ids, interned once.
struct ChipMetricIds {
  obs::MetricId total_clusters = obs::metric_id("chip.total_clusters");
  obs::MetricId free_clusters = obs::metric_id("chip.free_clusters");
  obs::MetricId defective_clusters =
      obs::metric_id("chip.defective_clusters");
  obs::MetricId trace_events_dropped =
      obs::metric_id("chip.trace_events_dropped");
  obs::MetricId energy_total_fj = obs::metric_id("chip.energy.total_fj");
  obs::MetricId energy_dynamic_fj = obs::metric_id("chip.energy.dynamic_fj");
  obs::MetricId energy_leakage_fj = obs::metric_id("chip.energy.leakage_fj");
  obs::MetricId energy_dvs_level = obs::metric_id("chip.energy.dvs_level");
  obs::MetricId energy_dvs_transitions =
      obs::metric_id("chip.energy.dvs_transitions");
};

}  // namespace

void VlsiProcessor::export_obs(obs::MetricRegistry& registry) const {
  static const ChipMetricIds id;
  noc_.export_obs(registry);
  manager_.export_obs(registry);
  registry.gauge(id.total_clusters) = static_cast<double>(total_clusters());
  registry.gauge(id.free_clusters) = static_cast<double>(free_clusters());
  registry.gauge(id.defective_clusters) =
      static_cast<double>(defective_clusters());
  registry.counter(id.trace_events_dropped) += trace_.dropped();
  // Presence-gated: an energy-off chip emits no energy keys, keeping
  // pre-energy JSON reports byte-identical.
  if (config_.energy.enabled) {
    const cost::EnergyBreakdown b = energy_breakdown();
    registry.counter(id.energy_total_fj) += b.total_fj();
    registry.counter(id.energy_dynamic_fj) += b.dynamic_total_fj();
    registry.counter(id.energy_leakage_fj) += b.leakage_fj;
    registry.gauge(id.energy_dvs_level) = static_cast<double>(dvs_level_);
    registry.counter(id.energy_dvs_transitions) += dvs_transitions_;
  }
}

const cost::DvsPoint& VlsiProcessor::dvs_point() const {
  VLSIP_REQUIRE(energy_model_ != nullptr, "energy accounting is off");
  return energy_model_->point(dvs_level_);
}

void VlsiProcessor::set_dvs_level(std::size_t level) {
  VLSIP_REQUIRE(energy_model_ != nullptr, "energy accounting is off");
  VLSIP_REQUIRE(level < energy_model_->levels(),
                "DVS level outside the ladder");
  if (level == dvs_level_) return;
  // Settle everything run at the old level before switching prices.
  const cost::EnergyActivity act = energy_activity();
  settled_.add(energy_model_->price(act.since(anchor_), dvs_level_));
  anchor_ = act;
  dvs_level_ = level;
  ++dvs_transitions_;
}

cost::EnergyActivity VlsiProcessor::energy_activity() const {
  cost::EnergyActivity a;
  manager_.fold_energy(a);
  noc_.fold_energy(a);
  return a;
}

cost::EnergyBreakdown VlsiProcessor::energy_breakdown() const {
  // Energy-off chips meter nothing: a zero breakdown, not a throw, so
  // callers can read the meter unconditionally.
  if (energy_model_ == nullptr) return {};
  cost::EnergyBreakdown b = settled_;
  b.add(energy_model_->price(energy_activity().since(anchor_), dvs_level_));
  return b;
}

}  // namespace vlsip::core

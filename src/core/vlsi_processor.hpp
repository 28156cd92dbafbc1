// The VLSI processor: the whole-chip facade (the paper's headline
// system). One object owns the S-topology fabric, the router network,
// and the scaling manager, and exposes the dynamic-CMP workflow:
//
//   VlsiProcessor chip;                       // 8x8 clusters, all released
//   auto p = chip.fuse(4);                    // fuse 4 clusters -> one AP
//   chip.activate(p);
//   auto r = chip.run_program(p, program, {{"x", {...}}}, 1, 100000);
//   chip.release(p);                          // clusters return to the pool
//
// Fusing allocates clusters via wormhole-routed switch programming;
// the fused region is one adaptive processor whose capacity C is the sum
// of its clusters' stacks. The cost model (costmodel/) prices the same
// chip in mm² and GOPS.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ap/adaptive_processor.hpp"
#include "arch/datapath.hpp"
#include "core/status.hpp"
#include "costmodel/energy.hpp"
#include "costmodel/vlsi_model.hpp"
#include "noc/noc_fabric.hpp"
#include "obs/trace_sink.hpp"
#include "scaling/scaling_manager.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/region.hpp"
#include "topology/s_topology.hpp"

namespace vlsip::core {

struct ChipConfig {
  int width = 8;
  int height = 8;
  int layers = 1;  // 2 = die-stacked (fig. 6 d)
  topology::ClusterSpec cluster;
  noc::RouterConfig router;
  scaling::ScalingConfig scaling;
  bool enable_trace = false;
  /// Live energy/DVS accounting (costmodel/energy.hpp). Disabled by
  /// default: no model is constructed, no "core.energy" snapshot
  /// section is written, and export_obs emits no energy keys.
  cost::EnergySpec energy;
};

/// Outcome of configuring and executing one program on one processor.
struct RunResult {
  ap::ConfigStats config;
  ap::ExecStats exec;
  /// Output tokens by port name (raw 64-bit words).
  std::map<std::string, std::vector<arch::Word>> outputs;
};

class VlsiProcessor {
 public:
  explicit VlsiProcessor(ChipConfig config = {});

  // --- scaling workflow -------------------------------------------------

  /// Fuses `clusters` free clusters into one adaptive processor
  /// (serpentine-local placement). Returns scaling::kNoProc on failure.
  scaling::ProcId fuse(std::size_t clusters);

  /// Fuses an explicit path (arbitrary shapes / rings, figs. 4–5).
  scaling::ProcId fuse_path(const std::vector<topology::ClusterId>& path,
                            bool ring = false);

  /// Splits a processor, keeping `keep_clusters` (must be inactive).
  void split(scaling::ProcId id, std::size_t keep_clusters);

  // --- non-throwing facade (status.hpp) -----------------------------------
  //
  // The try_* family reports expected failures (no space, bad id,
  // illegal state) as Status instead of exceptions — the surface tools
  // and services program against. The throwing methods above remain for
  // code that treats failure as a bug.

  /// fuse() with the kNoProc sentinel lifted into a Status.
  StatusOr<scaling::ProcId> try_fuse(std::size_t clusters);
  Status try_split(scaling::ProcId id, std::size_t keep_clusters);

  void activate(scaling::ProcId id) { manager_.activate(id); }
  void deactivate(scaling::ProcId id) { manager_.deactivate(id); }
  void release(scaling::ProcId id) { manager_.release(id); }

  // --- execution ---------------------------------------------------------

  /// Configures `program` on processor `id` (activating it if inactive),
  /// feeds the given input streams, and runs until every output collected
  /// `expected_per_output` tokens or `max_cycles` elapse.
  RunResult run_program(
      scaling::ProcId id, const arch::Program& program,
      const std::map<std::string, std::vector<arch::Word>>& inputs,
      std::size_t expected_per_output, std::uint64_t max_cycles);

  // --- introspection ------------------------------------------------------

  topology::STopologyFabric& fabric() { return fabric_; }
  noc::NocFabric& noc() { return noc_; }
  scaling::ScalingManager& manager() { return manager_; }
  obs::TraceSink& trace() { return trace_; }

  /// Publishes the whole chip into `registry`: NoC fabric counters
  /// ("noc."), scaling/state-machine/AP-layer counters ("scaling.",
  /// "ap.") and chip-level cluster gauges ("chip.") — one call wires
  /// every layer below the runtime into the observability spine.
  void export_obs(obs::MetricRegistry& registry) const;

  std::size_t total_clusters() const { return fabric_.cluster_count(); }
  std::size_t free_clusters() const { return manager_.free_clusters(); }
  std::size_t defective_clusters() const {
    return manager_.defective_clusters();
  }

  /// Healthy clusters still in service (total minus quarantined).
  std::size_t healthy_clusters() const {
    return total_clusters() - defective_clusters();
  }

  /// Fault-recovery entry point: quarantines the cluster, releases any
  /// processor it belonged to, and re-fuses a same-size replacement
  /// from spares (compacting on fragmentation). See
  /// scaling::ScalingManager::refuse_around.
  scaling::ScalingManager::FaultRecovery heal(topology::ClusterId cluster) {
    return manager_.refuse_around(cluster);
  }

  // --- checkpoint/restore -------------------------------------------------

  /// Serialises the full chip state — fabric switch programming, NoC
  /// rings/flows, region table, every processor slot and its nested AP —
  /// into `w`. The trace ring and metric registries are telemetry and
  /// excluded (docs/SNAPSHOT.md). Deterministic: saving the same state
  /// twice yields byte-identical buffers.
  void save(snapshot::Writer& w) const;

  /// Restores a checkpoint into this chip. The chip must have been
  /// constructed with the same ChipConfig geometry (width/height/layers/
  /// cluster spec) as the saved one; mismatches throw
  /// snapshot::SnapshotError. NoC delivery callbacks
  /// (noc().set_on_deliver) are not serialised — re-install after
  /// restore if used.
  void restore(snapshot::Reader& r);

  /// Whole-buffer convenience forms: attach a Writer/Reader to `snap`
  /// and report failures (corrupt bytes, geometry mismatch) as Status
  /// instead of exceptions.
  Status save(snapshot::Snapshot& snap) const;
  Status restore(const snapshot::Snapshot& snap);

  /// Prices this chip's cluster inventory with the paper's cost model at
  /// a given process node (an AP tile = one cluster here).
  cost::ScalingRow price_at(const cost::ProcessNode& node,
                            double die_area_cm2 = 1.0) const;

  // --- energy / DVS (config_.energy.enabled) ------------------------------
  //
  // The meter is derived, not instrumented: energy_activity() folds the
  // serialized lifetime counters of every layer (manager -> live APs +
  // retired accumulator + worm/compaction; NoC flit totals), and the
  // EnergyModel prices them in integer femtojoules. The only state the
  // chip itself keeps is the DVS bookkeeping — the current ladder
  // level, energy settled at previously-held levels, and the activity
  // anchor where the current level took over — all serialized in the
  // "core.energy" header section so resume preserves governor state.

  bool energy_enabled() const { return config_.energy.enabled; }
  /// nullptr when energy accounting is off.
  const cost::EnergyModel* energy_model() const {
    return energy_model_ ? energy_model_.get() : nullptr;
  }
  std::size_t dvs_level() const { return dvs_level_; }
  std::uint64_t dvs_transitions() const { return dvs_transitions_; }
  /// The current operating point; requires energy accounting on.
  const cost::DvsPoint& dvs_point() const;

  /// Switches the chip to ladder index `level`: settles the activity
  /// accumulated so far at the old level's prices, re-anchors, and
  /// records the transition. No-op when `level` is already current.
  /// Throws PreconditionError when energy accounting is off or the
  /// level is outside the ladder.
  void set_dvs_level(std::size_t level);

  /// Folds the whole chip's lifetime activity (see class comment).
  cost::EnergyActivity energy_activity() const;

  /// Total energy so far: settled history plus activity since the
  /// anchor priced at the current level. Pure integer — bit-identical
  /// wherever the underlying counters are.
  cost::EnergyBreakdown energy_breakdown() const;
  std::uint64_t energy_total_fj() const {
    return energy_breakdown().total_fj();
  }

  /// ASCII map of the chip (layer 0): each cluster shows the processor
  /// that owns it ('A'..'Z' cycling), '.' when free, 'x' when
  /// quarantined defective — the fig. 4(c) conceptual layout, live.
  std::string render_layout();

 private:
  ChipConfig config_;
  obs::TraceSink trace_;
  topology::STopologyFabric fabric_;
  noc::NocFabric noc_;
  scaling::ScalingManager manager_;

  /// Energy/DVS meter state; engaged iff config_.energy.enabled.
  std::unique_ptr<cost::EnergyModel> energy_model_;
  std::size_t dvs_level_ = 0;
  std::uint64_t dvs_transitions_ = 0;
  /// Energy settled at previously-held DVS levels, and the activity
  /// snapshot where the current level took over.
  cost::EnergyBreakdown settled_;
  cost::EnergyActivity anchor_;
};

}  // namespace vlsip::core

// Scaling operations (paper §3.3–3.4): forming, up-/down-scaling and
// releasing adaptive processors on the S-topology via wormhole-routed
// switch programming, plus inter-processor communication and defect
// tolerance.
//
// Up-scaling "is simply to chain ... the segmented interconnection
// networks using programming switches"; the configuration travels as a
// wormhole worm that stores a reservation flag at each programmable
// switch so concurrent scalings cannot conflict over clusters. Execution
// hand-off between processors uses the inactive state: the preceding
// processor writes operands into the follower's memory block, then
// activates it (fig. 7 d).
//
// Released processors are recycled, not rebuilt. A release (or a fault
// release) folds the AP's metrics and energy into the retired totals,
// then keeps the AP on a spare list; the next fuse takes the most
// recently released spare and resets it to the new size
// (AdaptiveProcessor::reset equals construction but keeps the heap
// storage), so the first job on every processor configures on the warm
// path. Up-, down-scaling and a defect shrink reset the AP in place.
// A fuse builds a new AP only when the list is empty, so live plus
// spare APs never exceed the peak number of live processors, and the
// list holds at most that many. The list is host storage, not machine
// state: snapshots never see it, and a restore moves the replaced
// processors' APs onto it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ap/adaptive_processor.hpp"
#include "common/stats.hpp"
#include "noc/noc_fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "scaling/state_machine.hpp"
#include "topology/region.hpp"
#include "topology/s_topology.hpp"

namespace vlsip::snapshot {
class Writer;
class Reader;
}  // namespace vlsip::snapshot

namespace vlsip::scaling {

using ProcId = std::uint32_t;
inline constexpr ProcId kNoProc = 0xFFFFFFFFu;

/// One scaled adaptive processor: a region of fused clusters, its state
/// machine, and (once instantiated) its AP simulator.
struct ScaledProcessor {
  ProcId id = kNoProc;
  topology::RegionId region = topology::kNoRegion;
  ProcessorStateMachine fsm;
  std::unique_ptr<ap::AdaptiveProcessor> processor;
  /// Event flag for sleep-until-event synchronisation.
  bool event_pending = false;
};

struct ScalingStats {
  std::uint64_t allocations = 0;
  std::uint64_t releases = 0;
  std::uint64_t upscales = 0;
  std::uint64_t downscales = 0;
  std::uint64_t reservation_conflicts = 0;
  std::uint64_t config_packets = 0;
  std::uint64_t config_cycles = 0;  // NoC cycles spent on config worms
  std::uint64_t data_packets = 0;
  std::uint64_t defects_handled = 0;
  std::uint64_t relocations = 0;
  /// Fault recoveries that re-fused a replacement processor.
  std::uint64_t fault_refusals = 0;
  /// Processors driven release-ward by the fault path (fsm.fault()).
  std::uint64_t fault_releases = 0;
};

struct ScalingConfig {
  /// Template for per-processor AP simulators; capacity/memory_blocks
  /// are overridden from the cluster count.
  ap::ApConfig ap_template;
  /// Cluster the supervisor/configurator injects worms from.
  int configurator_x = 0;
  int configurator_y = 0;
  /// Ceiling for NoC draining during a configuration.
  std::uint64_t max_config_cycles = 100000;
};

class ScalingManager {
 public:
  ScalingManager(topology::STopologyFabric& fabric, noc::NocFabric& noc,
                 ScalingConfig config = {}, obs::TraceSink* trace = nullptr);

  // --- scaling ---------------------------------------------------------

  /// Allocates a processor over `clusters` clusters found in serpentine
  /// order (spatially local in-order placement, §3.3). Returns kNoProc
  /// if no contiguous free run exists or the wormhole configuration
  /// hits a reservation conflict.
  ProcId allocate(std::size_t clusters);

  /// Allocates over an explicit cluster path (arbitrary shapes, rings).
  ProcId allocate_path(const std::vector<topology::ClusterId>& path,
                       bool ring = false);

  /// Up-scale: extends the processor's region by `extra` clusters beyond
  /// its tail (serpentine-adjacent, reservation-checked). The processor
  /// must be inactive. Returns false if the extension is impossible.
  bool upscale(ProcId id, std::size_t extra);

  /// Down-scale: keeps the first `keep_clusters` clusters, releasing the
  /// rest (wormhole along the released tail, §3.4's unidirectional
  /// down-scaling). The processor must be inactive.
  void downscale(ProcId id, std::size_t keep_clusters);

  /// Releases the whole processor (state -> release, clusters freed).
  void release(ProcId id);

  // --- state machine / execution ---------------------------------------

  void activate(ProcId id);
  void deactivate(ProcId id);
  void sleep(ProcId id, std::optional<std::uint64_t> wake_at);
  /// Delivers an event to a sleeping processor (wakes it).
  void notify(ProcId id);
  /// Advances manager time; wakes timer-expired sleepers.
  void advance(std::uint64_t cycles);
  std::uint64_t now() const { return now_; }

  /// The AP simulator of a processor (instantiated at allocation;
  /// capacity = clusters x cluster stack capacity).
  ap::AdaptiveProcessor& processor(ProcId id);
  const ScaledProcessor& info(ProcId id) const;
  ProcState state(ProcId id) const;
  bool alive(ProcId id) const;
  std::size_t cluster_count(ProcId id) const;

  // --- inter-processor communication (fig. 7 d) ------------------------

  /// Writes `words` into the destination processor's memory block at
  /// `base_address`, carried by a data packet over the NoC from the
  /// source's head cluster. The destination must be inactive (its memory
  /// is writable by others only then). Returns the NoC cycles consumed.
  std::uint64_t send(ProcId from, ProcId to,
                     const std::vector<std::uint64_t>& words,
                     std::size_t base_address);

  /// send() followed by activation of the destination — the pipelined
  /// hand-off of fig. 7(d).
  std::uint64_t send_and_activate(ProcId from, ProcId to,
                                  const std::vector<std::uint64_t>& words,
                                  std::size_t base_address);

  // --- defect tolerance (§1) -------------------------------------------

  /// Marks a cluster permanently defective. If it is inside a live
  /// processor, the processor is split: clusters before the defect
  /// survive as the (shrunk) processor, the defect is quarantined, and
  /// clusters after it are freed for re-fusion. Returns the surviving
  /// processor id (kNoProc if the defect consumed the whole region).
  ProcId mark_defective(topology::ClusterId cluster);

  bool is_defective(topology::ClusterId cluster) const;

  /// Clusters quarantined as defective so far.
  std::size_t defective_clusters() const;

  /// What refuse_around() did to recover from a cluster fault.
  struct FaultRecovery {
    /// Processor the defect hit (kNoProc if the cluster was free). It
    /// has been driven through the fault path to release.
    ProcId victim = kNoProc;
    std::size_t victim_clusters = 0;
    /// Processor re-fused from spare clusters at the victim's size
    /// (kNoProc if the chip cannot host it even after compaction).
    ProcId replacement = kNoProc;
    /// True when fragmentation blocked the re-fuse and a compaction
    /// sweep was needed to coalesce the spares.
    bool compacted = false;
  };

  /// The full §3.3/§1 recovery path for a cluster fault, in one step:
  /// quarantines the cluster, drives any processor owning it through
  /// the release state (fsm.fault(), all its other clusters return to
  /// the pool), then re-fuses a replacement of the victim's original
  /// size from the spare clusters — compacting the chip first when
  /// fragmentation blocks the allocation. Unlike mark_defective(),
  /// which shrinks the victim in place, this models a supervisor that
  /// restarts the failed AP elsewhere. The caller owns the replacement
  /// (inactive, freshly fused). Faulting an already-quarantined
  /// cluster is a no-op.
  FaultRecovery refuse_around(topology::ClusterId cluster);

  // --- defragmentation --------------------------------------------------

  /// Compacts the chip: relocates *inactive* processors toward the
  /// serpentine origin so free clusters coalesce into contiguous runs
  /// (§5 contrasts the mesh, where a host must manage "placement,
  /// routing, replacement, and defragmentation" — on the S-topology the
  /// fold's linear order makes compaction a one-dimensional sweep).
  /// Active/sleeping processors and quarantined clusters stay in place.
  /// AP simulator state moves with the processor (logical objects are
  /// position-independent). Returns the number of processors relocated.
  std::size_t relocations() const { return stats_.relocations; }
  std::size_t compact();

  /// Released APs kept for the next fuse (see the file comment).
  std::size_t spare_processors() const { return spare_aps_.size(); }

  /// Longest contiguous free run in serpentine order — the largest
  /// processor allocate() can currently satisfy.
  std::size_t largest_free_run() const;

  const ScalingStats& stats() const { return stats_; }
  std::size_t free_clusters() const;
  /// Live processor ids, ascending (ids are never reused, so this is
  /// also fuse order).
  std::vector<ProcId> live_processors() const;
  topology::RegionManager& regions() { return regions_; }

  /// Publishes scaling counters, fuse/compaction wormhole durations,
  /// state-machine transition totals, and the AP-layer metrics of every
  /// processor — live ones plus the accumulated totals of simulators
  /// already released or reset — into `registry`. Scaling metrics go under
  /// "scaling."; AP-layer metrics keep their own "ap." prefix. Walks
  /// live processors only: released ones were folded in at release.
  void export_obs(obs::MetricRegistry& registry) const;

  /// Folds the scaling layer's lifetime activity into `a` (energy
  /// spine): worm programming and compaction from ScalingStats, every
  /// live processor's AP fold, plus the serialized accumulator of
  /// processors already released (retire_ap folds an AP's activity
  /// into retired_activity_ before its simulator is reset, so
  /// release/upscale/fault never lose energy history).
  void fold_energy(cost::EnergyActivity& a) const;

  /// Checkpoint codec: region table, the next processor id, the
  /// released processors' FSM totals, every live processor with its
  /// nested AP state, defect map, counters, wormhole timing stats and
  /// the retired-AP energy accumulator. retired_obs_ is telemetry and
  /// excluded (documented in docs/SNAPSHOT.md). restore rejects a live
  /// table no manager can produce (SnapshotError): ids out of order,
  /// duplicated or not below the next id, or a processor whose region
  /// is dead or another processor's.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  ScaledProcessor& proc_mut(ProcId id);
  const ScaledProcessor& proc(ProcId id) const;

  /// Reserves the switches along `path` for a tentative region; rolls
  /// back and returns false on conflict.
  bool reserve_path(const std::vector<topology::ClusterId>& path,
                    topology::RegionId owner);
  void clear_path_reservations(const std::vector<topology::ClusterId>& path);

  /// Sends the configuration worm: one kConfig packet per target cluster
  /// carrying the switch-programming words; drains the NoC and charges
  /// the cycles. Returns false if the NoC failed to drain.
  bool send_config_worm(const std::vector<topology::ClusterId>& path);

  /// The AP configuration of a processor over `clusters` clusters.
  ap::ApConfig ap_config(std::size_t clusters) const;
  /// A processor's AP: a spare reset to `clusters`, or a new one when
  /// no spare is left.
  std::unique_ptr<ap::AdaptiveProcessor> make_ap(std::size_t clusters);

  /// The live processor `id`, or null.
  ScaledProcessor* find(ProcId id);
  const ScaledProcessor* find(ProcId id) const;

  /// Retires a processor just released (release or fault path): folds
  /// its AP, adds its FSM counters to the released totals, and drops it
  /// from the live table. `p` dangles afterwards.
  void retire(ScaledProcessor& p);

  /// The live processor owning `region`, or kNoProc.
  ProcId owner_of(topology::RegionId region) const;

  /// Folds a processor's AP-layer lifetime counters into retired_obs_
  /// before its simulator is reset or kept as a spare — without this, every
  /// release/upscale/fault would silently discard the AP's history.
  void retire_ap(ScaledProcessor& p);

  topology::STopologyFabric& fabric_;
  noc::NocFabric& noc_;
  topology::RegionManager regions_;
  ScalingConfig config_;
  obs::TraceSink* trace_;
  /// The live processors, ascending by id — what every per-processor
  /// walk visits, so cost and checkpoint size track live processors,
  /// not the chip's age.
  std::vector<ScaledProcessor> procs_;
  /// The id the next fuse gets; ids are never reused.
  ProcId next_id_ = 0;
  /// FSM transition and fault totals of released processors.
  std::uint64_t released_transitions_ = 0;
  std::uint64_t released_fsm_faults_ = 0;
  std::vector<bool> defective_;
  ScalingStats stats_;
  std::uint64_t now_ = 0;
  /// Observability: NoC cycles per configuration worm (fuse/split/
  /// relocate) and per compaction sweep.
  RunningStats worm_cycles_;
  RunningStats compaction_cycles_;
  /// AP-layer metrics of simulators already reset; see retire_ap().
  obs::MetricRegistry retired_obs_;
  /// Released APs, most recently released last; make_ap() resets one
  /// instead of building a new one. Host storage only: never saved.
  std::vector<std::unique_ptr<ap::AdaptiveProcessor>> spare_aps_;
  /// Energy activity of simulators already reset. Unlike
  /// retired_obs_ this IS serialized: per-chip energy totals must
  /// survive checkpoint/resume bit-exactly, and a resumed chip cannot
  /// re-derive activity from APs that no longer exist.
  cost::EnergyActivity retired_activity_;
};

}  // namespace vlsip::scaling

#include "scaling/scaling_manager.hpp"

#include <algorithm>
#include <utility>

#include "common/require.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::scaling {

namespace {

/// Reservation tickets must not collide with real region ids.
constexpr topology::RegionId kTicketBase = 0x80000000u;

}  // namespace

ScalingManager::ScalingManager(topology::STopologyFabric& fabric,
                               noc::NocFabric& noc, ScalingConfig config,
                               obs::TraceSink* trace)
    : fabric_(fabric),
      noc_(noc),
      regions_(fabric),
      config_(config),
      trace_(trace),
      defective_(fabric.cluster_count(), false) {
  VLSIP_REQUIRE(noc.width() >= fabric.width() &&
                    noc.height() >= fabric.height(),
                "NoC must cover the cluster grid");
}

const ScaledProcessor* ScalingManager::find(ProcId id) const {
  const auto it = std::lower_bound(
      procs_.begin(), procs_.end(), id,
      [](const ScaledProcessor& p, ProcId key) { return p.id < key; });
  return it != procs_.end() && it->id == id ? &*it : nullptr;
}

ScaledProcessor* ScalingManager::find(ProcId id) {
  return const_cast<ScaledProcessor*>(std::as_const(*this).find(id));
}

ScaledProcessor& ScalingManager::proc_mut(ProcId id) {
  ScaledProcessor* p = find(id);
  VLSIP_REQUIRE(p != nullptr, "processor is not alive");
  return *p;
}

const ScaledProcessor& ScalingManager::proc(ProcId id) const {
  const ScaledProcessor* p = find(id);
  VLSIP_REQUIRE(p != nullptr, "processor is not alive");
  return *p;
}

bool ScalingManager::reserve_path(
    const std::vector<topology::ClusterId>& path, topology::RegionId owner) {
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (!fabric_.reserve(path[i - 1], path[i], owner)) {
      // Conflict: roll back what we reserved.
      for (std::size_t j = 1; j < i; ++j) {
        fabric_.clear_reservation(path[j - 1], path[j]);
      }
      ++stats_.reservation_conflicts;
      if (trace_) {
        trace_->event(now_, obs::Layer::kScaling, "scaling", -1,
                      "reservation conflict on link " +
                          std::to_string(path[i - 1]) + "-" +
                          std::to_string(path[i]));
      }
      return false;
    }
  }
  return true;
}

void ScalingManager::clear_path_reservations(
    const std::vector<topology::ClusterId>& path) {
  for (std::size_t i = 1; i < path.size(); ++i) {
    fabric_.clear_reservation(path[i - 1], path[i]);
  }
}

bool ScalingManager::send_config_worm(
    const std::vector<topology::ClusterId>& path) {
  // One configuration worm per target cluster: the head carries the
  // destination, the body carries the switch-programming words (one per
  // adjacent link). Worms originate at the configurator node (§3.3: the
  // preceding atomic block or a supervisor processor configures).
  const std::uint64_t start = noc_.now();
  for (const auto cluster : path) {
    const auto c = fabric_.coord(cluster);
    noc::Packet p;
    p.src_x = static_cast<std::uint16_t>(config_.configurator_x);
    p.src_y = static_cast<std::uint16_t>(config_.configurator_y);
    p.dst_x = static_cast<std::uint16_t>(c.x);
    p.dst_y = static_cast<std::uint16_t>(c.y);
    p.kind = noc::PacketKind::kConfig;
    p.payload = {static_cast<std::uint64_t>(cluster)};
    noc_.inject(p);
    ++stats_.config_packets;
  }
  const bool drained = noc_.run_until_drained(config_.max_config_cycles);
  stats_.config_cycles += noc_.now() - start;
  worm_cycles_.add(static_cast<double>(noc_.now() - start));
  return drained;
}

void ScalingManager::retire_ap(ScaledProcessor& p) {
  if (p.processor) {
    p.processor->export_obs(retired_obs_);
    p.processor->fold_energy(retired_activity_);
  }
}

void ScalingManager::retire(ScaledProcessor& p) {
  retire_ap(p);
  released_transitions_ += p.fsm.transitions();
  released_fsm_faults_ += p.fsm.faults();
  spare_aps_.push_back(std::move(p.processor));
  procs_.erase(procs_.begin() + (&p - procs_.data()));
}

ProcId ScalingManager::owner_of(topology::RegionId region) const {
  for (const ScaledProcessor& p : procs_) {
    if (p.region == region) return p.id;
  }
  return kNoProc;
}

std::vector<ProcId> ScalingManager::live_processors() const {
  std::vector<ProcId> ids;
  ids.reserve(procs_.size());
  for (const ScaledProcessor& p : procs_) ids.push_back(p.id);
  return ids;
}

ap::ApConfig ScalingManager::ap_config(std::size_t clusters) const {
  ap::ApConfig cfg = config_.ap_template;
  cfg.capacity = static_cast<int>(clusters) *
                 fabric_.cluster_spec().stack_capacity();
  cfg.memory_blocks = static_cast<int>(clusters) *
                      fabric_.cluster_spec().memory_objects;
  return cfg;
}

std::unique_ptr<ap::AdaptiveProcessor> ScalingManager::make_ap(
    std::size_t clusters) {
  if (spare_aps_.empty()) {
    return std::make_unique<ap::AdaptiveProcessor>(ap_config(clusters));
  }
  std::unique_ptr<ap::AdaptiveProcessor> processor =
      std::move(spare_aps_.back());
  spare_aps_.pop_back();
  processor->reset(ap_config(clusters));
  return processor;
}

ProcId ScalingManager::allocate(std::size_t clusters) {
  const auto path = regions_.find_serpentine_run(clusters);
  if (path.empty()) return kNoProc;
  return allocate_path(path, /*ring=*/false);
}

ProcId ScalingManager::allocate_path(
    const std::vector<topology::ClusterId>& path, bool ring) {
  if (!regions_.can_form(path)) return kNoProc;
  for (const auto c : path) {
    if (defective_[c]) return kNoProc;
  }
  const auto ticket = kTicketBase + next_id_;
  if (!reserve_path(path, ticket)) return kNoProc;
  if (!send_config_worm(path)) {
    clear_path_reservations(path);
    return kNoProc;
  }
  const auto region = regions_.form(path, ring);
  clear_path_reservations(path);

  const ProcId id = next_id_++;
  ScaledProcessor& p = procs_.emplace_back();  // ids only grow: stays sorted
  p.id = id;
  p.region = region;
  p.fsm.allocate();  // release -> inactive
  p.processor = make_ap(path.size());
  ++stats_.allocations;
  if (trace_) {
    trace_->event(now_, obs::Layer::kScaling, "scaling",
                  static_cast<std::int64_t>(id),
                  "allocated processor " + std::to_string(id) + " over " +
                      std::to_string(path.size()) + " clusters");
  }
  return id;
}

bool ScalingManager::upscale(ProcId id, std::size_t extra) {
  ScaledProcessor& p = proc_mut(id);
  VLSIP_REQUIRE(p.fsm.state() == ProcState::kInactive,
                "up-scaling requires the inactive state");
  VLSIP_REQUIRE(extra >= 1, "up-scale by at least one cluster");
  const auto& region = regions_.region(p.region);
  VLSIP_REQUIRE(!region.ring, "cannot extend a ring");

  // Build the extension greedily: prefer the serpentine successor of the
  // tail, falling back to any free non-defective neighbour.
  std::vector<topology::ClusterId> extension;
  topology::ClusterId tail = region.path.back();
  std::vector<bool> tentative(fabric_.cluster_count(), false);
  for (std::size_t k = 0; k < extra; ++k) {
    const std::size_t tail_serp = fabric_.serpentine_index(tail);
    topology::ClusterId best = topology::kNoCluster;
    std::size_t best_serp = 0;
    for (const auto n : fabric_.neighbors(tail)) {
      if (defective_[n] || tentative[n]) continue;
      if (regions_.owner(n) != topology::kNoRegion) continue;
      const std::size_t s = fabric_.serpentine_index(n);
      if (s == tail_serp + 1) {
        best = n;
        break;
      }
      if (best == topology::kNoCluster || s < best_serp) {
        best = n;
        best_serp = s;
      }
    }
    if (best == topology::kNoCluster) return false;
    extension.push_back(best);
    tentative[best] = true;
    tail = best;
  }

  // Reserve the new links (tail joint + extension body), worm, extend.
  std::vector<topology::ClusterId> worm_path;
  worm_path.push_back(region.path.back());
  worm_path.insert(worm_path.end(), extension.begin(), extension.end());
  const auto ticket = kTicketBase + id;
  if (!reserve_path(worm_path, ticket)) return false;
  if (!send_config_worm(worm_path)) {
    clear_path_reservations(worm_path);
    return false;
  }
  for (const auto c : extension) regions_.extend(p.region, c);
  clear_path_reservations(worm_path);

  // Scaling changes C: reset the AP simulator to the new size (any
  // configured datapath must be reconfigured, as a real AP would
  // re-request its objects over the grown stack).
  retire_ap(p);
  p.processor->reset(ap_config(regions_.region(p.region).cluster_count()));
  ++stats_.upscales;
  if (trace_) {
    trace_->event(now_, obs::Layer::kScaling, "scaling",
                  static_cast<std::int64_t>(id),
                  "up-scaled processor " + std::to_string(id) + " by " +
                      std::to_string(extra) + " clusters");
  }
  return true;
}

void ScalingManager::downscale(ProcId id, std::size_t keep_clusters) {
  ScaledProcessor& p = proc_mut(id);
  VLSIP_REQUIRE(p.fsm.state() == ProcState::kInactive,
                "down-scaling requires the inactive state");
  VLSIP_REQUIRE(keep_clusters >= 1, "keep at least one cluster");
  const auto& region = regions_.region(p.region);
  VLSIP_REQUIRE(keep_clusters <= region.cluster_count(),
                "cannot keep more clusters than the region has");
  if (keep_clusters == region.cluster_count()) return;

  // The release worm travels the freed tail (§3.4: down-scaling uses
  // wormhole routing along the unidirectional path).
  std::vector<topology::ClusterId> tail(
      region.path.begin() + static_cast<std::ptrdiff_t>(keep_clusters) - 1,
      region.path.end());
  send_config_worm(tail);
  regions_.shrink(p.region, keep_clusters - 1);
  retire_ap(p);
  p.processor->reset(ap_config(keep_clusters));
  ++stats_.downscales;
  if (trace_) {
    trace_->event(now_, obs::Layer::kScaling, "scaling",
                  static_cast<std::int64_t>(id),
                  "down-scaled processor " + std::to_string(id) + " to " +
                      std::to_string(keep_clusters) + " clusters");
  }
}

void ScalingManager::release(ProcId id) {
  ScaledProcessor& p = proc_mut(id);
  if (p.fsm.state() == ProcState::kSleep) p.fsm.wake();
  p.fsm.release();
  regions_.dissolve(p.region);
  retire(p);
  ++stats_.releases;
}

void ScalingManager::activate(ProcId id) {
  proc_mut(id).fsm.activate();
}

void ScalingManager::deactivate(ProcId id) {
  proc_mut(id).fsm.deactivate();
}

void ScalingManager::sleep(ProcId id, std::optional<std::uint64_t> wake_at) {
  proc_mut(id).fsm.sleep(wake_at);
}

void ScalingManager::notify(ProcId id) {
  ScaledProcessor& p = proc_mut(id);
  VLSIP_REQUIRE(p.fsm.state() == ProcState::kSleep,
                "notify targets a sleeping processor");
  p.event_pending = true;
  p.fsm.wake();
  p.event_pending = false;
}

void ScalingManager::advance(std::uint64_t cycles) {
  now_ += cycles;
  for (ScaledProcessor& p : procs_) {
    if (p.fsm.timer_expired(now_)) p.fsm.wake();
  }
}

ap::AdaptiveProcessor& ScalingManager::processor(ProcId id) {
  return *proc_mut(id).processor;
}

const ScaledProcessor& ScalingManager::info(ProcId id) const {
  return proc(id);
}

ProcState ScalingManager::state(ProcId id) const {
  return proc(id).fsm.state();
}

bool ScalingManager::alive(ProcId id) const { return find(id) != nullptr; }

std::size_t ScalingManager::cluster_count(ProcId id) const {
  return regions_.region(proc(id).region).cluster_count();
}

std::uint64_t ScalingManager::send(ProcId from, ProcId to,
                                   const std::vector<std::uint64_t>& words,
                                   std::size_t base_address) {
  const ScaledProcessor& src = proc(from);
  ScaledProcessor& dst = proc_mut(to);
  VLSIP_REQUIRE(dst.fsm.accepts_external_writes(),
                "destination must be inactive to accept external writes");
  const auto src_head = regions_.region(src.region).path.front();
  const auto dst_head = regions_.region(dst.region).path.front();
  const auto sc = fabric_.coord(src_head);
  const auto dc = fabric_.coord(dst_head);

  noc::Packet p;
  p.src_x = static_cast<std::uint16_t>(sc.x);
  p.src_y = static_cast<std::uint16_t>(sc.y);
  p.dst_x = static_cast<std::uint16_t>(dc.x);
  p.dst_y = static_cast<std::uint16_t>(dc.y);
  p.kind = noc::PacketKind::kData;
  p.payload = words;
  const std::uint64_t start = noc_.now();
  noc_.inject(p);
  ++stats_.data_packets;
  const bool drained = noc_.run_until_drained(config_.max_config_cycles);
  VLSIP_INVARIANT(drained, "NoC failed to drain a data packet");
  // Spill the payload into the follower's memory block (fig. 7 d: "the
  // preceding processor accesses and writes data to the memory block of
  // the following processor").
  for (std::size_t i = 0; i < words.size(); ++i) {
    dst.processor->memory().write(base_address + i,
                                  arch::make_word_u(words[i]));
  }
  return noc_.now() - start;
}

std::uint64_t ScalingManager::send_and_activate(
    ProcId from, ProcId to, const std::vector<std::uint64_t>& words,
    std::size_t base_address) {
  const std::uint64_t cycles = send(from, to, words, base_address);
  activate(to);
  return cycles;
}

ProcId ScalingManager::mark_defective(topology::ClusterId cluster) {
  VLSIP_REQUIRE(cluster < fabric_.cluster_count(), "cluster out of range");
  if (defective_[cluster]) return kNoProc;
  defective_[cluster] = true;
  ++stats_.defects_handled;

  const auto owner = regions_.owner(cluster);
  if (owner == topology::kNoRegion) {
    // Free cluster: quarantine it so allocation can never touch it.
    regions_.form({cluster});
    return kNoProc;
  }

  // Find the processor owning this region (quarantine regions have no
  // processor and are already defective-marked, so they cannot be hit).
  const ProcId victim = owner_of(owner);
  VLSIP_INVARIANT(victim != kNoProc, "region without a processor failed");
  ScaledProcessor& p = proc_mut(victim);

  // Quiesce to inactive so the split is legal.
  if (p.fsm.state() == ProcState::kSleep) p.fsm.wake();
  if (p.fsm.state() == ProcState::kActive) p.fsm.deactivate();

  const auto& path = regions_.region(p.region).path;
  const auto it = std::find(path.begin(), path.end(), cluster);
  VLSIP_INVARIANT(it != path.end(), "owner region does not contain cluster");
  const auto k = static_cast<std::size_t>(it - path.begin());

  if (k == 0) {
    // The defect took the head: the whole processor is lost (§1: "the
    // failing AP can be removed from the system").
    release(victim);
    regions_.form({cluster});
    if (trace_) {
      trace_->event(now_, obs::Layer::kScaling, "scaling",
                    static_cast<std::int64_t>(victim),
                    "defect destroyed processor " + std::to_string(victim));
    }
    return kNoProc;
  }

  // Survive with clusters [0, k); free [k, end) and quarantine the
  // defect.
  regions_.shrink(p.region, k - 1);
  regions_.form({cluster});
  retire_ap(p);
  p.processor->reset(ap_config(k));
  if (trace_) {
    trace_->event(now_, obs::Layer::kScaling, "scaling",
                  static_cast<std::int64_t>(victim),
                  "defect shrank processor " + std::to_string(victim) +
                      " to " + std::to_string(k) + " clusters");
  }
  return victim;
}

bool ScalingManager::is_defective(topology::ClusterId cluster) const {
  VLSIP_REQUIRE(cluster < fabric_.cluster_count(), "cluster out of range");
  return defective_[cluster];
}

std::size_t ScalingManager::defective_clusters() const {
  return static_cast<std::size_t>(
      std::count(defective_.begin(), defective_.end(), true));
}

ScalingManager::FaultRecovery ScalingManager::refuse_around(
    topology::ClusterId cluster) {
  VLSIP_REQUIRE(cluster < fabric_.cluster_count(), "cluster out of range");
  FaultRecovery recovery;
  if (defective_[cluster]) return recovery;  // already quarantined

  // Find the live processor owning the cluster, if any. Quarantine
  // regions cover only defective clusters, so an owner here is always a
  // real processor's region.
  const auto owner = regions_.owner(cluster);
  if (owner != topology::kNoRegion) {
    recovery.victim = owner_of(owner);
    VLSIP_INVARIANT(recovery.victim != kNoProc,
                    "owned cluster without a live processor");
  }

  defective_[cluster] = true;
  ++stats_.defects_handled;

  if (recovery.victim != kNoProc) {
    // Drive the victim through the fault path: whatever state it is
    // in, the region dissolves and its healthy clusters rejoin the
    // spare pool.
    ScaledProcessor& p = proc_mut(recovery.victim);
    recovery.victim_clusters = regions_.region(p.region).cluster_count();
    p.fsm.fault();
    regions_.dissolve(p.region);
    retire(p);
    ++stats_.releases;
    ++stats_.fault_releases;
    if (trace_) {
      trace_->event(now_, obs::Layer::kScaling, "scaling",
                    static_cast<std::int64_t>(recovery.victim),
                    "fault released processor " +
                        std::to_string(recovery.victim) + " (" +
                        std::to_string(recovery.victim_clusters) +
                        " clusters)");
    }
  }

  // Quarantine the defect so no future allocation touches it.
  regions_.form({cluster});

  if (recovery.victim_clusters > 0) {
    recovery.replacement = allocate(recovery.victim_clusters);
    if (recovery.replacement == kNoProc && compact() > 0) {
      recovery.compacted = true;
      recovery.replacement = allocate(recovery.victim_clusters);
    }
    if (recovery.replacement != kNoProc) {
      ++stats_.fault_refusals;
      if (trace_) {
        trace_->event(now_, obs::Layer::kScaling, "scaling",
                      static_cast<std::int64_t>(recovery.replacement),
                      "re-fused replacement processor " +
                          std::to_string(recovery.replacement) +
                          " around defective cluster " +
                          std::to_string(cluster));
      }
    }
  }
  return recovery;
}

std::size_t ScalingManager::largest_free_run() const {
  std::size_t best = 0;
  std::size_t run = 0;
  for (std::size_t i = 0; i < fabric_.cluster_count(); ++i) {
    const auto c = fabric_.serpentine_at(i);
    if (regions_.owner(c) == topology::kNoRegion && !defective_[c]) {
      best = std::max(best, ++run);
    } else {
      run = 0;
    }
  }
  return best;
}

std::size_t ScalingManager::compact() {
  const std::uint64_t sweep_start = noc_.now();
  // Order live processors by the serpentine index of their head.
  struct Item {
    ProcId id;
    std::size_t head_serp;
  };
  std::vector<Item> order;
  order.reserve(procs_.size());
  for (const ScaledProcessor& p : procs_) {
    const auto& path = regions_.region(p.region).path;
    std::size_t head = fabric_.cluster_count();
    for (const auto c : path) {
      head = std::min(head, fabric_.serpentine_index(c));
    }
    order.push_back(Item{p.id, head});
  }
  std::sort(order.begin(), order.end(),
            [](const Item& a, const Item& b) {
              return a.head_serp < b.head_serp;
            });

  std::size_t moved = 0;
  std::size_t cursor = 0;  // earliest serpentine slot still assignable
  for (const auto& item : order) {
    ScaledProcessor& p = proc_mut(item.id);
    const auto old_path = regions_.region(p.region).path;
    const std::size_t n = old_path.size();
    if (p.fsm.state() != ProcState::kInactive ||
        regions_.region(p.region).ring) {
      // Immovable: it becomes an obstacle; advance the cursor past its
      // highest occupied slot so later processors pack behind it.
      for (const auto c : old_path) {
        cursor = std::max(cursor, fabric_.serpentine_index(c) + 1);
      }
      continue;
    }
    // Find the earliest contiguous run of n slots starting at or after
    // the cursor where every cluster is free or our own.
    std::size_t start = cursor;
    std::size_t found = fabric_.cluster_count();
    std::size_t run = 0;
    for (std::size_t i = cursor; i < fabric_.cluster_count(); ++i) {
      const auto c = fabric_.serpentine_at(i);
      const auto owner = regions_.owner(c);
      const bool usable =
          !defective_[c] &&
          (owner == topology::kNoRegion || owner == p.region);
      if (usable) {
        if (run == 0) start = i;
        if (++run == n) {
          found = start;
          break;
        }
      } else {
        run = 0;
      }
    }
    if (found == fabric_.cluster_count()) {
      // No run (should not happen — its own slots always qualify);
      // leave in place.
      for (const auto c : old_path) {
        cursor = std::max(cursor, fabric_.serpentine_index(c) + 1);
      }
      continue;
    }
    // Already packed? Just advance the cursor.
    std::vector<topology::ClusterId> new_path;
    new_path.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      new_path.push_back(fabric_.serpentine_at(found + i));
    }
    cursor = found + n;
    if (new_path == old_path) continue;

    // Relocate: tear down the old region, worm-program the new one,
    // and move the AP simulator across untouched.
    regions_.dissolve(p.region);
    if (!regions_.can_form(new_path)) {
      // Roll back (cannot occur given the scan above; defensive).
      p.region = regions_.form(old_path);
      continue;
    }
    send_config_worm(new_path);
    p.region = regions_.form(new_path);
    ++moved;
    ++stats_.relocations;
    if (trace_) {
      trace_->event(now_, obs::Layer::kScaling, "scaling",
                    static_cast<std::int64_t>(item.id),
                    "relocated processor " + std::to_string(item.id) +
                        " to serpentine slot " + std::to_string(found));
    }
  }
  compaction_cycles_.add(static_cast<double>(noc_.now() - sweep_start));
  return moved;
}

std::size_t ScalingManager::free_clusters() const {
  return regions_.free_clusters();
}

namespace {

/// The scaling probe's metric ids, interned once.
struct ScalingMetricIds {
  obs::MetricId allocations = obs::metric_id("scaling.allocations");
  obs::MetricId releases = obs::metric_id("scaling.releases");
  obs::MetricId upscales = obs::metric_id("scaling.upscales");
  obs::MetricId downscales = obs::metric_id("scaling.downscales");
  obs::MetricId reservation_conflicts =
      obs::metric_id("scaling.reservation_conflicts");
  obs::MetricId config_packets = obs::metric_id("scaling.config_packets");
  obs::MetricId config_cycles = obs::metric_id("scaling.config_cycles");
  obs::MetricId data_packets = obs::metric_id("scaling.data_packets");
  obs::MetricId defects_handled = obs::metric_id("scaling.defects_handled");
  obs::MetricId relocations = obs::metric_id("scaling.relocations");
  obs::MetricId fault_refusals = obs::metric_id("scaling.fault_refusals");
  obs::MetricId fault_releases = obs::metric_id("scaling.fault_releases");
  obs::MetricId fsm_transitions = obs::metric_id("scaling.fsm_transitions");
  obs::MetricId fsm_faults = obs::metric_id("scaling.fsm_faults");
  obs::MetricId live_processors = obs::metric_id("scaling.live_processors");
  obs::MetricId free_clusters = obs::metric_id("scaling.free_clusters");
  obs::MetricId largest_free_run = obs::metric_id("scaling.largest_free_run");
  obs::MetricId config_worms = obs::metric_id("scaling.config_worms");
  obs::MetricId worm_cycles_mean = obs::metric_id("scaling.worm_cycles_mean");
  obs::MetricId worm_cycles_max = obs::metric_id("scaling.worm_cycles_max");
  obs::MetricId compaction_sweeps =
      obs::metric_id("scaling.compaction_sweeps");
  obs::MetricId compaction_cycles_mean =
      obs::metric_id("scaling.compaction_cycles_mean");
  obs::MetricId compaction_cycles_max =
      obs::metric_id("scaling.compaction_cycles_max");
};

}  // namespace

void ScalingManager::export_obs(obs::MetricRegistry& registry) const {
  static const ScalingMetricIds id;
  registry.counter(id.allocations) += stats_.allocations;
  registry.counter(id.releases) += stats_.releases;
  registry.counter(id.upscales) += stats_.upscales;
  registry.counter(id.downscales) += stats_.downscales;
  registry.counter(id.reservation_conflicts) += stats_.reservation_conflicts;
  registry.counter(id.config_packets) += stats_.config_packets;
  registry.counter(id.config_cycles) += stats_.config_cycles;
  registry.counter(id.data_packets) += stats_.data_packets;
  registry.counter(id.defects_handled) += stats_.defects_handled;
  registry.counter(id.relocations) += stats_.relocations;
  registry.counter(id.fault_refusals) += stats_.fault_refusals;
  registry.counter(id.fault_releases) += stats_.fault_releases;

  // State-machine transition totals across every processor the manager
  // ever fused: released ones were totalled at release.
  std::uint64_t transitions = released_transitions_;
  std::uint64_t fsm_faults = released_fsm_faults_;
  for (const ScaledProcessor& p : procs_) {
    transitions += p.fsm.transitions();
    fsm_faults += p.fsm.faults();
  }
  registry.counter(id.fsm_transitions) += transitions;
  registry.counter(id.fsm_faults) += fsm_faults;
  registry.gauge(id.live_processors) = static_cast<double>(procs_.size());
  registry.gauge(id.free_clusters) = static_cast<double>(free_clusters());
  registry.gauge(id.largest_free_run) =
      static_cast<double>(largest_free_run());

  // Wormhole / compaction durations (NoC cycles per operation).
  if (worm_cycles_.count() > 0) {
    registry.counter(id.config_worms) += worm_cycles_.count();
    registry.gauge(id.worm_cycles_mean) = worm_cycles_.mean();
    registry.gauge(id.worm_cycles_max) = worm_cycles_.max();
  }
  if (compaction_cycles_.count() > 0) {
    registry.counter(id.compaction_sweeps) += compaction_cycles_.count();
    registry.gauge(id.compaction_cycles_mean) = compaction_cycles_.mean();
    registry.gauge(id.compaction_cycles_max) = compaction_cycles_.max();
  }

  // AP-layer metrics: live simulators accumulate directly, torn-down
  // ones were folded into retired_obs_ by retire_ap().
  for (const ScaledProcessor& p : procs_) p.processor->export_obs(registry);
  registry.merge(retired_obs_);
}

namespace {

void save_running_stats(snapshot::Writer& w, const RunningStats& s) {
  const RunningStats::Raw raw = s.raw();
  w.u64(raw.n);
  w.f64(raw.mean);
  w.f64(raw.m2);
  w.f64(raw.min);
  w.f64(raw.max);
}

void restore_running_stats(snapshot::Reader& r, RunningStats& s) {
  RunningStats::Raw raw;
  raw.n = static_cast<std::size_t>(r.u64());
  raw.mean = r.f64();
  raw.m2 = r.f64();
  raw.min = r.f64();
  raw.max = r.f64();
  s.set_raw(raw);
}

}  // namespace

void ScalingManager::save(snapshot::Writer& w) const {
  w.section("scaling.manager");
  regions_.save(w);
  w.u32(next_id_);
  w.u64(released_transitions_);
  w.u64(released_fsm_faults_);
  w.u64(procs_.size());
  for (const auto& p : procs_) {
    w.u32(p.id);
    w.u32(p.region);
    w.u8(static_cast<std::uint8_t>(p.fsm.state()));
    w.b(p.fsm.read_protected());
    w.b(p.fsm.write_protected());
    w.b(p.fsm.wake_at().has_value());
    w.u64(p.fsm.wake_at().value_or(0));
    w.u64(p.fsm.transitions());
    w.u64(p.fsm.faults());
    w.b(p.event_pending);
    // Cluster count the AP was built from (memory blocks never shrink,
    // unlike capacity, so they recover the original size).
    const auto clusters = static_cast<std::uint64_t>(
        p.processor->config().memory_blocks /
        fabric_.cluster_spec().memory_objects);
    w.u64(clusters);
    p.processor->save(w);
  }
  std::vector<std::uint8_t> defects(defective_.size());
  for (std::size_t i = 0; i < defective_.size(); ++i) {
    defects[i] = defective_[i] ? 1 : 0;
  }
  w.vec_u8(defects);
  w.u64(stats_.allocations);
  w.u64(stats_.releases);
  w.u64(stats_.upscales);
  w.u64(stats_.downscales);
  w.u64(stats_.reservation_conflicts);
  w.u64(stats_.config_packets);
  w.u64(stats_.config_cycles);
  w.u64(stats_.data_packets);
  w.u64(stats_.defects_handled);
  w.u64(stats_.relocations);
  w.u64(stats_.fault_refusals);
  w.u64(stats_.fault_releases);
  w.u64(now_);
  save_running_stats(w, worm_cycles_);
  save_running_stats(w, compaction_cycles_);
  w.vec_u64(std::vector<std::uint64_t>(retired_activity_.units.begin(),
                                       retired_activity_.units.end()));
}

void ScalingManager::restore(snapshot::Reader& r) {
  r.section("scaling.manager");
  regions_.restore(r);
  for (ScaledProcessor& p : procs_) {
    spare_aps_.push_back(std::move(p.processor));
  }
  procs_.clear();
  next_id_ = r.u32();
  released_transitions_ = r.u64();
  released_fsm_faults_ = r.u64();
  const std::uint64_t n_procs = r.count(45);
  procs_.reserve(static_cast<std::size_t>(n_procs));
  for (std::uint64_t i = 0; i < n_procs; ++i) {
    ScaledProcessor p;
    p.id = r.u32();
    p.region = r.u32();
    const std::string at = "live processor " + std::to_string(i);
    if (p.id >= next_id_ || (!procs_.empty() && p.id <= procs_.back().id)) {
      throw snapshot::SnapshotError(
          at + " has id " + std::to_string(p.id) +
          ": ids must ascend strictly below the next id " +
          std::to_string(next_id_));
    }
    if (!regions_.alive(p.region) || owner_of(p.region) != kNoProc) {
      throw snapshot::SnapshotError(
          at + " names region " + std::to_string(p.region) +
          ", which is dead or another processor's");
    }
    const auto state = static_cast<ProcState>(r.u8());
    const bool read_protected = r.b();
    const bool write_protected = r.b();
    const bool has_wake = r.b();
    const std::uint64_t wake_at = r.u64();
    const std::uint64_t transitions = r.u64();
    const std::uint64_t faults = r.u64();
    p.fsm.restore_state(state, read_protected, write_protected,
                        has_wake ? std::optional<std::uint64_t>(wake_at)
                                 : std::nullopt,
                        transitions, faults);
    p.event_pending = r.b();
    const std::uint64_t clusters = r.u64();
    p.processor = make_ap(static_cast<std::size_t>(clusters));
    p.processor->restore(r);
    // Only a processor whose AP restored joins the table, so a
    // snapshot that throws mid-record leaves every live walk safe.
    procs_.push_back(std::move(p));
  }
  const std::vector<std::uint8_t> defects = r.vec_u8();
  VLSIP_REQUIRE(defects.size() == defective_.size(),
                "snapshot defect map mismatch");
  for (std::size_t i = 0; i < defects.size(); ++i) {
    defective_[i] = defects[i] != 0;
  }
  stats_.allocations = r.u64();
  stats_.releases = r.u64();
  stats_.upscales = r.u64();
  stats_.downscales = r.u64();
  stats_.reservation_conflicts = r.u64();
  stats_.config_packets = r.u64();
  stats_.config_cycles = r.u64();
  stats_.data_packets = r.u64();
  stats_.defects_handled = r.u64();
  stats_.relocations = r.u64();
  stats_.fault_refusals = r.u64();
  stats_.fault_releases = r.u64();
  now_ = r.u64();
  restore_running_stats(r, worm_cycles_);
  restore_running_stats(r, compaction_cycles_);
  const std::vector<std::uint64_t> retired = r.vec_u64();
  VLSIP_REQUIRE(retired.size() == cost::kEnergyClassCount,
                "snapshot retired-energy vector mismatch");
  retired_activity_ = {};
  for (std::size_t i = 0; i < retired.size(); ++i) {
    retired_activity_.units[i] = retired[i];
  }
}

void ScalingManager::fold_energy(cost::EnergyActivity& a) const {
  a.add(retired_activity_);
  for (const ScaledProcessor& p : procs_) p.processor->fold_energy(a);
  a.units[cost::kEnergyWormHop] += stats_.config_packets;
  a.units[cost::kEnergyRelocation] +=
      stats_.relocations + stats_.defects_handled;
}

}  // namespace vlsip::scaling

// EnergyModel — the λ² cost model gone live (ROADMAP item 5).
//
// The offline half of src/costmodel/ prices *area*: λ²-normalised
// module inventories (Tables 1–3) times a technology node. This header
// adds the *energy* half: every unit of work the cycle engine already
// counts — an ALU firing, a flit-hop, a CSD handshake cycle, a config
// worm hop — maps to an activity class, and each class carries an
// integer femtojoule price derived from its λ² area at the chosen node
// (switched capacitance ∝ area, E = C·V²) plus a leakage price per
// idle cycle.
//
// Two design rules make the accounting free and exact:
//
//  1. Activity is derived, not instrumented. An EnergyActivity vector
//     is folded *from the serialized lifetime counters* each layer
//     already maintains (ExecStats, CSD grant/handshake counters, NoC
//     flit totals, ScalingStats) — never from engine-private telemetry
//     (wakes, quiescence skips). The hot paths gain zero instructions;
//     determinism across dense / event-driven / forced-scalar engines
//     and across checkpoint/resume is inherited from the counters the
//     100-seed differential wall already pins.
//
//  2. Prices are integers. The per-(class, DVS level) fJ tables are
//     rounded once at model construction; pricing an activity vector
//     is pure u64 multiply-accumulate, so energy totals are
//     bit-deterministic wherever the counters are.
//
// DVS: an operating point is a (frequency %, voltage %) pair of
// nominal. Dynamic energy scales with V² (f cancels per *event*: fewer
// joules per second but the same events happen); leakage per cycle
// scales with V·(1/f) — a slower clock leaks longer per cycle. See
// docs/ENERGY.md for the derivation and the governor built on top.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "costmodel/technology.hpp"

namespace vlsip::cost {

/// Activity classes. Each maps to an existing serialized lifetime
/// counter somewhere in the stack (the fold_energy() methods name the
/// exact sources).
enum EnergyClass : std::size_t {
  kEnergyIntOp = 0,     // executor integer ALU/shift/mul firings
  kEnergyFloatOp,       // executor FPU firings
  kEnergyMemOp,         // memory-block load/store firings
  kEnergyTransportOp,   // transport firings + tokens moved on chains
  kEnergyConfigCycle,   // configuration-pipeline cycles (incl. faults)
  kEnergyActiveCycle,   // executor cycles with work (clock tree, WSRF)
  kEnergyIdleCycle,     // executor idle cycles — leakage only
  kEnergyNocFlit,       // NoC flit-hops moved between routers
  kEnergyNocDelivery,   // NoC packets ejected at their sink
  kEnergyCsdHandshake,  // CSD handshake cycles (2·span+2 per route)
  kEnergyCsdRequest,    // CSD route requests hitting arbitration
  kEnergyWormHop,       // scaling worm configuration packet-hops
  kEnergyRelocation,    // compaction / defect-relocation state copies
  kEnergyClassCount
};

/// Stable dot-free name for a class ("int_ops", "noc_flits", ...).
const char* energy_class_name(std::size_t cls);

/// Integer activity vector — one u64 per class. Layers fold their
/// counters in with fold_energy(EnergyActivity&); the vector is then
/// priced by an EnergyModel.
struct EnergyActivity {
  std::array<std::uint64_t, kEnergyClassCount> units{};

  void add(const EnergyActivity& o) {
    for (std::size_t i = 0; i < kEnergyClassCount; ++i) units[i] += o.units[i];
  }
  /// Per-class saturating difference (for "activity since an anchor").
  EnergyActivity since(const EnergyActivity& anchor) const {
    EnergyActivity d;
    for (std::size_t i = 0; i < kEnergyClassCount; ++i) {
      d.units[i] = units[i] >= anchor.units[i] ? units[i] - anchor.units[i] : 0;
    }
    return d;
  }
  bool operator==(const EnergyActivity&) const = default;
};

/// One DVS operating point, in integer percent of nominal. Integer
/// percents keep every derived quantity (scaled prices, virtual-clock
/// stretch) exactly reproducible.
struct DvsPoint {
  std::uint32_t freq_pct = 100;
  std::uint32_t volt_pct = 100;
  bool operator==(const DvsPoint&) const = default;
};

/// The default five-point ladder: nominal down to a 40%-clock /
/// 65%-voltage deep-throttle point (dynamic energy there is
/// 0.65² ≈ 42% of nominal per event).
std::vector<DvsPoint> default_dvs_ladder();

/// Chip-level energy model configuration (embedded in ChipConfig).
struct EnergySpec {
  /// Off by default: the model is never constructed, no snapshot
  /// section is written, no obs keys appear — reports stay
  /// byte-identical to pre-energy builds.
  bool enabled = false;
  /// ITRS node the chip is priced at (Table 4 years 2010–2015;
  /// other years extrapolate).
  int node_year = 2012;
  /// DVS operating points, nominal first. Empty -> default ladder.
  std::vector<DvsPoint> ladder;
  /// Ladder index the chip starts at.
  std::size_t initial_level = 0;
};

/// Priced activity: per-class dynamic fJ plus pooled leakage fJ.
struct EnergyBreakdown {
  std::array<std::uint64_t, kEnergyClassCount> dynamic_fj{};
  std::uint64_t leakage_fj = 0;

  std::uint64_t dynamic_total_fj() const {
    std::uint64_t t = 0;
    for (const auto f : dynamic_fj) t += f;
    return t;
  }
  std::uint64_t total_fj() const { return dynamic_total_fj() + leakage_fj; }
  void add(const EnergyBreakdown& o) {
    for (std::size_t i = 0; i < kEnergyClassCount; ++i)
      dynamic_fj[i] += o.dynamic_fj[i];
    leakage_fj += o.leakage_fj;
  }
};

class EnergyModel {
 public:
  /// Builds the per-(class, level) integer fJ tables for the spec's
  /// node and ladder. Construction does the only floating-point work;
  /// everything after is u64 arithmetic.
  explicit EnergyModel(const EnergySpec& spec);

  const EnergySpec& spec() const { return spec_; }
  const std::vector<DvsPoint>& ladder() const { return ladder_; }
  std::size_t levels() const { return ladder_.size(); }
  const DvsPoint& point(std::size_t level) const { return ladder_.at(level); }

  /// fJ per unit of `cls` at `level` (leakage class prices 0 here —
  /// idle cycles are priced by leak_fj_per_idle_cycle()).
  std::uint64_t unit_fj(std::size_t cls, std::size_t level) const {
    return unit_fj_.at(level)[cls];
  }
  std::uint64_t leak_fj_per_idle_cycle(std::size_t level) const {
    return leak_fj_.at(level);
  }

  /// Prices an activity vector at one operating point. Pure integer.
  EnergyBreakdown price(const EnergyActivity& a, std::size_t level) const;

 private:
  EnergySpec spec_;
  std::vector<DvsPoint> ladder_;
  /// unit_fj_[level][class]; leak_fj_[level] per idle cycle.
  std::vector<std::array<std::uint64_t, kEnergyClassCount>> unit_fj_;
  std::vector<std::uint64_t> leak_fj_;
};

/// Nominal-ladder GOPS/W at a process node, for a canonical op mix
/// (one integer op + its share of clock tree, token transport, memory
/// traffic, NoC flits, and leakage). Used by bench/table4 to extend
/// the paper's scaling table with an energy-efficiency column.
double gops_per_watt(const ProcessNode& node);
/// Same, resolving the node from its ITRS year (extrapolating off-table
/// years exactly like EnergySpec::node_year does).
double gops_per_watt(int node_year);

}  // namespace vlsip::cost

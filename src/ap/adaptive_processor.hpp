// The adaptive processor (paper §2): the facade that ties together the
// object space, WSRF, library, configuration pipeline, dynamic CSD
// network and dataflow executor.
//
// An AP is the unit the VLSI processor scales: a minimum AP has 16
// physical objects and 16 memory objects (§4.1); fusing clusters yields
// an AP with a larger capacity C. The AP configures application
// datapaths from global configuration streams, executes them as token
// dataflow, supports virtual hardware (object swap-in/out) for scalar
// workloads, and enforces the streaming constraint (datapath <= C, §2.5).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/datapath.hpp"
#include "ap/executor.hpp"
#include "ap/memory_block.hpp"
#include "ap/object_space.hpp"
#include "ap/pipeline.hpp"
#include "ap/wsrf.hpp"
#include "csd/dynamic_csd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

namespace vlsip::snapshot {
class Writer;
class Reader;
}  // namespace vlsip::snapshot

namespace vlsip::ap {

struct ApConfig {
  /// C — the object-space capacity (physical objects on the stack).
  int capacity = 16;
  /// Memory objects beside the stack (the 1:1 ratio of §4.1's minimum
  /// AP). They occupy CSD positions past the stack region.
  int memory_blocks = 16;
  /// Dynamic CSD channels; 0 = auto (capacity/2 + fan-out reserve =
  /// capacity, the provisioning §2.6.2 recommends).
  int csd_channels = 0;
  int wsrf_capacity = 40;
  int library_load_latency = 8;
  PipelineConfig pipeline;
  ExecConfig exec;
  MemoryBlockConfig memory;
  ReplacementConfig replacement;
  bool enable_trace = false;
};

/// Cumulative counters across the AP's lifetime.
struct ApStats {
  ConfigStats config;     // aggregated over configure() calls
  ConfigStats faults;     // virtual-hardware fault servicing
  std::uint64_t datapaths_configured = 0;
  std::uint64_t releases = 0;
  std::uint64_t release_tokens = 0;
  /// Cycles spent sweeping release waves (dependency-depth each, §2.2).
  std::uint64_t release_wave_cycles = 0;
  /// Lifetime execution totals, accumulated over every run() /
  /// run_streaming() call (each call still returns its own ExecStats).
  ExecStats exec;
  std::uint64_t runs = 0;
  std::uint64_t runs_completed = 0;
  std::uint64_t runs_deadlocked = 0;
};

class AdaptiveProcessor {
 public:
  explicit AdaptiveProcessor(ApConfig config = {});

  /// Returns the AP to exactly the state the constructor builds for
  /// `config` — same save() bytes, same behaviour from the next
  /// configure() on — while keeping its heap storage: object-space,
  /// WSRF and library tables, CSD claim words, program storage and the
  /// released executor's arenas. Any datapath is dropped without firing
  /// release tokens, written memory blocks free their backing, and
  /// every defect, dead segment and lifetime counter is forgotten. A
  /// recycled processor's first job configures on the warm path.
  void reset(const ApConfig& config);

  int capacity() const { return config_.capacity; }
  const ApConfig& config() const { return config_; }

  /// Loads the program's logical objects into the library and runs the
  /// configuration pipeline over its global configuration stream.
  /// Replaces any previously configured datapath (releasing it first).
  ConfigStats configure(const arch::Program& program);

  /// True if the datapath fits residency for streaming (§2.5: streaming
  /// "does not allow swapping out part of the datapath").
  bool fits_streaming(const arch::Program& program) const;

  /// Writes the binary-encoded configuration stream into this AP's
  /// memory at `base_address` (what a predecessor does to an inactive
  /// follower, §3.3). Returns the number of words written.
  std::size_t store_stream(std::size_t base_address,
                           const arch::ConfigStream& stream);

  /// Configures from a stream resident in the memory blocks: the
  /// pointer-update / request-fetch stages read one word per element
  /// from the banked SRAM (latency and bank conflicts charged as
  /// stream_fetch_cycles). `library_program` supplies the logical
  /// objects and port bindings; its own stream is ignored.
  ConfigStats configure_from_memory(const arch::Program& library_program,
                                    std::size_t base_address,
                                    std::size_t n_elements);

  /// Injects tokens into a named input of the configured datapath,
  /// resolving the port once for the whole batch.
  void feed(const std::string& input, std::span<const arch::Word> values);
  /// Injects one token into a named input of the configured datapath.
  void feed(const std::string& input, arch::Word value) {
    feed(input, std::span<const arch::Word>(&value, 1));
  }

  /// Runs the configured datapath. Scalar mode (faults allowed).
  ExecStats run(std::size_t expected_per_output, std::uint64_t max_cycles);

  /// Runs with faults forbidden; requires fits_streaming() at configure
  /// time (PreconditionError otherwise).
  ExecStats run_streaming(std::size_t expected_per_output,
                          std::uint64_t max_cycles);

  /// Output tokens collected at a named output.
  const std::vector<arch::Word>& output(const std::string& name) const;
  /// The configured datapath's wait-for report (Executor::diagnose).
  /// Requires has_datapath().
  std::vector<std::string> diagnose() const { return executor_->diagnose(); }

  /// Fires the release tokens and frees the datapath. Resident objects
  /// stay cached in the object space (object caching, §2.4), so a
  /// re-configuration of an overlapping datapath hits.
  void release_datapath();

  /// A physical object on the stack went defective: capacity C shrinks
  /// by one, the LRU object is evicted if the stack was full, and its
  /// chains are re-resolved. Execution continues (the evicted object
  /// re-enters via a fault). Returns the evicted object, if any.
  std::optional<arch::ObjectId> handle_defective_object();

  bool has_datapath() const { return program_.has_value(); }
  /// The configured program (a checkpoint carries it). Requires
  /// has_datapath().
  const arch::Program& program() const { return *program_; }

  const ObjectSpace& object_space() const { return space_; }
  const Wsrf& wsrf() const { return wsrf_; }
  const csd::DynamicCsdNetwork& network() const { return network_; }
  /// Mutable network access for fault injection (segment kills). The
  /// configured datapath keeps running on whatever the reroute leaves.
  csd::DynamicCsdNetwork& network_mut() { return network_; }
  const ChainSet& chains() const { return chains_; }
  const ObjectLibrary& library() const { return library_; }
  const ReplacementScheduler& replacement() const { return scheduler_; }
  MemorySystem& memory() { return memory_; }
  const ApStats& stats() const { return stats_; }
  obs::TraceSink& trace() { return trace_; }

  /// Publishes the AP's lifetime counters into `registry` under "ap."
  /// names (configuration pipeline, executor, memory; the CSD network
  /// under "ap.csd.") — the observability-spine probe for this layer.
  void export_obs(obs::MetricRegistry& registry) const;

  /// Folds the AP's lifetime activity into `a` (energy spine,
  /// costmodel/energy.hpp): executor op mix, active/idle cycle split,
  /// configuration-pipeline cycles, and the CSD network's handshake
  /// traffic. Sources are exactly the serialized ApStats counters the
  /// dense/event differential wall pins — never the event-engine-only
  /// telemetry (wakes, quiescence skips) — so the fold is bit-identical
  /// across engines and across checkpoint/resume.
  void fold_energy(cost::EnergyActivity& a) const;

  /// Multi-line human-readable summary of the AP's lifetime statistics
  /// (configuration, execution-side servicing, network, memory).
  std::string report() const;

  /// Checkpoints the complete machine state — object placement, WSRF,
  /// library, CSD claims, chains, replacement ports, memory contents,
  /// the configured program and the executor's in-flight tokens, plus
  /// lifetime stats. Trace-sink contents are telemetry and excluded.
  void save(snapshot::Writer& w) const;

  /// Restores into an AP constructed with the *same* ApConfig the saved
  /// one started from (geometry is fingerprint-checked; SnapshotError
  /// on mismatch). After restore, continuing a run is bit-identical to
  /// never having stopped. configure() is NOT re-run — the pipeline
  /// state comes verbatim from the snapshot.
  void restore(snapshot::Reader& r);

 private:
  static csd::CsdConfig make_csd_config(const ApConfig& config);
  /// Folds one run's ExecStats into the lifetime totals.
  void accumulate_exec(const ExecStats& stats);
  /// Installs the dirty-probe and fault-handler callbacks that bridge
  /// the executor and the configuration pipeline. Shared between
  /// configure() and restore() so both paths wire identical hooks.
  void install_execution_hooks();

  ApConfig config_;
  obs::TraceSink trace_;
  ObjectSpace space_;
  Wsrf wsrf_;
  ObjectLibrary library_;
  csd::DynamicCsdNetwork network_;
  ChainSet chains_;
  ReplacementScheduler scheduler_;
  ConfigurationPipeline pipeline_;
  MemorySystem memory_;
  std::optional<arch::Program> program_;
  /// Storage of the released program: configure() copies the next
  /// program into it, reusing its buffers and (through spare_ports_)
  /// its port-map nodes.
  arch::Program spare_program_;
  std::vector<decltype(arch::Program::inputs)::node_type> spare_ports_;
  std::unique_ptr<Executor> executor_;
  /// Released executor kept for arena reuse: the next configure()
  /// rebinds it instead of reallocating every queue and table.
  std::unique_ptr<Executor> spare_;
  ApStats stats_;
};

}  // namespace vlsip::ap

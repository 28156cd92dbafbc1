#include "ap/adaptive_processor.hpp"

#include <algorithm>
#include <sstream>

#include "arch/serialize.hpp"
#include "common/require.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::ap {

namespace {

void accumulate(ConfigStats& into, const ConfigStats& from) {
  into.cycles += from.cycles;
  into.elements += from.elements;
  into.object_requests += from.object_requests;
  into.hits += from.hits;
  into.misses += from.misses;
  into.array_searches += from.array_searches;
  into.stack_inserts += from.stack_inserts;
  into.promotes += from.promotes;
  into.evictions += from.evictions;
  into.write_backs += from.write_backs;
  into.acquire_handshake_cycles += from.acquire_handshake_cycles;
  into.miss_wait_cycles += from.miss_wait_cycles;
  into.write_back_stalls += from.write_back_stalls;
  into.route_failures += from.route_failures;
  into.stream_fetch_cycles += from.stream_fetch_cycles;
}

using PortMap = decltype(arch::Program::inputs);

/// Copy-assigns a port map. std::map's own copy assignment frees the
/// nodes a smaller map does not need, so a kernel mix whose port counts
/// vary would allocate them again for every larger map; `spare` keeps
/// them instead.
void assign_ports(PortMap& to, const PortMap& from,
                  std::vector<PortMap::node_type>& spare) {
  spare.reserve(spare.size() + std::max(to.size(), from.size()));
  while (!to.empty()) spare.push_back(to.extract(to.begin()));
  for (const auto& port : from) {
    if (spare.empty()) {
      to.insert(to.end(), port);
      continue;
    }
    auto node = std::move(spare.back());
    spare.pop_back();
    node.key() = port.first;
    node.mapped() = port.second;
    to.insert(to.end(), std::move(node));
  }
}

}  // namespace

csd::CsdConfig AdaptiveProcessor::make_csd_config(const ApConfig& config) {
  csd::CsdConfig csd;
  // Positions: the stack region plus the out-of-stack memory objects
  // (§2.6.2: the network must reach memory objects too).
  csd.positions = static_cast<csd::Position>(config.capacity +
                                             config.memory_blocks);
  csd.channels =
      config.csd_channels > 0
          ? static_cast<csd::ChannelId>(config.csd_channels)
          : static_cast<csd::ChannelId>(config.capacity);
  return csd;
}

AdaptiveProcessor::AdaptiveProcessor(ApConfig config)
    : config_(config),
      trace_(config.enable_trace),
      space_(config.capacity),
      wsrf_(config.wsrf_capacity),
      library_(config.library_load_latency),
      network_(make_csd_config(config), config.enable_trace ? &trace_ : nullptr),
      chains_(network_, space_),
      scheduler_(config.replacement),
      pipeline_(space_, wsrf_, library_, chains_, scheduler_,
                config.pipeline, config.enable_trace ? &trace_ : nullptr),
      memory_(config.memory_blocks, config.memory) {
  VLSIP_REQUIRE(config.capacity >= 2, "an AP needs at least two objects");
  VLSIP_REQUIRE(config.memory_blocks >= 1, "an AP needs a memory block");
}

void AdaptiveProcessor::reset(const ApConfig& config) {
  VLSIP_REQUIRE(config.capacity >= 2, "an AP needs at least two objects");
  VLSIP_REQUIRE(config.memory_blocks >= 1, "an AP needs a memory block");
  if (program_) {
    spare_program_ = std::move(*program_);
    program_.reset();
  }
  if (executor_) spare_ = std::move(executor_);
  // An executor keeps its settings and trace sink across rebinds.
  if (config.exec != config_.exec ||
      config.enable_trace != config_.enable_trace) {
    spare_.reset();
  }
  config_ = config;
  obs::TraceSink* trace = config.enable_trace ? &trace_ : nullptr;
  trace_.reset(config.enable_trace);
  space_.reset(config.capacity);
  wsrf_.reset(config.wsrf_capacity);
  library_.reset(config.library_load_latency);
  network_.reset(make_csd_config(config), trace);
  chains_.reset();
  scheduler_.reset(config.replacement);
  pipeline_.reset(config.pipeline, trace);
  memory_.reset(config.memory_blocks, config.memory);
  stats_ = {};
}

ConfigStats AdaptiveProcessor::configure(const arch::Program& program) {
  VLSIP_REQUIRE(!program.stream.empty(), "program has an empty stream");
  if (program_) release_datapath();

  // Store the program's logical objects into the library (§2.3: logical
  // objects are loaded "from the library in the memory blocks").
  for (const auto& obj : program.library) library_.store(obj);

  // Copy into the released program's storage, reusing its buffers.
  spare_program_.library = program.library;
  spare_program_.stream = program.stream;
  assign_ports(spare_program_.inputs, program.inputs, spare_ports_);
  assign_ports(spare_program_.outputs, program.outputs, spare_ports_);
  program_.emplace(std::move(spare_program_));
  const ConfigStats stats = pipeline_.configure(*program_);
  accumulate(stats_.config, stats);
  ++stats_.datapaths_configured;

  if (spare_) {
    // Warm path: recycle the previous datapath's executor arenas.
    executor_ = std::move(spare_);
    executor_->rebind(*program_);
  } else {
    executor_ = std::make_unique<Executor>(
        *program_, space_, memory_, config_.exec,
        config_.enable_trace ? &trace_ : nullptr);
  }
  install_execution_hooks();
  return stats;
}

void AdaptiveProcessor::install_execution_hooks() {
  // §2.5: only store the replaceable object if necessary — clean
  // objects (state identical to the library image) skip the write-back.
  pipeline_.set_dirty_probe([this](arch::ObjectId id) {
    if (!executor_) return true;  // no runtime state tracking: be safe
    const auto& dirty = executor_->dirty();
    return id < dirty.size() ? static_cast<bool>(dirty[id]) : true;
  });
  executor_->set_fault_handler([this](arch::ObjectId id) {
    ConfigStats fault_stats;
    const std::uint64_t latency =
        pipeline_.request_object(*program_, id, fault_stats);
    accumulate(stats_.faults, fault_stats);
    return latency;
  });
}

bool AdaptiveProcessor::fits_streaming(const arch::Program& program) const {
  return static_cast<int>(program.object_count()) <= config_.capacity;
}

std::size_t AdaptiveProcessor::store_stream(std::size_t base_address,
                                            const arch::ConfigStream& stream) {
  const auto words = arch::encode_stream(stream);
  for (std::size_t i = 0; i < words.size(); ++i) {
    memory_.write(base_address + i, arch::make_word_u(words[i]));
  }
  return words.size();
}

ConfigStats AdaptiveProcessor::configure_from_memory(
    const arch::Program& library_program, std::size_t base_address,
    std::size_t n_elements) {
  VLSIP_REQUIRE(n_elements > 0, "empty stream in memory");
  // The request-fetch stage streams one word per cycle out of the
  // interleaved banks; the pipeline-fill latency plus any bank
  // conflicts are the fetch overhead.
  std::vector<std::uint64_t> words;
  words.reserve(n_elements);
  std::uint64_t issue = 0;
  std::uint64_t last_done = 0;
  for (std::size_t i = 0; i < n_elements; ++i) {
    words.push_back(memory_.read(base_address + i).u);
    last_done =
        std::max(last_done, memory_.access_at(base_address + i, issue));
    ++issue;
  }
  const std::uint64_t overhead =
      last_done > n_elements ? last_done - n_elements : 0;

  arch::Program program = library_program;
  program.stream = arch::decode_stream(words);
  auto stats = configure(program);
  stats.stream_fetch_cycles = overhead;
  stats.cycles += overhead;
  stats_.config.stream_fetch_cycles += overhead;
  stats_.config.cycles += overhead;
  return stats;
}

void AdaptiveProcessor::feed(const std::string& input,
                             std::span<const arch::Word> values) {
  VLSIP_REQUIRE(executor_ != nullptr, "no datapath configured");
  executor_->feed(input, values);
}

ExecStats AdaptiveProcessor::run(std::size_t expected_per_output,
                                 std::uint64_t max_cycles) {
  VLSIP_REQUIRE(executor_ != nullptr, "no datapath configured");
  ExecStats stats = executor_->run(expected_per_output, max_cycles);
  accumulate_exec(stats);
  return stats;
}

ExecStats AdaptiveProcessor::run_streaming(std::size_t expected_per_output,
                                           std::uint64_t max_cycles) {
  VLSIP_REQUIRE(executor_ != nullptr, "no datapath configured");
  VLSIP_REQUIRE(fits_streaming(*program_),
                "streaming datapath exceeds capacity C (§2.5)");
  // With the whole datapath resident no fault can occur; pre-touch every
  // object so a cold configuration cannot fault mid-stream either.
  for (const auto& obj : program_->library) {
    if (!space_.contains(obj.id)) {
      ConfigStats warm;
      pipeline_.request_object(*program_, obj.id, warm);
      accumulate(stats_.faults, warm);
    }
  }
  ExecStats stats = executor_->run(expected_per_output, max_cycles);
  accumulate_exec(stats);
  return stats;
}

const std::vector<arch::Word>& AdaptiveProcessor::output(
    const std::string& name) const {
  VLSIP_REQUIRE(executor_ != nullptr, "no datapath configured");
  return executor_->output(name);
}

void AdaptiveProcessor::accumulate_exec(const ExecStats& stats) {
  ExecStats& e = stats_.exec;
  e.cycles += stats.cycles;
  e.firings += stats.firings;
  e.tokens_moved += stats.tokens_moved;
  e.int_ops += stats.int_ops;
  e.float_ops += stats.float_ops;
  e.mem_ops += stats.mem_ops;
  e.transport_ops += stats.transport_ops;
  e.faults += stats.faults;
  e.fault_cycles += stats.fault_cycles;
  e.release_tokens += stats.release_tokens;
  e.idle_cycles += stats.idle_cycles;
  e.wakes += stats.wakes;
  e.quiescence_skips += stats.quiescence_skips;
  ++stats_.runs;
  if (stats.completed) ++stats_.runs_completed;
  if (stats.deadlocked) ++stats_.runs_deadlocked;
}

namespace {

/// The AP probe's metric ids, interned once.
struct ApMetricIds {
  obs::MetricId config_cycles = obs::metric_id("ap.config.cycles");
  obs::MetricId config_elements = obs::metric_id("ap.config.elements");
  obs::MetricId config_requests = obs::metric_id("ap.config.requests");
  obs::MetricId config_hits = obs::metric_id("ap.config.hits");
  obs::MetricId config_misses = obs::metric_id("ap.config.misses");
  obs::MetricId config_evictions = obs::metric_id("ap.config.evictions");
  obs::MetricId config_write_backs = obs::metric_id("ap.config.write_backs");
  obs::MetricId config_write_back_stalls =
      obs::metric_id("ap.config.write_back_stalls");
  obs::MetricId config_route_failures =
      obs::metric_id("ap.config.route_failures");
  obs::MetricId config_stream_fetch_cycles =
      obs::metric_id("ap.config.stream_fetch_cycles");
  obs::MetricId datapaths_configured =
      obs::metric_id("ap.datapaths_configured");
  obs::MetricId fault_requests = obs::metric_id("ap.fault_requests");
  obs::MetricId fault_evictions = obs::metric_id("ap.fault_evictions");
  obs::MetricId fault_write_backs = obs::metric_id("ap.fault_write_backs");
  obs::MetricId releases = obs::metric_id("ap.releases");
  obs::MetricId release_tokens = obs::metric_id("ap.release_tokens");
  obs::MetricId release_wave_cycles =
      obs::metric_id("ap.release_wave_cycles");
  obs::MetricId exec_runs = obs::metric_id("ap.exec.runs");
  obs::MetricId exec_runs_completed = obs::metric_id("ap.exec.runs_completed");
  obs::MetricId exec_runs_deadlocked =
      obs::metric_id("ap.exec.runs_deadlocked");
  obs::MetricId exec_cycles = obs::metric_id("ap.exec.cycles");
  obs::MetricId exec_firings = obs::metric_id("ap.exec.firings");
  obs::MetricId exec_tokens_moved = obs::metric_id("ap.exec.tokens_moved");
  obs::MetricId exec_int_ops = obs::metric_id("ap.exec.int_ops");
  obs::MetricId exec_float_ops = obs::metric_id("ap.exec.float_ops");
  obs::MetricId exec_mem_ops = obs::metric_id("ap.exec.mem_ops");
  obs::MetricId exec_transport_ops = obs::metric_id("ap.exec.transport_ops");
  obs::MetricId exec_faults = obs::metric_id("ap.exec.faults");
  obs::MetricId exec_fault_cycles = obs::metric_id("ap.exec.fault_cycles");
  obs::MetricId exec_idle_cycles = obs::metric_id("ap.exec.idle_cycles");
  obs::MetricId exec_wakes = obs::metric_id("ap.exec.wakes");
  obs::MetricId exec_quiescence_skips =
      obs::metric_id("ap.exec.quiescence_skips");
  obs::MetricId memory_bank_conflicts =
      obs::metric_id("ap.memory.bank_conflicts");
};

}  // namespace

void AdaptiveProcessor::export_obs(obs::MetricRegistry& registry) const {
  static const ApMetricIds id;
  const auto& c = stats_.config;
  registry.counter(id.config_cycles) += c.cycles;
  registry.counter(id.config_elements) += c.elements;
  registry.counter(id.config_requests) += c.object_requests;
  registry.counter(id.config_hits) += c.hits;
  registry.counter(id.config_misses) += c.misses;
  registry.counter(id.config_evictions) += c.evictions;
  registry.counter(id.config_write_backs) += c.write_backs;
  registry.counter(id.config_write_back_stalls) += c.write_back_stalls;
  registry.counter(id.config_route_failures) += c.route_failures;
  registry.counter(id.config_stream_fetch_cycles) += c.stream_fetch_cycles;
  registry.counter(id.datapaths_configured) += stats_.datapaths_configured;
  registry.counter(id.fault_requests) += stats_.faults.object_requests;
  registry.counter(id.fault_evictions) += stats_.faults.evictions;
  registry.counter(id.fault_write_backs) += stats_.faults.write_backs;
  registry.counter(id.releases) += stats_.releases;
  registry.counter(id.release_tokens) += stats_.release_tokens;
  registry.counter(id.release_wave_cycles) += stats_.release_wave_cycles;

  const auto& e = stats_.exec;
  registry.counter(id.exec_runs) += stats_.runs;
  registry.counter(id.exec_runs_completed) += stats_.runs_completed;
  registry.counter(id.exec_runs_deadlocked) += stats_.runs_deadlocked;
  registry.counter(id.exec_cycles) += e.cycles;
  registry.counter(id.exec_firings) += e.firings;
  registry.counter(id.exec_tokens_moved) += e.tokens_moved;
  registry.counter(id.exec_int_ops) += e.int_ops;
  registry.counter(id.exec_float_ops) += e.float_ops;
  registry.counter(id.exec_mem_ops) += e.mem_ops;
  registry.counter(id.exec_transport_ops) += e.transport_ops;
  registry.counter(id.exec_faults) += e.faults;
  registry.counter(id.exec_fault_cycles) += e.fault_cycles;
  registry.counter(id.exec_idle_cycles) += e.idle_cycles;
  registry.counter(id.exec_wakes) += e.wakes;
  registry.counter(id.exec_quiescence_skips) += e.quiescence_skips;

  registry.counter(id.memory_bank_conflicts) += memory_.bank_conflicts();
  network_.export_obs(registry);
}

void AdaptiveProcessor::fold_energy(cost::EnergyActivity& a) const {
  const auto& e = stats_.exec;
  a.units[cost::kEnergyIntOp] += e.int_ops;
  a.units[cost::kEnergyFloatOp] += e.float_ops;
  a.units[cost::kEnergyMemOp] += e.mem_ops;
  a.units[cost::kEnergyTransportOp] += e.transport_ops + e.tokens_moved;
  a.units[cost::kEnergyConfigCycle] += stats_.config.cycles +
                                       stats_.faults.cycles +
                                       stats_.release_wave_cycles;
  // Active/idle cycle split of the executor's lifetime. idle <= cycles
  // by construction; min() keeps the fold total even if a future
  // engine ever violates that.
  const std::uint64_t idle = std::min(e.idle_cycles, e.cycles);
  a.units[cost::kEnergyActiveCycle] += e.cycles - idle;
  a.units[cost::kEnergyIdleCycle] += idle;
  network_.fold_energy(a);
}

std::string AdaptiveProcessor::report() const {
  std::ostringstream out;
  const auto& c = stats_.config;
  out << "adaptive processor: C=" << config_.capacity << ", "
      << config_.memory_blocks << " memory blocks, "
      << network_.channel_count() << " CSD channels\n";
  out << "  configuration: " << stats_.datapaths_configured
      << " datapaths, " << c.cycles << " cycles, " << c.object_requests
      << " requests (" << c.hits << " hits / " << c.misses
      << " misses), " << c.stack_inserts << " stack shifts, "
      << c.promotes << " promotions\n";
  out << "  replacement: " << c.evictions << " evictions, "
      << c.write_backs << " write-backs (" << c.write_back_stalls
      << " stall cycles, " << scheduler_.scheduled()
      << " scheduled)\n";
  out << "  faults: " << stats_.faults.object_requests
      << " serviced requests, " << stats_.faults.evictions
      << " evictions, " << stats_.faults.write_backs
      << " write-backs\n";
  out << "  network: " << chains_.size() << " chains ("
      << chains_.routed() << " routed), " << network_.used_channels()
      << "/" << network_.channel_count() << " channels in use, "
      << chains_.rebuilds() << " refreshes\n";
  out << "  memory: " << memory_.block_count() << " banks, "
      << memory_.bank_conflicts() << " bank conflicts\n";
  out << "  releases: " << stats_.releases << " ("
      << stats_.release_tokens << " tokens, "
      << stats_.release_wave_cycles << " wave cycles)\n";
  return out.str();
}

std::optional<arch::ObjectId> AdaptiveProcessor::handle_defective_object() {
  const auto evicted = space_.reduce_capacity();
  config_.capacity = space_.capacity();
  if (evicted) {
    wsrf_.erase(*evicted);
    // Chains go dormant; the object can fault back into the shrunken
    // stack and re-route.
    if (library_.contains(*evicted)) library_.write_back(*evicted);
  }
  chains_.refresh();
  if (trace_.enabled()) {
    trace_.event(0, obs::Layer::kAp, "ap", -1,
                 "defective physical object: capacity now " +
                     std::to_string(config_.capacity));
  }
  return evicted;
}

void AdaptiveProcessor::save(snapshot::Writer& w) const {
  w.section("ap.processor");
  // Geometry fingerprint: restore() targets an AP constructed with the
  // same ApConfig; these fields pin everything the constructor sized.
  w.u32(network_.positions());
  w.u32(network_.channel_count());
  w.i32(config_.memory_blocks);
  w.i32(config_.wsrf_capacity);
  w.i32(config_.exec.edge_capacity);
  w.b(config_.exec.event_driven);
  w.b(config_.exec.allow_faults);
  w.i32(config_.exec.fault_concurrency);

  space_.save(w);
  wsrf_.save(w);
  library_.save(w);
  network_.save(w);
  chains_.save(w);
  scheduler_.save(w);
  memory_.save(w);

  w.b(program_.has_value());
  if (program_) arch::save_program(w, *program_);
  w.b(executor_ != nullptr);
  if (executor_) executor_->save(w);

  save_config_stats(w, stats_.config);
  save_config_stats(w, stats_.faults);
  w.u64(stats_.datapaths_configured);
  w.u64(stats_.releases);
  w.u64(stats_.release_tokens);
  w.u64(stats_.release_wave_cycles);
  save_exec_stats(w, stats_.exec);
  w.u64(stats_.runs);
  w.u64(stats_.runs_completed);
  w.u64(stats_.runs_deadlocked);
}

void AdaptiveProcessor::restore(snapshot::Reader& r) {
  r.section("ap.processor");
  const auto positions = r.u32();
  const auto channels = r.u32();
  const auto memory_blocks = r.i32();
  const auto wsrf_capacity = r.i32();
  const auto edge_capacity = r.i32();
  const bool event_driven = r.b();
  const bool allow_faults = r.b();
  const auto fault_concurrency = r.i32();
  if (positions != network_.positions() ||
      channels != network_.channel_count() ||
      memory_blocks != config_.memory_blocks ||
      wsrf_capacity != config_.wsrf_capacity ||
      edge_capacity != config_.exec.edge_capacity ||
      event_driven != config_.exec.event_driven ||
      allow_faults != config_.exec.allow_faults ||
      fault_concurrency != config_.exec.fault_concurrency) {
    throw snapshot::SnapshotError(
        "snapshot was taken on an AP with a different configuration");
  }

  space_.restore(r);
  // Capacity may have shrunk since construction (defective objects);
  // the object space carries the live value.
  config_.capacity = space_.capacity();
  wsrf_.restore(r);
  library_.restore(r);
  network_.restore(r);
  chains_.restore(r);
  scheduler_.restore(r);
  memory_.restore(r);

  const bool has_program = r.b();
  if (has_program) {
    program_ = arch::restore_program(r);
  } else {
    program_.reset();
  }
  const bool has_executor = r.b();
  executor_.reset();
  spare_.reset();
  if (has_executor) {
    VLSIP_REQUIRE(program_.has_value(),
                  "snapshot has an executor but no program");
    // Construct fresh: the constructor rebuilds all structural state
    // from the program deterministically; restore() then overwrites
    // the mutable machine state.
    executor_ = std::make_unique<Executor>(
        *program_, space_, memory_, config_.exec,
        config_.enable_trace ? &trace_ : nullptr);
    executor_->restore(r);
    install_execution_hooks();
  }

  stats_.config = restore_config_stats(r);
  stats_.faults = restore_config_stats(r);
  stats_.datapaths_configured = r.u64();
  stats_.releases = r.u64();
  stats_.release_tokens = r.u64();
  stats_.release_wave_cycles = r.u64();
  stats_.exec = restore_exec_stats(r);
  stats_.runs = r.u64();
  stats_.runs_completed = r.u64();
  stats_.runs_deadlocked = r.u64();
}

void AdaptiveProcessor::release_datapath() {
  if (!program_) return;
  if (executor_) {
    stats_.release_wave_cycles += executor_->release_wave_depth();
    stats_.release_tokens += executor_->release();
  }
  chains_.clear();
  // Objects stay cached in the object space; only their active pins and
  // chains go away.
  for (const auto& obj : program_->library) {
    if (wsrf_.lookup(obj.id) != nullptr) wsrf_.set_active(obj.id, false);
  }
  ++stats_.releases;
  spare_ = std::move(executor_);
  spare_program_ = std::move(*program_);
  program_.reset();
}

}  // namespace vlsip::ap

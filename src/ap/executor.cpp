#include "ap/executor.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::ap {

namespace {

using arch::Opcode;
using arch::Word;

}  // namespace

Executor::Executor(const arch::Program& program, const ObjectSpace& space,
                   MemorySystem& memory, ExecConfig config,
                   obs::TraceSink* trace)
    : program_(&program),
      space_(space),
      memory_(memory),
      config_(config),
      trace_(trace) {
  VLSIP_REQUIRE(config.edge_capacity >= 1, "edge capacity must be positive");
  rebind(program);
}

void Executor::rebind(const arch::Program& program) {
  program_ = &program;
  edges_.clear();
  wake_.clear();
  now_ = 0;
  faults_in_service_ = 0;
  pending_count_ = 0;
  iota_count_ = 0;
  max_busy_ = 0;
  nodes_.assign(program.library.size(), Node{});
  dirty_.assign(program.library.size(), 0);
  for (std::size_t i = 0; i < program.library.size(); ++i) {
    const arch::LogicalObject& object = program.library[i];
    const arch::LocalConfig& config = object.config;
    Node& node = nodes_[i];
    node.object = &object;
    node.immediate = config.immediate;
    node.op = config.opcode;
    node.op_class = arch::op_class(config.opcode);
    node.produces = arch::op_produces(config.opcode);
    node.initial_token = config.initial_token;
    node.arity = static_cast<std::uint8_t>(arch::op_arity(config.opcode));
    node.latency = config.latency();
    if (node.initial_token) {
      node.has_pending = true;
      node.pending_value = object.initial;
      node.pending_produces = true;
      ++pending_count_;
    }
  }
  // Build edges from the configuration stream's dependencies. A
  // re-chained operand keeps only its newest chain (the per-sink
  // replacement of §2.6.2); the stale edge stays in edges_ but leaves
  // its source's out-list, so it cannot backpressure anyone.
  for (const auto& e : program.stream.elements()) {
    for (int s = 0; s < arch::kMaxSources; ++s) {
      const arch::ObjectId src = e.sources[s];
      if (src == arch::kNoObject) continue;
      VLSIP_REQUIRE(src < nodes_.size() && e.sink < nodes_.size(),
                    "stream references unknown object");
      const auto edge_idx = static_cast<std::int32_t>(edges_.size());
      edges_.push_back(Edge{src, e.sink, s, 0, 0});
      auto& sink_node = nodes_[e.sink];
      VLSIP_REQUIRE(s < static_cast<int>(sink_node.arity),
                    "operand index exceeds opcode arity");
      sink_node.in_edges[static_cast<std::size_t>(s)] = edge_idx;
      sink_node.in_sources[static_cast<std::size_t>(s)] = src;
    }
  }
  // Out-edge CSR in counting passes: an edge is live iff it still holds
  // its sink's operand slot; each source lists its live edges in
  // creation order.
  const auto live = [this](std::size_t e) {
    const Edge& edge = edges_[e];
    return nodes_[edge.sink].in_edges[static_cast<std::size_t>(
               edge.operand)] == static_cast<std::int32_t>(e);
  };
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (live(e)) ++nodes_[edges_[e].source].out_count;
  }
  std::uint32_t offset = 0;
  for (auto& n : nodes_) {
    n.out_begin = offset;
    offset += n.out_count;
    n.out_count = 0;  // refilled as the placement cursor below
  }
  out_edges_.resize(offset);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (!live(e)) continue;
    Node& src = nodes_[edges_[e].source];
    out_edges_[src.out_begin + src.out_count++] =
        OutEdge{static_cast<std::int32_t>(e), edges_[e].sink};
  }
  edge_slots_.assign(
      edges_.size() * static_cast<std::size_t>(config_.edge_capacity),
      Word{});
  // External injection queues: one per distinct input object; then
  // collection buckets: one per sink object.
  std::size_t n_ext = 0;
  for (const auto& [name, id] : program.inputs) {
    (void)name;
    VLSIP_REQUIRE(id < nodes_.size(), "input maps to unknown object");
    if (nodes_[id].ext_index < 0) {
      nodes_[id].ext_index = static_cast<std::int32_t>(n_ext++);
    }
  }
  std::size_t n_sinks = 0;
  for (auto& n : nodes_) {
    if (n.op == Opcode::kSink) {
      n.sink_slot = static_cast<std::int32_t>(n_sinks++);
    }
  }
  output_slots_.clear();
  for (const auto& [name, id] : program.outputs) {
    (void)name;
    output_slots_.push_back(id < nodes_.size() ? nodes_[id].sink_slot : -1);
  }
  refit(ext_, n_ext, [](ExtQueue& q) -> std::vector<Word>& { return q.buf; });
  for (auto& q : ext_) q.head = 0;
  refit(collected_, n_sinks,
        [](std::vector<Word>& c) -> std::vector<Word>& { return c; });
  active_.reset(nodes_.size());
}

template <typename Slot, typename BufferOf>
void Executor::refit(std::vector<Slot>& slots, std::size_t n,
                     BufferOf buffer_of) {
  for (std::size_t i = n; i < slots.size(); ++i) {
    std::vector<Word>& buffer = buffer_of(slots[i]);
    if (buffer.capacity() > 0) word_pool_.push_back(std::move(buffer));
  }
  const std::size_t kept = std::min(n, slots.size());
  slots.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Word>& buffer = buffer_of(slots[i]);
    if (i >= kept && !word_pool_.empty()) {
      buffer = std::move(word_pool_.back());
      word_pool_.pop_back();
    }
    buffer.clear();
  }
}

void Executor::feed(const std::string& input, std::span<const Word> values) {
  const auto it = program_->inputs.find(input);
  VLSIP_REQUIRE(it != program_->inputs.end(), "unknown input: " + input);
  auto& buf = ext_[static_cast<std::size_t>(nodes_[it->second].ext_index)].buf;
  buf.insert(buf.end(), values.begin(), values.end());
}

const std::vector<Word>& Executor::output(const std::string& name) const {
  const auto it = program_->outputs.find(name);
  VLSIP_REQUIRE(it != program_->outputs.end(), "unknown output: " + name);
  static const std::vector<Word> kEmpty;
  if (it->second >= nodes_.size()) return kEmpty;
  const auto slot = nodes_[it->second].sink_slot;
  return slot < 0 ? kEmpty : collected_[static_cast<std::size_t>(slot)];
}

// The fire path below (inputs_ready .. try_fire) runs once per object
// visit; it is forced inline into process_node so each engine compiles
// it as one unit.

[[gnu::always_inline]] inline bool Executor::inputs_ready(
    const Node& node) const {
  if (node.op == Opcode::kConst) return true;
  if (node.op == Opcode::kMerge) {
    for (int s = 0; s < static_cast<int>(node.arity); ++s) {
      const auto e = node.in_edges[static_cast<std::size_t>(s)];
      if (e >= 0 && edges_[static_cast<std::size_t>(e)].len > 0) return true;
    }
    return false;
  }
  for (int s = 0; s < static_cast<int>(node.arity); ++s) {
    const auto e = node.in_edges[static_cast<std::size_t>(s)];
    if (e >= 0) {
      if (edges_[static_cast<std::size_t>(e)].len == 0) return false;
    } else {
      // Unchained operand: external input port (operand 0 of an input
      // buffer). Other unchained operands can never fire.
      if (s != 0 || node.ext_index < 0 ||
          ext_[static_cast<std::size_t>(node.ext_index)].empty()) {
        return false;
      }
    }
  }
  return true;
}

[[gnu::always_inline]] inline bool Executor::outputs_have_space(
    const Node& node) const {
  const std::uint32_t cap = capacity();
  for (std::uint32_t k = 0; k < node.out_count; ++k) {
    const auto e = out_edges_[node.out_begin + k].edge;
    if (edges_[static_cast<std::size_t>(e)].len >= cap) return false;
  }
  return true;
}

[[gnu::always_inline]] inline Word Executor::pop_operand(Node& node,
                                                         int operand) {
  const auto e = node.in_edges[static_cast<std::size_t>(operand)];
  if (e >= 0) {
    VLSIP_INVARIANT(edges_[static_cast<std::size_t>(e)].len > 0,
                    "pop of empty operand queue");
    return pop_edge(e);
  }
  auto& ext = ext_[static_cast<std::size_t>(node.ext_index)];
  VLSIP_INVARIANT(!ext.empty(), "pop of empty external queue");
  const Word w = ext.buf[ext.head++];
  if (ext.empty()) {
    ext.buf.clear();
    ext.head = 0;
  }
  return w;
}

[[gnu::always_inline]] inline bool Executor::compute(const Node& node,
                                                     const Word* args,
                                                     Word& result,
                                                     bool& produces,
                                                     ExecStats& stats) {
  const Opcode op = node.op;
  produces = node.produces;
  switch (node.op_class) {
    case arch::OpClass::kIntAlu:
    case arch::OpClass::kIntMul:
    case arch::OpClass::kIntDiv:
      ++stats.int_ops;
      break;
    case arch::OpClass::kFloat:
    case arch::OpClass::kFloatDiv:
      ++stats.float_ops;
      break;
    case arch::OpClass::kMemory:
      ++stats.mem_ops;
      break;
    default:
      ++stats.transport_ops;
      break;
  }
  switch (op) {
    // Integer add/sub/mul wrap like the hardware's two's-complement
    // datapath; compute in unsigned so the wrap is defined behaviour.
    case Opcode::kIAdd: result = arch::make_word_i(static_cast<std::int64_t>(args[0].u + args[1].u)); return true;
    case Opcode::kISub: result = arch::make_word_i(static_cast<std::int64_t>(args[0].u - args[1].u)); return true;
    case Opcode::kIMul: result = arch::make_word_i(static_cast<std::int64_t>(args[0].u * args[1].u)); return true;
    case Opcode::kIDiv:
      // Hardware divide-by-zero is defined as 0 in this model, and
      // INT64_MIN / -1 wraps to INT64_MIN (the host would trap).
      // Negating in unsigned gives that wrap for a -1 divisor.
      result = arch::make_word_i(
          args[1].i == 0    ? 0
          : args[1].i == -1 ? static_cast<std::int64_t>(0 - args[0].u)
                            : args[0].i / args[1].i);
      return true;
    case Opcode::kIRem:
      // x % -1 is 0 for every x, INT64_MIN included (the host would trap).
      result = arch::make_word_i(
          args[1].i == 0 || args[1].i == -1 ? 0 : args[0].i % args[1].i);
      return true;
    case Opcode::kIShl:
      result = arch::make_word_u(args[0].u << (args[1].u & 63));
      return true;
    case Opcode::kIShr:
      result = arch::make_word_u(args[0].u >> (args[1].u & 63));
      return true;
    case Opcode::kIAnd: result = arch::make_word_u(args[0].u & args[1].u); return true;
    case Opcode::kIOr: result = arch::make_word_u(args[0].u | args[1].u); return true;
    case Opcode::kIXor: result = arch::make_word_u(args[0].u ^ args[1].u); return true;
    case Opcode::kINeg: result = arch::make_word_i(-args[0].i); return true;
    case Opcode::kFAdd: result = arch::make_word_f(args[0].f + args[1].f); return true;
    case Opcode::kFSub: result = arch::make_word_f(args[0].f - args[1].f); return true;
    case Opcode::kFMul: result = arch::make_word_f(args[0].f * args[1].f); return true;
    case Opcode::kFDiv: result = arch::make_word_f(args[0].f / args[1].f); return true;
    case Opcode::kFNeg: result = arch::make_word_f(-args[0].f); return true;
    case Opcode::kCmpGt: result = arch::make_word_u(args[0].i > args[1].i); return true;
    case Opcode::kCmpLt: result = arch::make_word_u(args[0].i < args[1].i); return true;
    case Opcode::kCmpEq: result = arch::make_word_u(args[0].u == args[1].u); return true;
    case Opcode::kSelect:
      result = args[0].u ? args[1] : args[2];
      return true;
    case Opcode::kGate:
      produces = args[0].u != 0;
      result = args[1];
      return true;
    case Opcode::kGateNot:
      produces = args[0].u == 0;
      result = args[1];
      return true;
    case Opcode::kMerge:
      result = args[0];  // caller passes the arrived token as args[0]
      return true;
    case Opcode::kConst:
      result = node.immediate;
      return true;
    case Opcode::kBuff:
      result = args[0];
      return true;
    case Opcode::kIota:
      // Emission handled by the sequencer state machine; the fire only
      // latches the count.
      return false;
    case Opcode::kLoad:
      result = memory_.read(static_cast<std::size_t>(args[0].u) %
                            memory_.size());
      return true;
    case Opcode::kStore:
      memory_.write(static_cast<std::size_t>(args[0].u) % memory_.size(),
                    args[1]);
      return false;
    case Opcode::kSink:
      result = args[0];  // collected by the caller
      return true;
    case Opcode::kNop:
      return false;
  }
  return false;
}

[[gnu::always_inline]] inline bool Executor::try_push_pending(
    Node& node, std::uint64_t now, ExecStats& stats) {
  // Sequencer emission: one token per cycle while the hardware loop
  // runs (kIota).
  if (node.iota_remaining > 0 && now >= node.busy_until) {
    if (!outputs_have_space(node)) return false;
    for (std::uint32_t k = 0; k < node.out_count; ++k) {
      push_edge(out_edges_[node.out_begin + k].edge,
                arch::make_word_u(node.iota_next));
      ++stats.tokens_moved;
    }
    ++node.iota_next;
    if (--node.iota_remaining == 0) --iota_count_;
    ++stats.transport_ops;
    return true;
  }
  if (!node.has_pending || now < node.busy_until) return false;
  if (!node.pending_produces) {
    node.has_pending = false;
    --pending_count_;
    return true;
  }
  if (!outputs_have_space(node)) return false;
  for (std::uint32_t k = 0; k < node.out_count; ++k) {
    push_edge(out_edges_[node.out_begin + k].edge, node.pending_value);
    ++stats.tokens_moved;
  }
  node.has_pending = false;
  --pending_count_;
  return true;
}

[[gnu::always_inline]] inline Executor::FireResult Executor::try_fire(
    arch::ObjectId id, Node& node, std::uint64_t now, ExecStats& stats) {
  if (node.has_pending || now < node.busy_until) return FireResult::kBlocked;
  if (node.iota_remaining > 0) return FireResult::kBlocked;  // still emitting
  if (!inputs_ready(node)) return FireResult::kBlocked;
  const Opcode op = node.op;
  // Result production needs queue space eventually; requiring it at fire
  // time keeps tokens from being consumed into a stuck object.
  if (node.produces && node.out_count > 0 &&
      !outputs_have_space(node)) {
    return FireResult::kBlocked;
  }

  // Virtual hardware: a non-resident object faults instead of firing.
  if (!space_.contains(id)) {
    if (node.fault_in_service) {
      if (now < node.bind_ready_at) {
        return FireResult::kFaultPending;  // pipeline still loading
      }
      // Service completed but the object was evicted again before it
      // could fire: free the CFB entry and re-fault on a later cycle.
      node.fault_in_service = false;
      --faults_in_service_;
      return FireResult::kEvictedRetry;
    }
    if (!config_.allow_faults || !fault_handler_) {
      stats.deadlocked = true;
      return FireResult::kFaultForbidden;
    }
    if (faults_in_service_ >= config_.fault_concurrency) {
      return FireResult::kCfbBusy;  // every CFB entry busy; retry next cycle
    }
    ++faults_in_service_;
    const std::uint64_t latency = fault_handler_(id);
    ++stats.faults;
    stats.fault_cycles += latency;
    node.fault_in_service = true;
    node.bind_ready_at = now + latency;
    if (trace_) {
      trace_->event(now, obs::Layer::kAp, "exec", id,
                    "object fault " + std::to_string(id) + " (+" +
                        std::to_string(latency) + " cycles)");
    }
    return FireResult::kFaultRaised;
  }
  if (node.fault_in_service) {
    if (now < node.bind_ready_at) return FireResult::kFaultPending;
    node.fault_in_service = false;
    --faults_in_service_;
  }

  // Gather operands into a fixed-size frame — no heap traffic per fire.
  std::array<Word, arch::kMaxSources> args{};
  if (op == Opcode::kMerge) {
    // Take whichever operand arrived (lowest index first).
    for (int s = 0; s < static_cast<int>(node.arity); ++s) {
      const auto e = node.in_edges[static_cast<std::size_t>(s)];
      if (e >= 0 && edges_[static_cast<std::size_t>(e)].len > 0) {
        args[0] = pop_operand(node, s);
        break;
      }
    }
  } else {
    for (int s = 0; s < static_cast<int>(node.arity); ++s) {
      args[static_cast<std::size_t>(s)] = pop_operand(node, s);
    }
  }

  bool produces = false;
  Word result{};
  const bool has_result = compute(node, args.data(), result, produces, stats);
  ++stats.firings;

  int latency = node.latency;
  if (node.op_class == arch::OpClass::kMemory) {
    // Bank port model: the access occupies the addressed bank; a busy
    // bank delays completion (conflict), interleaved banks overlap.
    const auto addr =
        static_cast<std::size_t>(args[0].u) % memory_.size();
    const std::uint64_t done = memory_.access_at(addr, now);
    latency += static_cast<int>(done - now) + config_.memory_wire_penalty;
  }
  node.busy_until = now + static_cast<std::uint64_t>(latency);
  if (node.busy_until > max_busy_) max_busy_ = node.busy_until;

  if (op == Opcode::kIota) {
    node.iota_remaining = args[0].u;
    node.iota_next = 0;
    if (node.iota_remaining > 0) ++iota_count_;
  } else if (op == Opcode::kSink) {
    collected_[static_cast<std::size_t>(node.sink_slot)].push_back(args[0]);
  } else if (has_result && produces) {
    node.has_pending = true;
    node.pending_value = result;
    node.pending_produces = true;
    ++pending_count_;
  }
  if (op == Opcode::kBuff && node.initial_token) {
    dirty_[id] = 1;  // delay-line state evolves
  }
  if (op == Opcode::kStore) dirty_[id] = 1;
  return FireResult::kFired;
}

template <bool kEvent>
void Executor::process_node(std::uint32_t id, ExecStats& stats,
                            bool& progress) {
  Node& node = nodes_[id];
  if (try_push_pending(node, now_, stats)) {
    progress = true;
    if constexpr (kEvent) {
      // Tokens landed downstream: sinks may be able to fire. An id
      // ahead of the drain cursor is scanned this same cycle, one
      // behind it next cycle — exactly the dense scan's visibility.
      for (std::uint32_t k = 0; k < node.out_count; ++k) {
        active_.insert(out_edges_[node.out_begin + k].sink);
      }
      if (node.iota_remaining > 0) active_.insert(id);  // emits again
    }
  }
  const FireResult fr = try_fire(static_cast<arch::ObjectId>(id), node, now_,
                                 stats);
  if (fr == FireResult::kFired) progress = true;
  if constexpr (!kEvent) return;
  switch (fr) {
    case FireResult::kFired:
      // Operand slots freed: upstream producers may push now.
      for (int s = 0; s < static_cast<int>(node.arity); ++s) {
        if (node.in_edges[static_cast<std::size_t>(s)] >= 0) {
          active_.insert(node.in_sources[static_cast<std::size_t>(s)]);
        }
      }
      // Earliest next action: push/refire once the latency elapses (a
      // result latched this cycle pushes no earlier than next cycle).
      // Next-cycle wakes bypass the heap: an insert at/behind the drain
      // cursor is visited next drain, exactly when pop_due would deliver
      // it. Later wakes must go through the heap — a premature revisit
      // returns kBlocked and goes dormant, losing the wake.
      {
        const std::uint64_t when = std::max(node.busy_until, now_ + 1);
        if (when == now_ + 1) {
          active_.insert(id);
        } else {
          wake_.schedule(when, id);
        }
      }
      break;
    case FireResult::kFaultRaised: {
      const std::uint64_t when = std::max(node.bind_ready_at, now_ + 1);
      if (when == now_ + 1) {
        active_.insert(id);
      } else {
        wake_.schedule(when, id);
      }
      break;
    }
    case FireResult::kCfbBusy:
    case FireResult::kEvictedRetry:
      active_.insert(id);  // dense retries every cycle; so do we
      break;
    case FireResult::kBlocked:
    case FireResult::kFaultPending:
    case FireResult::kFaultForbidden:
      break;  // dormant until a token/space/wake event re-activates us
  }
}

bool Executor::outputs_done(std::size_t expected_per_output) const {
  if (expected_per_output == 0 || output_slots_.empty()) return false;
  for (const std::int32_t slot : output_slots_) {
    if (slot < 0 ||
        collected_[static_cast<std::size_t>(slot)].size() <
            expected_per_output) {
      return false;
    }
  }
  return true;
}

ExecStats Executor::run(std::size_t expected_per_output,
                        std::uint64_t max_cycles) {
  // Outputs fill to exactly `expected_per_output` on the happy path;
  // reserving up front removes the collection growth reallocations.
  if (expected_per_output > 0) {
    for (auto& c : collected_) {
      if (c.capacity() < expected_per_output) c.reserve(expected_per_output);
    }
  }
  return config_.event_driven ? run_event(expected_per_output, max_cycles)
                              : run_dense(expected_per_output, max_cycles);
}

ExecStats Executor::run_dense(std::size_t expected_per_output,
                              std::uint64_t max_cycles) {
  ExecStats stats;
  const std::uint64_t start = now_;
  std::uint64_t no_progress = 0;

  while (now_ - start < max_cycles) {
    bool progress = false;
    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      process_node<false>(static_cast<std::uint32_t>(id), stats, progress);
    }
    ++now_;

    if (outputs_done(expected_per_output)) {
      stats.completed = true;
      break;
    }
    if (!progress) {
      ++stats.idle_cycles;
      ++no_progress;
      // Quiescence: nothing in flight anywhere.
      const bool in_flight =
          std::any_of(nodes_.begin(), nodes_.end(), [&](const Node& n) {
            return n.has_pending || n.busy_until > now_ ||
                   n.iota_remaining > 0;
          });
      if (!in_flight && expected_per_output == 0) {
        stats.completed = true;
        break;
      }
      if (no_progress > config_.deadlock_window) {
        stats.deadlocked = true;
        stats.blocked_report = diagnose();
        break;
      }
    } else {
      no_progress = 0;
    }
  }
  stats.cycles = now_ - start;
  return stats;
}

ExecStats Executor::run_event(std::size_t expected_per_output,
                              std::uint64_t max_cycles) {
  ExecStats stats;
  const std::uint64_t start = now_;
  std::uint64_t no_progress = 0;

  // Cycle `start` scans every object, exactly like the dense loop's
  // first iteration; activity narrows from the second cycle on.
  active_.fill();

  while (now_ - start < max_cycles) {
    stats.wakes += wake_.pop_due(now_, active_);
    bool progress = false;
    active_.drain_in_order([&](std::uint32_t id) {
      process_node<true>(id, stats, progress);
    });
    ++now_;

    if (outputs_done(expected_per_output)) {
      stats.completed = true;
      break;
    }
    if (progress) {
      no_progress = 0;
      continue;
    }
    ++stats.idle_cycles;
    ++no_progress;
    // O(1) in-flight test: per-node busy_until only grows, so the
    // high-water mark is exact; pending/iota are counted at the source.
    const bool in_flight =
        pending_count_ > 0 || iota_count_ > 0 || max_busy_ > now_;
    if (!in_flight && expected_per_output == 0) {
      stats.completed = true;
      break;
    }
    if (no_progress > config_.deadlock_window) {
      stats.deadlocked = true;
      stats.blocked_report = diagnose();
      break;
    }
    if (!active_.empty()) continue;  // stay-active ids need every cycle

    // Quiescence skip: every cycle before the next wake-up would scan
    // nothing — replay the dense loop's idle bookkeeping in O(1).
    // `bound` is the first cycle the loop may NOT run; a wake at or
    // beyond it never fires inside this run.
    const std::uint64_t bound = start + max_cycles;
    const std::uint64_t limit =
        wake_.empty() ? bound : std::min(wake_.next_time(), bound);
    if (limit <= now_) continue;
    // Dense would complete after idle cycle c with now == c+1 once the
    // last busy latency expires (only busy keeps us in flight here).
    std::uint64_t c_complete = UINT64_MAX;
    if (expected_per_output == 0 && pending_count_ == 0 &&
        iota_count_ == 0 && max_busy_ > now_) {
      c_complete = max_busy_ - 1;
    }
    // ... and would deadlock after cycle c_dead when the window fills.
    const std::uint64_t c_dead =
        now_ + (config_.deadlock_window - no_progress);
    if (c_complete < limit && c_complete <= c_dead) {
      stats.idle_cycles += c_complete - now_ + 1;
      now_ = c_complete + 1;
      ++stats.quiescence_skips;
      stats.completed = true;
      break;
    }
    if (c_dead < limit) {
      stats.idle_cycles += c_dead - now_ + 1;
      now_ = c_dead + 1;
      ++stats.quiescence_skips;
      stats.deadlocked = true;
      stats.blocked_report = diagnose();
      break;
    }
    stats.idle_cycles += limit - now_;
    no_progress += limit - now_;
    now_ = limit;
    ++stats.quiescence_skips;
  }
  stats.cycles = now_ - start;
  return stats;
}

std::vector<std::string> Executor::diagnose() const {
  std::vector<std::string> report;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    const Opcode op = node.op;
    if (op == Opcode::kNop) continue;
    const std::string who =
        node.object->name + " (#" + std::to_string(id) + ")";

    if (node.has_pending && node.produces &&
        !outputs_have_space(node)) {
      // Find a full downstream edge to name.
      for (std::uint32_t k = 0; k < node.out_count; ++k) {
        const auto& edge = edges_[static_cast<std::size_t>(
            out_edges_[node.out_begin + k].edge)];
        if (edge.len >= capacity()) {
          report.push_back(who + " holds a result but operand " +
                           std::to_string(edge.operand) + " queue of #" +
                           std::to_string(edge.sink) + " is full");
          break;
        }
      }
      continue;
    }
    if (node.has_pending) continue;  // will push when latency elapses
    if (op == Opcode::kConst || op == Opcode::kIota) continue;

    // Which operand is missing?
    for (int s = 0; s < static_cast<int>(node.arity); ++s) {
      const auto e = node.in_edges[static_cast<std::size_t>(s)];
      const bool empty =
          e >= 0 ? edges_[static_cast<std::size_t>(e)].len == 0
                 : (s != 0 || node.ext_index < 0 ||
                    ext_[static_cast<std::size_t>(node.ext_index)].empty());
      if (!empty) continue;
      if (op == Opcode::kMerge) continue;  // merge needs only one arm
      if (e >= 0) {
        report.push_back(
            who + " waits for operand " + std::to_string(s) + " from #" +
            std::to_string(edges_[static_cast<std::size_t>(e)].source));
      } else {
        report.push_back(who + " waits for external input");
      }
      break;
    }
    if (!space_.contains(static_cast<arch::ObjectId>(id)) &&
        !config_.allow_faults) {
      report.push_back(who + " is swapped out and faults are forbidden");
    }
  }
  return report;
}

std::uint64_t Executor::release_wave_depth() const {
  // Longest path in the chain DAG via Kahn's algorithm; nodes on
  // feedback cycles join the wave one step after the acyclic frontier
  // reaches them.
  wave_.assign(nodes_.size(), WaveNode{0, 1});
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    for (int s = 0; s < static_cast<int>(nodes_[n].arity); ++s) {
      if (nodes_[n].in_edges[static_cast<std::size_t>(s)] >= 0) {
        ++wave_[n].indegree;
      }
    }
  }
  wave_queue_.clear();
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (wave_[n].indegree == 0) {
      wave_queue_.push_back(static_cast<std::uint32_t>(n));
    }
  }
  std::uint64_t depth = nodes_.empty() ? 0 : 1;
  for (std::size_t q = 0; q < wave_queue_.size(); ++q) {
    const auto n = wave_queue_[q];
    const std::uint64_t level = wave_[n].level;
    depth = std::max(depth, level);
    for (std::uint32_t k = 0; k < nodes_[n].out_count; ++k) {
      const auto sink = out_edges_[nodes_[n].out_begin + k].sink;
      wave_[sink].level = std::max(wave_[sink].level, level + 1);
      if (--wave_[sink].indegree == 0) wave_queue_.push_back(sink);
    }
  }
  if (wave_queue_.size() < nodes_.size()) ++depth;  // cycle members join late
  return depth;
}

std::uint64_t Executor::release() {
  // One release token per chain, fired source -> sink; receiving all of
  // its release tokens frees an object. The model tears everything down
  // in one wave.
  const std::uint64_t tokens = edges_.size();
  for (auto& e : edges_) {
    e.head = 0;
    e.len = 0;
  }
  pending_count_ = 0;
  iota_count_ = 0;
  max_busy_ = 0;
  for (auto& n : nodes_) {
    n.has_pending = false;
    n.busy_until = 0;
    n.fault_in_service = false;
    n.iota_remaining = 0;
    n.iota_next = 0;
    if (n.initial_token) {
      n.has_pending = true;
      n.pending_value = n.object->initial;
      n.pending_produces = true;
      ++pending_count_;
    }
  }
  for (auto& q : ext_) {
    q.buf.clear();
    q.head = 0;
  }
  for (auto& c : collected_) c.clear();
  active_.clear();
  wake_.clear();
  return tokens;
}

void Executor::save(snapshot::Writer& w) const {
  w.section("ap.executor");
  // Token rings: per-edge cursors plus the full slot arena. Stale slots
  // (beyond len) are reproducible machine state, so the arena is dumped
  // verbatim — re-saving a restored executor yields identical bytes.
  w.u64(edges_.size());
  for (const auto& e : edges_) {
    w.u32(e.head);
    w.u32(e.len);
  }
  w.u64(edge_slots_.size());
  for (const auto& word : edge_slots_) w.u64(word.u);
  w.u64(nodes_.size());
  for (const auto& n : nodes_) {
    w.b(n.has_pending);
    w.b(n.pending_produces);
    w.b(n.fault_in_service);
    w.u64(n.pending_value.u);
    w.u64(n.busy_until);
    w.u64(n.bind_ready_at);
    w.u64(n.iota_remaining);
    w.u64(n.iota_next);
  }
  w.u64(ext_.size());
  for (const auto& q : ext_) {
    w.u64(q.buf.size());
    for (const auto& word : q.buf) w.u64(word.u);
    w.u64(q.head);
  }
  w.u64(collected_.size());
  for (const auto& bucket : collected_) {
    w.u64(bucket.size());
    for (const auto& word : bucket) w.u64(word.u);
  }
  w.vec_u8(dirty_);
  w.u64(now_);
  w.i32(faults_in_service_);
  // Event engine: activity bitwords verbatim; wake heap in raw array
  // order (see WakeQueue::for_each) so pop order survives the restore.
  w.u64(active_.size());
  w.vec_u64(active_.words());
  w.u64(wake_.size());
  wake_.for_each([&w](std::uint64_t when, std::uint32_t id) {
    w.u64(when);
    w.u32(id);
  });
  w.u64(pending_count_);
  w.u64(iota_count_);
  w.u64(max_busy_);
}

void Executor::restore(snapshot::Reader& r) {
  r.section("ap.executor");
  const std::uint64_t n_edges = r.u64();
  VLSIP_REQUIRE(n_edges == edges_.size(),
                "snapshot executor edge count mismatch (wrong program?)");
  for (auto& e : edges_) {
    e.head = r.u32();
    e.len = r.u32();
    // The rings wrap by compare, so a cursor past the capacity would
    // index outside the edge's span.
    VLSIP_REQUIRE(e.head < capacity() && e.len <= capacity(),
                  "snapshot executor ring cursor out of range");
  }
  const std::uint64_t n_slots = r.u64();
  VLSIP_REQUIRE(n_slots == edge_slots_.size(),
                "snapshot executor slot arena mismatch");
  for (auto& word : edge_slots_) word = arch::make_word_u(r.u64());
  const std::uint64_t n_nodes = r.u64();
  VLSIP_REQUIRE(n_nodes == nodes_.size(),
                "snapshot executor node count mismatch (wrong program?)");
  for (auto& n : nodes_) {
    n.has_pending = r.b();
    n.pending_produces = r.b();
    n.fault_in_service = r.b();
    n.pending_value = arch::make_word_u(r.u64());
    n.busy_until = r.u64();
    n.bind_ready_at = r.u64();
    n.iota_remaining = r.u64();
    n.iota_next = r.u64();
  }
  const std::uint64_t n_ext = r.u64();
  VLSIP_REQUIRE(n_ext == ext_.size(), "snapshot executor input-port mismatch");
  for (auto& q : ext_) {
    const std::uint64_t len = r.count(8);
    q.buf.clear();
    q.buf.reserve(static_cast<std::size_t>(len));
    for (std::uint64_t i = 0; i < len; ++i) {
      q.buf.push_back(arch::make_word_u(r.u64()));
    }
    q.head = static_cast<std::size_t>(r.u64());
  }
  const std::uint64_t n_sinks = r.u64();
  VLSIP_REQUIRE(n_sinks == collected_.size(),
                "snapshot executor output-port mismatch");
  for (auto& bucket : collected_) {
    const std::uint64_t len = r.count(8);
    bucket.clear();
    bucket.reserve(static_cast<std::size_t>(len));
    for (std::uint64_t i = 0; i < len; ++i) {
      bucket.push_back(arch::make_word_u(r.u64()));
    }
  }
  dirty_ = r.vec_u8();
  VLSIP_REQUIRE(dirty_.size() == nodes_.size(),
                "snapshot executor dirty-flag mismatch");
  now_ = r.u64();
  faults_in_service_ = r.i32();
  const std::uint64_t active_size = r.u64();
  VLSIP_REQUIRE(active_size == nodes_.size(),
                "snapshot executor activity-set mismatch");
  if (!active_.restore_words(static_cast<std::size_t>(active_size),
                             r.vec_u64())) {
    throw snapshot::SnapshotError("snapshot executor activity words corrupt");
  }
  wake_.clear();
  const std::uint64_t n_wakes = r.count(12);
  for (std::uint64_t i = 0; i < n_wakes; ++i) {
    const std::uint64_t when = r.u64();
    const std::uint32_t id = r.u32();
    // A drain inserts every woken id into the activity set unchecked.
    if (id >= nodes_.size()) {
      throw snapshot::SnapshotError("snapshot executor wake names no node");
    }
    wake_.push_raw(when, id);
  }
  pending_count_ = static_cast<std::size_t>(r.u64());
  iota_count_ = static_cast<std::size_t>(r.u64());
  max_busy_ = r.u64();
}

void save_exec_stats(snapshot::Writer& w, const ExecStats& stats) {
  w.section("ap.exec_stats");
  w.u64(stats.cycles);
  w.u64(stats.firings);
  w.u64(stats.tokens_moved);
  w.u64(stats.int_ops);
  w.u64(stats.float_ops);
  w.u64(stats.mem_ops);
  w.u64(stats.transport_ops);
  w.u64(stats.faults);
  w.u64(stats.fault_cycles);
  w.u64(stats.release_tokens);
  w.u64(stats.idle_cycles);
  w.u64(stats.wakes);
  w.u64(stats.quiescence_skips);
  w.b(stats.deadlocked);
  w.b(stats.completed);
  w.u64(stats.blocked_report.size());
  for (const auto& line : stats.blocked_report) w.str(line);
}

ExecStats restore_exec_stats(snapshot::Reader& r) {
  r.section("ap.exec_stats");
  ExecStats stats;
  stats.cycles = r.u64();
  stats.firings = r.u64();
  stats.tokens_moved = r.u64();
  stats.int_ops = r.u64();
  stats.float_ops = r.u64();
  stats.mem_ops = r.u64();
  stats.transport_ops = r.u64();
  stats.faults = r.u64();
  stats.fault_cycles = r.u64();
  stats.release_tokens = r.u64();
  stats.idle_cycles = r.u64();
  stats.wakes = r.u64();
  stats.quiescence_skips = r.u64();
  stats.deadlocked = r.b();
  stats.completed = r.b();
  const std::uint64_t n = r.count(8);
  stats.blocked_report.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    stats.blocked_report.push_back(r.str());
  }
  return stats;
}

}  // namespace vlsip::ap

// Token-driven dataflow execution of a configured datapath.
//
// After acquirement the objects are "free from control" (§2.2): each
// object fires when its operand tokens are present and its downstream
// queues have space, busy-waits its fabric latency, and broadcasts its
// result along the configured chains. There is no program counter — the
// configuration stream's dependencies fully determine execution order.
//
// Virtual hardware (§2.5): in scalar mode an object may have been swapped
// out of the object space. A ready-to-fire non-resident object raises an
// *object fault*; the processor services it through the configuration
// pipeline (evict LRU, load from library, stack shift) and execution
// resumes — exactly the replacement the paper schedules through its
// scheduling table. Streaming mode forbids faults: a streaming datapath
// must fit within capacity C.
//
// Two cycle engines share one firing semantics:
//  - the *dense* reference loop scans every object every cycle;
//  - the *event-driven* loop (ExecConfig::event_driven, the default)
//    only touches objects in the ActivitySet — woken by token arrival,
//    queue-space release, latency expiry, or fault-service completion —
//    and skips runs of cycles where nothing is scheduled (§3.3
//    inactive/sleep states cost zero work). Both produce bit-identical
//    results, traces, and stats; tests/test_properties.cpp sweeps the
//    equivalence over seeded random programs.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "arch/datapath.hpp"
#include "ap/memory_block.hpp"
#include "ap/object_space.hpp"
#include "common/activity_set.hpp"
#include "obs/trace_sink.hpp"

namespace vlsip::snapshot {
class Writer;
class Reader;
}  // namespace vlsip::snapshot

namespace vlsip::ap {

struct ExecConfig {
  /// Per-chain token queue depth (double-buffered channels by default).
  int edge_capacity = 2;
  /// Extra cycles on every memory-object access beyond the SRAM latency
  /// (the out-of-stack global-wire traversal, §2.6.2).
  int memory_wire_penalty = 2;
  /// Cycles without progress after which the run is declared deadlocked.
  std::uint64_t deadlock_window = 10000;
  /// Allow object faults (virtual hardware). Off for streaming.
  bool allow_faults = true;
  /// Concurrent fault services (the configuration-buffer objects, CFB
  /// x3 in Table 3). Bounding this also prevents eviction livelock: a
  /// freshly loaded object gets to fire before a burst of later faults
  /// can push it back to the bottom of the stack.
  int fault_concurrency = 3;
  /// Event-driven cycle engine: only objects with pending work are
  /// touched each cycle and fully idle cycle runs are skipped in O(1).
  /// Off falls back to the dense every-object-every-cycle reference
  /// scan. The two are bit-identical.
  bool event_driven = true;

  friend bool operator==(const ExecConfig&, const ExecConfig&) = default;
};

struct ExecStats {
  std::uint64_t cycles = 0;
  std::uint64_t firings = 0;
  std::uint64_t tokens_moved = 0;
  std::uint64_t int_ops = 0;
  std::uint64_t float_ops = 0;
  std::uint64_t mem_ops = 0;
  std::uint64_t transport_ops = 0;
  std::uint64_t faults = 0;
  std::uint64_t fault_cycles = 0;
  std::uint64_t release_tokens = 0;
  std::uint64_t idle_cycles = 0;
  /// Event-engine observability (always zero in dense mode; excluded
  /// from the dense/event equivalence checks). Wake-queue deliveries
  /// and O(1) idle-run fast-forwards taken.
  std::uint64_t wakes = 0;
  std::uint64_t quiescence_skips = 0;
  bool deadlocked = false;
  bool completed = false;
  /// On deadlock: one line per blocked object explaining what it waits
  /// for (Holt-style wait-for edges, paper ref [10]) — empty otherwise.
  std::vector<std::string> blocked_report;

  std::uint64_t total_ops() const {
    return int_ops + float_ops + mem_ops + transport_ops;
  }
};

/// Checkpoint codecs for ExecStats (free functions — the struct stays
/// an aggregate).
void save_exec_stats(snapshot::Writer& w, const ExecStats& stats);
ExecStats restore_exec_stats(snapshot::Reader& r);

class Executor {
 public:
  /// Fault handler: makes `id` resident (through the configuration
  /// pipeline) and returns the service latency in cycles.
  using FaultHandler = std::function<std::uint64_t(arch::ObjectId)>;

  /// `space` decides residency; `memory` backs load/store objects.
  Executor(const arch::Program& program, const ObjectSpace& space,
           MemorySystem& memory, ExecConfig config = {},
           obs::TraceSink* trace = nullptr);

  /// Rebuilds the executor for a new program in place, reusing the node
  /// / edge / ring / activity arenas from the previous datapath — the
  /// per-job reconfigure path allocates nothing once the farm is warm.
  void rebind(const arch::Program& program);

  void set_fault_handler(FaultHandler handler) {
    fault_handler_ = std::move(handler);
  }

  /// Appends tokens to a named input port's injection queue; the port
  /// name is resolved once for the whole batch.
  void feed(const std::string& input, std::span<const arch::Word> values);
  /// Injects one token into a named input port.
  void feed(const std::string& input, arch::Word value) {
    feed(input, std::span<const arch::Word>(&value, 1));
  }

  /// Runs until every output has collected `expected_per_output` tokens,
  /// the datapath quiesces (expected == 0), or `max_cycles` pass.
  ExecStats run(std::size_t expected_per_output, std::uint64_t max_cycles);

  /// Values collected at a named output, in arrival order.
  const std::vector<arch::Word>& output(const std::string& name) const;

  /// Fires the release tokens through the datapath (§2.2: "An object is
  /// released by receiving and firing release token(s)"), clearing all
  /// in-flight state. Returns the number of release tokens fired (one
  /// per chain, propagated source -> sink).
  std::uint64_t release();

  /// Cycles the release wave needs to sweep the datapath: tokens hop
  /// chain by chain, so the cost is the dependency depth of the chain
  /// DAG (feedback edges are broken by the wave itself). "This
  /// technique reduces the idling time as rapidly as possible" (§5) —
  /// the wave is O(depth), not O(objects).
  std::uint64_t release_wave_depth() const;

  /// Objects whose runtime state diverged from the library image (their
  /// eviction must write back, §2.5). One flag per object id.
  const std::vector<std::uint8_t>& dirty() const { return dirty_; }

  /// Wait-for analysis of the current state: one line per object that
  /// could not fire, naming the blocking resource (missing operand,
  /// full downstream queue, non-residency). Used for the deadlock
  /// report and debugging stuck datapaths.
  std::vector<std::string> diagnose() const;

  /// Checkpoint codec for the *mutable* execution state: token rings,
  /// latched results, latency timers, injection/collection queues and
  /// the event-engine activity/wake structures. Structural state (node
  /// wiring, CSR spans) is NOT serialized — restore() requires an
  /// executor already bound to the identical program (rebind rebuilds
  /// structure deterministically) and overwrites only what runs mutate,
  /// reproducing the machine bit-for-bit including heap layout of the
  /// wake queue.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  /// Token chain between two objects. The queue is a fixed-capacity
  /// ring inside the shared `edge_slots_` arena — no per-token heap
  /// traffic on the hot path. The ring wraps by compare, not division.
  struct Edge {
    arch::ObjectId source;
    arch::ObjectId sink;
    std::int32_t operand;
    std::uint32_t head = 0;  // ring read offset within this edge's span
    std::uint32_t len = 0;
  };

  /// One out-list entry: the edge and the object it feeds side by side,
  /// so waking sinks never loads the edge itself.
  struct OutEdge {
    std::int32_t edge;
    arch::ObjectId sink;
  };

  /// One object's execution state. `rebind` decodes the hot fields of
  /// the object's configuration once per datapath, so the fire path
  /// never reads `object` or calls the out-of-line opcode tables; those
  /// fields are derived, not checkpointed.
  struct Node {
    const arch::LogicalObject* object = nullptr;  // name, initial data
    arch::Word immediate{};  // kConst value
    arch::Opcode op = arch::Opcode::kNop;
    arch::OpClass op_class = arch::OpClass::kNone;
    bool produces = false;  // arch::op_produces(op)
    bool initial_token = false;
    std::uint8_t arity = 0;
    bool has_pending = false;   // completed result awaiting push
    bool pending_produces = false;
    bool fault_in_service = false;
    std::int32_t latency = 0;  // fabric latency, override applied
    /// Chained operand edge per position, -1 if unchained, and the
    /// object that edge comes from; `arity` entries are meaningful.
    std::array<std::int32_t, arch::kMaxSources> in_edges{{-1, -1, -1}};
    std::array<arch::ObjectId, arch::kMaxSources> in_sources{};
    arch::Word pending_value{};
    std::uint32_t out_begin = 0;  // CSR span into out_edges_
    std::uint32_t out_count = 0;
    std::uint64_t busy_until = 0;
    std::uint64_t bind_ready_at = 0;  // fault service completion
    // kIota sequencer state: tokens still to emit and the next value.
    std::uint64_t iota_remaining = 0;
    std::uint64_t iota_next = 0;
    std::int32_t ext_index = -1;   // external injection queue, -1 if none
    std::int32_t sink_slot = -1;   // collection bucket for kSink, -1 if none
  };

  /// External injection queue: consumed front-to-back via a head
  /// cursor, so a run never reallocates while draining.
  struct ExtQueue {
    std::vector<arch::Word> buf;
    std::size_t head = 0;
    bool empty() const { return head >= buf.size(); }
  };

  /// What a scan attempt did — drives event-mode wake-up decisions.
  enum class FireResult : std::uint8_t {
    kFired,           // consumed operands, result latched
    kBlocked,         // missing operand / no space / busy; dormant until woken
    kFaultRaised,     // object fault issued; wake at bind_ready_at
    kFaultPending,    // service in flight; wake already scheduled
    kCfbBusy,         // all CFB entries busy; retry every cycle
    kEvictedRetry,    // service done but object re-evicted; re-fault next cycle
    kFaultForbidden,  // non-resident and faults disallowed; terminal
  };

  ExecStats run_dense(std::size_t expected_per_output,
                      std::uint64_t max_cycles);
  ExecStats run_event(std::size_t expected_per_output,
                      std::uint64_t max_cycles);
  /// One object's slice of a cycle: push then fire, with event-mode
  /// wake bookkeeping when `kEvent` is set. The push, fire and compute
  /// steps below are inlined into it.
  template <bool kEvent>
  void process_node(std::uint32_t id, ExecStats& stats, bool& progress);
  bool outputs_done(std::size_t expected_per_output) const;
  /// Resizes the injection queues or collection buckets to `n` slots,
  /// all empty, without freeing storage: slots past `n` park their
  /// buffers in word_pool_, new slots draw from it. `buffer_of` maps a
  /// slot to its word buffer.
  template <typename Slot, typename BufferOf>
  void refit(std::vector<Slot>& slots, std::size_t n, BufferOf buffer_of);

  bool try_push_pending(Node& node, std::uint64_t now, ExecStats& stats);
  FireResult try_fire(arch::ObjectId id, Node& node, std::uint64_t now,
                      ExecStats& stats);
  bool inputs_ready(const Node& node) const;
  bool outputs_have_space(const Node& node) const;
  arch::Word pop_operand(Node& node, int operand);
  bool compute(const Node& node, const arch::Word* args, arch::Word& result,
               bool& produces, ExecStats& stats);

  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(config_.edge_capacity);
  }
  void push_edge(std::int32_t e, arch::Word w) {
    Edge& edge = edges_[static_cast<std::size_t>(e)];
    const std::uint32_t cap = capacity();
    std::uint32_t at = edge.head + edge.len;
    if (at >= cap) at -= cap;
    edge_slots_[static_cast<std::size_t>(e) * cap + at] = w;
    ++edge.len;
  }
  arch::Word pop_edge(std::int32_t e) {
    Edge& edge = edges_[static_cast<std::size_t>(e)];
    const std::uint32_t cap = capacity();
    const arch::Word w =
        edge_slots_[static_cast<std::size_t>(e) * cap + edge.head];
    if (++edge.head == cap) edge.head = 0;
    --edge.len;
    return w;
  }

  const arch::Program* program_;
  const ObjectSpace& space_;
  MemorySystem& memory_;
  ExecConfig config_;
  obs::TraceSink* trace_;
  FaultHandler fault_handler_;

  std::vector<Edge> edges_;
  std::vector<arch::Word> edge_slots_;  // edges x edge_capacity ring arena
  std::vector<Node> nodes_;
  std::vector<OutEdge> out_edges_;  // CSR payload for Node::out_*
  /// Collection bucket of each named output in program order, -1 for an
  /// output with no sink; outputs_done reads this, not the name map.
  std::vector<std::int32_t> output_slots_;
  std::vector<ExtQueue> ext_;
  std::vector<std::vector<arch::Word>> collected_;  // by Node::sink_slot
  std::vector<std::uint8_t> dirty_;
  /// Spare buffers of injection queues / collection buckets a previous
  /// binding had more of (see refit).
  std::vector<std::vector<arch::Word>> word_pool_;
  std::uint64_t now_ = 0;
  int faults_in_service_ = 0;

  // Event engine state. `active_` holds ids to scan this cycle; `wake_`
  // re-activates ids at future cycles. The three counters give an O(1)
  // "anything in flight?" test: per-node busy_until only ever grows, so
  // the high-water mark equals the live maximum.
  ActivitySet active_;
  WakeQueue wake_;
  std::size_t pending_count_ = 0;
  std::size_t iota_count_ = 0;
  std::uint64_t max_busy_ = 0;

  /// release_wave_depth() scratch, kept so a release allocates nothing.
  struct WaveNode {
    int indegree;
    std::uint64_t level;
  };
  mutable std::vector<WaveNode> wave_;
  mutable std::vector<std::uint32_t> wave_queue_;
};

}  // namespace vlsip::ap

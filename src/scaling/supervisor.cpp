#include "scaling/supervisor.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace vlsip::scaling {

const TaskOutcome& SupervisorResult::outcome(const std::string& name) const {
  for (const auto& o : outcomes) {
    if (o.name == name) return o;
  }
  VLSIP_REQUIRE(false, "no outcome for task: " + name);
  return outcomes.front();  // unreachable
}

Supervisor::Supervisor(ScalingManager& manager) : manager_(manager) {}

void Supervisor::add_task(TaskSpec task) {
  VLSIP_REQUIRE(!task.name.empty(), "task needs a name");
  VLSIP_REQUIRE(!task_index_.contains(task.name),
                "duplicate task name: " + task.name);
  VLSIP_REQUIRE(!task.program.stream.empty(), "task has an empty program");
  VLSIP_REQUIRE(task.clusters >= 1, "task needs at least one cluster");
  task_index_[task.name] = tasks_.size();
  tasks_.push_back(Pending{std::move(task), {}, {}});
}

void Supervisor::add_edge(DataEdge edge) {
  const auto from = task_index_.find(edge.from_task);
  const auto to = task_index_.find(edge.to_task);
  VLSIP_REQUIRE(from != task_index_.end(),
                "unknown producer task: " + edge.from_task);
  VLSIP_REQUIRE(to != task_index_.end(),
                "unknown consumer task: " + edge.to_task);
  VLSIP_REQUIRE(from->second != to->second, "self-edges are not allowed");
  const auto& producer = tasks_[from->second].spec.program;
  VLSIP_REQUIRE(producer.outputs.contains(edge.from_output),
                "producer has no output '" + edge.from_output + "'");
  if (edge.predicate_output) {
    VLSIP_REQUIRE(producer.outputs.contains(*edge.predicate_output),
                  "producer has no output '" + *edge.predicate_output + "'");
  }
  const auto idx = edges_.size();
  tasks_[from->second].out_edges.push_back(idx);
  tasks_[to->second].in_edges.push_back(idx);
  edges_.push_back(std::move(edge));
}

SupervisorResult Supervisor::run(std::uint64_t max_cycles_per_task) {
  enum class EdgeState { kPending, kReadyToTransfer, kCancelled, kDone };
  enum class TaskState { kWaiting, kRan, kSkipped };

  SupervisorResult result;
  result.outcomes.resize(tasks_.size());
  std::vector<EdgeState> edge_state(edges_.size(), EdgeState::kPending);
  std::vector<TaskState> task_state(tasks_.size(), TaskState::kWaiting);
  std::vector<ProcId> procs(tasks_.size(), kNoProc);
  std::vector<std::size_t> unresolved_out(tasks_.size(), 0);
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    result.outcomes[t].name = tasks_[t].spec.name;
    unresolved_out[t] = tasks_[t].out_edges.size();
  }
  std::uint64_t now = 0;

  auto maybe_release_producer = [&](std::size_t t) {
    if (task_state[t] == TaskState::kRan && unresolved_out[t] == 0 &&
        procs[t] != kNoProc) {
      manager_.release(procs[t]);
      procs[t] = kNoProc;
    }
  };

  // Cancels an edge; may cascade into skipping the consumer.
  auto cancel_edge = [&](std::size_t e, auto&& cancel_task_ref) -> void {
    if (edge_state[e] == EdgeState::kCancelled) return;
    VLSIP_INVARIANT(edge_state[e] == EdgeState::kPending,
                    "cancelling a resolved edge");
    edge_state[e] = EdgeState::kCancelled;
    const auto producer = task_index_.at(edges_[e].from_task);
    --unresolved_out[producer];
    maybe_release_producer(producer);
    // If the consumer now has no chance of receiving any data, skip it.
    const auto consumer = task_index_.at(edges_[e].to_task);
    if (task_state[consumer] != TaskState::kWaiting) return;
    bool any_alive = false;
    for (const auto in : tasks_[consumer].in_edges) {
      if (edge_state[in] != EdgeState::kCancelled) any_alive = true;
    }
    if (!any_alive && !tasks_[consumer].in_edges.empty()) {
      cancel_task_ref(consumer, cancel_task_ref);
    }
  };
  auto cancel_task = [&](std::size_t t, auto&& self) -> void {
    task_state[t] = TaskState::kSkipped;
    ++result.tasks_skipped;
    for (const auto out : tasks_[t].out_edges) {
      cancel_edge(out, self);
    }
  };

  auto ready = [&](std::size_t t) {
    if (task_state[t] != TaskState::kWaiting) return false;
    for (const auto in : tasks_[t].in_edges) {
      if (edge_state[in] == EdgeState::kPending) return false;
    }
    return true;  // every in-edge delivered-or-cancelled (skip handled
                  // by cancel cascade)
  };

  std::size_t remaining = tasks_.size();
  while (remaining > 0) {
    bool progress = false;
    for (std::size_t t = 0; t < tasks_.size(); ++t) {
      if (!ready(t)) continue;
      progress = true;
      --remaining;
      if (task_state[t] == TaskState::kSkipped) continue;

      // Allocate and configure.
      auto& spec = tasks_[t].spec;
      const auto cfg_cycles0 = manager_.stats().config_cycles;
      ProcId proc = manager_.allocate(spec.clusters);
      if (proc == kNoProc && manager_.compact() > 0) {
        proc = manager_.allocate(spec.clusters);
      }
      VLSIP_REQUIRE(proc != kNoProc,
                    "cannot allocate " + std::to_string(spec.clusters) +
                        " clusters for task " + spec.name);
      procs[t] = proc;
      now += manager_.stats().config_cycles - cfg_cycles0;

      auto& ap = manager_.processor(proc);
      const auto cfg_stats = ap.configure(spec.program);
      now += cfg_stats.cycles;

      // Pull the incoming data (fig. 7 d: written while inactive).
      for (const auto in : tasks_[t].in_edges) {
        if (edge_state[in] != EdgeState::kReadyToTransfer) continue;
        const auto& edge = edges_[in];
        const auto producer = task_index_.at(edge.from_task);
        const auto& tokens =
            result.outcomes[producer].outputs.at(edge.from_output);
        std::vector<std::uint64_t> words;
        words.reserve(tokens.size());
        for (const auto& w : tokens) words.push_back(w.u);
        const auto cycles =
            manager_.send(procs[producer], proc, words,
                          edge.to_base_address);
        now += cycles;
        result.transfer_cycles += cycles;
        edge_state[in] = EdgeState::kDone;
        --unresolved_out[producer];
        maybe_release_producer(producer);
      }

      // Feed direct inputs, activate, run.
      for (const auto& [name, words] : spec.direct_inputs) {
        ap.feed(name, words);
      }
      manager_.activate(proc);
      auto& outcome = result.outcomes[t];
      outcome.ran = true;
      outcome.started_at = now;
      outcome.config_cycles = cfg_stats.cycles;
      const auto exec = ap.run(spec.expected_per_output,
                               max_cycles_per_task);
      manager_.deactivate(proc);
      outcome.completed = exec.completed;
      outcome.exec_cycles = exec.cycles;
      now += exec.cycles;
      outcome.finished_at = now;
      for (const auto& [name, obj] : spec.program.outputs) {
        (void)obj;
        outcome.outputs[name] = ap.output(name);
      }
      task_state[t] = TaskState::kRan;
      ++result.tasks_run;

      // Resolve the outgoing edges (predicates decide activation).
      for (const auto out : tasks_[t].out_edges) {
        const auto& edge = edges_[out];
        bool active = true;
        if (edge.predicate_output) {
          const auto& pred = outcome.outputs.at(*edge.predicate_output);
          VLSIP_REQUIRE(!pred.empty(),
                        "predicate output produced no token");
          const bool truthy = pred.back().u != 0;
          active = edge.predicate_negated ? !truthy : truthy;
        }
        if (active) {
          edge_state[out] = EdgeState::kReadyToTransfer;
        } else {
          cancel_edge(out, cancel_task);
        }
      }
      maybe_release_producer(t);
    }
    VLSIP_REQUIRE(progress || remaining == 0,
                  "task graph contains a cycle or an unsatisfiable task");
    // Account for tasks skipped by the cancel cascade this round.
    std::size_t still_waiting = 0;
    for (std::size_t t = 0; t < tasks_.size(); ++t) {
      if (task_state[t] == TaskState::kWaiting) ++still_waiting;
    }
    // `remaining` counts waiting + skipped-but-not-yet-visited; refresh.
    remaining = still_waiting;
  }

  // Release anything still held (producers whose consumers were skipped
  // had their edges cancelled, but be thorough).
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    if (procs[t] != kNoProc) {
      manager_.release(procs[t]);
      procs[t] = kNoProc;
    }
  }
  result.total_cycles = now;
  return result;
}

}  // namespace vlsip::scaling

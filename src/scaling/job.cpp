#include "scaling/job.hpp"

#include "common/require.hpp"

namespace vlsip::scaling {

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kPending: return "pending";
    case JobStatus::kCompleted: return "completed";
    case JobStatus::kDeadlocked: return "deadlocked";
    case JobStatus::kTimedOut: return "timeout";
    case JobStatus::kNoAllocation: return "no-allocation";
    case JobStatus::kRejected: return "rejected";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kError: return "error";
  }
  return "unknown";
}

JobOutcome run_job_on(ScalingManager& manager, ProcId proc, const Job& job,
                      std::uint64_t default_max_cycles) {
  VLSIP_REQUIRE(manager.alive(proc), "run_job_on needs a live processor");
  const std::uint64_t budget =
      job.max_cycles != 0 ? job.max_cycles : default_max_cycles;

  JobOutcome outcome;
  outcome.name = job.name;
  outcome.clusters_used = manager.cluster_count(proc);

  auto& ap = manager.processor(proc);
  const auto config_stats = ap.configure(job.program);
  for (const auto& [name, words] : job.inputs) {
    ap.feed(name, words);
  }
  manager.activate(proc);
  ap::ExecStats exec;
  try {
    exec = ap.run(job.expected_per_output, budget);
  } catch (...) {
    // Leave the processor inactive even on a model violation so the
    // caller (e.g. a farm batch) can keep using or release it.
    manager.deactivate(proc);
    throw;
  }
  manager.deactivate(proc);

  outcome.completed = exec.completed;
  outcome.config_cycles = config_stats.cycles;
  outcome.exec_cycles = exec.cycles;
  outcome.faults = exec.faults;
  if (exec.completed) {
    outcome.status = JobStatus::kCompleted;
    for (const auto& [name, obj] : job.program.outputs) {
      (void)obj;
      outcome.outputs[name] = ap.output(name);
    }
  } else if (exec.deadlocked) {
    outcome.status = JobStatus::kDeadlocked;
    outcome.detail = "deadlocked";
    for (const auto& line : exec.blocked_report) {
      outcome.detail += "; " + line;
    }
  } else {
    outcome.status = JobStatus::kTimedOut;
    outcome.detail =
        "exceeded cycle budget (" + std::to_string(budget) + ")";
  }
  return outcome;
}

}  // namespace vlsip::scaling

#include "runtime/replay.hpp"

#include "arch/serialize.hpp"

namespace vlsip::runtime {

void save_job(snapshot::Writer& w, const scaling::Job& job) {
  w.section("replay.job");
  w.str(job.name);
  arch::save_program(w, job.program);
  w.u64(job.inputs.size());
  for (const auto& [name, words] : job.inputs) {
    w.str(name);
    w.u64(words.size());
    for (const auto& word : words) w.u64(word.u);
  }
  w.u64(job.expected_per_output);
  w.u64(job.requested_clusters);
  w.u64(job.max_cycles);
}

scaling::Job restore_job(snapshot::Reader& r) {
  r.section("replay.job");
  scaling::Job job;
  job.name = r.str();
  job.program = arch::restore_program(r);
  const std::uint64_t n_inputs = r.count(16);
  for (std::uint64_t i = 0; i < n_inputs; ++i) {
    std::string name = r.str();
    std::vector<arch::Word> words(static_cast<std::size_t>(r.count(8)));
    for (auto& word : words) word.u = r.u64();
    job.inputs.emplace(std::move(name), std::move(words));
  }
  job.expected_per_output = static_cast<std::size_t>(r.u64());
  job.requested_clusters = static_cast<std::size_t>(r.u64());
  job.max_cycles = r.u64();
  return job;
}

void save_outcome(snapshot::Writer& w, const scaling::JobOutcome& outcome) {
  w.section("replay.outcome");
  w.str(outcome.name);
  w.u64(outcome.id);
  w.b(outcome.completed);
  w.u8(static_cast<std::uint8_t>(outcome.status));
  w.str(outcome.detail);
  w.u64(outcome.queued_at);
  w.u64(outcome.started_at);
  w.u64(outcome.finished_at);
  w.u64(outcome.clusters_used);
  w.u64(outcome.config_cycles);
  w.u64(outcome.exec_cycles);
  w.u64(outcome.faults);
  w.u32(outcome.attempts);
  w.u64(outcome.resumed_from_cycle);
  w.u64(outcome.energy_fj);
  w.u64(outcome.outputs.size());
  for (const auto& [name, words] : outcome.outputs) {
    w.str(name);
    w.u64(words.size());
    for (const auto& word : words) w.u64(word.u);
  }
}

scaling::JobOutcome restore_outcome(snapshot::Reader& r) {
  r.section("replay.outcome");
  scaling::JobOutcome outcome;
  outcome.name = r.str();
  outcome.id = r.u64();
  outcome.completed = r.b();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(scaling::JobStatus::kError)) {
    throw snapshot::SnapshotError("outcome has unknown job status " +
                                  std::to_string(status));
  }
  outcome.status = static_cast<scaling::JobStatus>(status);
  outcome.detail = r.str();
  outcome.queued_at = r.u64();
  outcome.started_at = r.u64();
  outcome.finished_at = r.u64();
  outcome.clusters_used = static_cast<std::size_t>(r.u64());
  outcome.config_cycles = r.u64();
  outcome.exec_cycles = r.u64();
  outcome.faults = r.u64();
  outcome.attempts = r.u32();
  outcome.resumed_from_cycle = r.u64();
  outcome.energy_fj = r.u64();
  const std::uint64_t n_outputs = r.count(16);
  for (std::uint64_t i = 0; i < n_outputs; ++i) {
    std::string name = r.str();
    std::vector<arch::Word> words(static_cast<std::size_t>(r.count(8)));
    for (auto& word : words) word.u = r.u64();
    outcome.outputs.emplace(std::move(name), std::move(words));
  }
  return outcome;
}

void ReplayLog::save(snapshot::Writer& w) const {
  w.section("replay.log");
  w.u64(jobs.size());
  for (const auto& job : jobs) save_job(w, job);
  w.u64(next_job);
  w.u64(checkpoint_tick);
}

void ReplayLog::restore(snapshot::Reader& r) {
  r.section("replay.log");
  jobs.clear();
  const std::uint64_t n = r.count(32);
  jobs.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) jobs.push_back(restore_job(r));
  next_job = static_cast<std::size_t>(r.u64());
  checkpoint_tick = r.u64();
  if (next_job > jobs.size()) {
    throw snapshot::SnapshotError("replay log cursor is past its jobs");
  }
}

std::vector<scaling::JobOutcome> replay_from(
    core::VlsiProcessor& chip, const snapshot::Snapshot& checkpoint,
    const ReplayLog& log, std::uint64_t default_max_cycles) {
  {
    snapshot::Reader r(checkpoint);
    chip.restore(r);
  }
  std::vector<scaling::JobOutcome> outcomes;
  outcomes.reserve(log.jobs.size() - log.next_job);
  for (std::size_t i = log.next_job; i < log.jobs.size(); ++i) {
    scaling::JobOutcome outcome =
        scaling::run_job(chip.manager(), log.jobs[i], default_max_cycles);
    outcome.resumed_from_cycle = log.checkpoint_tick;
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace vlsip::runtime

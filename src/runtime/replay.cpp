#include "runtime/replay.hpp"

#include <future>

#include "arch/serialize.hpp"
#include "common/require.hpp"

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

StatusOr<std::vector<scaling::JobOutcome>> replay_from(
    const FarmConfig& config, const snapshot::Snapshot& checkpoint,
    std::uint64_t checkpoint_tick, std::vector<scaling::Job> jobs) {
  FarmConfig one_chip;
  one_chip.workers = 1;
  one_chip.deterministic = true;
  one_chip.batch = config.batch;
  one_chip.default_max_cycles = config.default_max_cycles;
  one_chip.dvs = config.dvs;
  one_chip.keep_outcome_log = false;
  one_chip.chip = config.chip;
  ChipFarm farm(std::move(one_chip));
  const Status restored = farm.restore_chip(0, checkpoint, checkpoint_tick);
  if (!restored.ok()) return restored;

  std::vector<std::future<scaling::JobOutcome>> pending;
  pending.reserve(jobs.size());
  try {
    for (auto& job : jobs) {
      pending.push_back(farm.submit(std::move(job)).outcome);
    }
  } catch (const PreconditionError& e) {
    return Status(StatusCode::kInvalidArgument, e.what());
  }
  farm.drain();
  std::vector<scaling::JobOutcome> outcomes;
  outcomes.reserve(pending.size());
  for (auto& outcome : pending) outcomes.push_back(outcome.get());
  return outcomes;
}

}  // namespace vlsip::runtime

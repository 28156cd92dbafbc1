#include "workload/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "net/client.hpp"
#include "obs/json.hpp"
#include "runtime/manifest.hpp"
#include "runtime/replay.hpp"

namespace vlsip::workload {

namespace {

using scaling::JobOutcome;
using scaling::JobStatus;

constexpr std::size_t kStatusSlots = 8;

struct Agg {
  std::size_t jobs = 0;
  std::size_t by_status[kStatusSlots] = {0};
  std::vector<std::uint64_t> latencies;  // completed jobs only
  std::vector<std::uint64_t> energies;   // completed jobs, energy mode
  std::uint64_t exec_cycles = 0;
  std::uint64_t config_cycles = 0;
  std::uint64_t energy_fj = 0;

  void add(const JobOutcome* outcome, bool energy) {
    ++jobs;
    // A job with no outcome never reached the farm; count it rejected.
    const JobStatus status =
        outcome == nullptr ? JobStatus::kRejected : outcome->status;
    ++by_status[static_cast<std::size_t>(status)];
    if (outcome == nullptr) return;
    exec_cycles += outcome->exec_cycles;
    config_cycles += outcome->config_cycles;
    energy_fj += outcome->energy_fj;
    if (status == JobStatus::kCompleted) {
      latencies.push_back(outcome->turnaround());
      if (energy) energies.push_back(outcome->energy_fj);
    }
  }

  std::size_t count(JobStatus s) const {
    return by_status[static_cast<std::size_t>(s)];
  }
};

/// Nearest-rank percentile of a sorted, non-empty vector.
std::uint64_t percentile(const std::vector<std::uint64_t>& sorted,
                         std::size_t pct) {
  const std::size_t n = sorted.size();
  const std::size_t rank = (pct * n + 99) / 100;  // ceil(pct*n/100)
  return sorted[rank == 0 ? 0 : rank - 1];
}

void write_percentiles(obs::JsonWriter& w, const std::string& key,
                       std::vector<std::uint64_t>& values) {
  std::sort(values.begin(), values.end());
  w.key(key);
  w.begin_object();
  w.field("p50", percentile(values, 50));
  w.field("p95", percentile(values, 95));
  w.field("p99", percentile(values, 99));
  w.field("max", values.back());
  w.end_object();
}

void write_status_counts(obs::JsonWriter& w, const Agg& agg) {
  w.field("completed", static_cast<std::uint64_t>(
                           agg.count(JobStatus::kCompleted)));
  w.field("cancelled", static_cast<std::uint64_t>(
                           agg.count(JobStatus::kCancelled)));
  w.field("timed_out", static_cast<std::uint64_t>(
                           agg.count(JobStatus::kTimedOut)));
  w.field("deadlocked", static_cast<std::uint64_t>(
                            agg.count(JobStatus::kDeadlocked)));
  w.field("no_allocation", static_cast<std::uint64_t>(
                               agg.count(JobStatus::kNoAllocation)));
  w.field("rejected", static_cast<std::uint64_t>(
                          agg.count(JobStatus::kRejected)));
  w.field("errors",
          static_cast<std::uint64_t>(agg.count(JobStatus::kError)));
}

/// Renders the report. `outcomes[i]` pairs with `stream.jobs[i]` and
/// may be null (never served). Deterministic: every emitted number is
/// integer math over deterministic inputs; map iteration gives the
/// kernels array a sorted, stable order.
std::string render_report(const JobStream& stream,
                          const std::vector<const JobOutcome*>& outcomes,
                          std::uint64_t final_tick) {
  const ScenarioPack& pack = stream.pack;
  Agg totals;
  std::map<std::string, Agg> kernels;
  for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
    totals.add(outcomes[i], pack.energy);
    kernels[stream.jobs[i].kernel].add(outcomes[i], pack.energy);
  }

  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema_version", obs::kJsonSchemaVersion);
  w.field("report", "workload-pack");
  w.field("report_version", kPackReportVersion);

  w.key("pack");
  w.begin_object();
  w.field("name", pack.name);
  w.field("seed", pack.seed);
  w.field("jobs", static_cast<std::uint64_t>(pack.jobs));
  w.field("arrival", to_string(pack.arrival));
  w.field("mean_gap", pack.mean_gap);
  if (pack.arrival == ArrivalModel::kBursty) {
    w.field("mean_burst", static_cast<std::uint64_t>(pack.mean_burst));
  }
  if (pack.arrival == ArrivalModel::kDiurnal) {
    w.field("diurnal_period",
            static_cast<std::uint64_t>(pack.diurnal_period));
  }
  w.key("mix");
  w.begin_object();
  for (std::size_t i = 0; i < kKernelKinds; ++i) {
    w.field(to_string(static_cast<KernelKind>(i)), pack.mix[i]);
  }
  w.end_object();
  w.field("width_min", pack.width_min);
  w.field("width_max", pack.width_max);
  w.field("tokens_min", static_cast<std::uint64_t>(pack.tokens_min));
  w.field("tokens_max", static_cast<std::uint64_t>(pack.tokens_max));
  w.field("deadline_pressure_pct",
          static_cast<std::uint64_t>(
              std::llround(pack.deadline_pressure * 100.0)));
  w.field("deadline_allowance", pack.deadline_allowance);
  w.field("churn_pct",
          static_cast<std::uint64_t>(std::llround(pack.churn * 100.0)));
  w.field("energy", pack.energy);
  w.end_object();

  w.key("totals");
  w.begin_object();
  w.field("jobs", static_cast<std::uint64_t>(totals.jobs));
  write_status_counts(w, totals);
  w.field("exec_cycles", totals.exec_cycles);
  w.field("config_cycles", totals.config_cycles);
  if (pack.energy) w.field("energy_fj", totals.energy_fj);
  w.field("final_tick", final_tick);
  w.end_object();

  w.key("kernels");
  w.begin_array();
  for (auto& [label, agg] : kernels) {
    w.begin_object();
    w.field("kernel", label);
    w.field("jobs", static_cast<std::uint64_t>(agg.jobs));
    write_status_counts(w, agg);
    w.field("exec_cycles", agg.exec_cycles);
    if (!agg.latencies.empty()) {
      write_percentiles(w, "latency", agg.latencies);
    }
    if (pack.energy && !agg.energies.empty()) {
      write_percentiles(w, "energy_fj", agg.energies);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out.str();
}

/// Manifest and synthetic jobs: arrival 0, no deadline, no kernel.
JobStream untimed(std::vector<scaling::Job> jobs) {
  JobStream stream;
  stream.jobs.reserve(jobs.size());
  for (auto& job : jobs) {
    stream.jobs.push_back(TimedJob{std::move(job), 0, 0, {}});
  }
  return stream;
}

constexpr const char* kSynthetic = "@synthetic:";

const Status kEmptyStream(StatusCode::kInvalidArgument,
                          "the job stream is empty — build it from a pack "
                          "first");

}  // namespace

bool is_pack_ref(const std::string& ref, bool pack_files) {
  return ref.rfind(kSynthetic, 0) != 0 &&
         (pack_files || ref.rfind("@preset:", 0) == 0);
}

StatusOr<JobStream> load_jobs(const std::string& ref, bool pack_files,
                              std::uint64_t seed, std::size_t jobs) {
  if (ref.rfind(kSynthetic, 0) == 0) {
    // @synthetic:N[:seed]
    const auto fields = ref_integers(ref, std::strlen(kSynthetic), 2);
    if (!fields.ok()) return fields.status();
    runtime::SyntheticSpec spec;
    spec.jobs = static_cast<std::size_t>((*fields)[0]);
    if (fields->size() == 2) spec.seed = (*fields)[1];
    return untimed(runtime::synthetic_jobs(spec));
  }
  if (is_pack_ref(ref, pack_files)) {
    auto pack = load_pack(ref);
    if (!pack.ok()) return pack.status();
    JobStreamBuilder builder;
    builder.pack(std::move(*pack));
    if (seed != 0) builder.seed(seed);
    if (jobs != 0) builder.jobs(jobs);
    return builder.try_build();
  }
  try {
    return untimed(runtime::load_manifest(ref));
  } catch (const std::exception& e) {
    return Status(StatusCode::kInvalidArgument, e.what());
  }
}

Served serve(const JobStream& stream, runtime::FarmConfig config) {
  if (stream.pack.energy) config.dvs.enabled = true;
  Served served;
  served.energy = config.dvs.enabled;
  const bool want_obs = config.trace != nullptr;
  const auto t0 = std::chrono::steady_clock::now();
  runtime::ChipFarm farm(std::move(config));
  for (const TimedJob& timed : stream.jobs) {
    runtime::SubmitOptions submit;
    submit.arrival_tick = timed.arrival;
    submit.deadline = timed.deadline;
    if (!farm.submit(timed.job, std::move(submit)).admitted) {
      ++served.rejected;
    }
  }
  farm.drain();
  served.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  served.final_tick = farm.now();
  served.workers = farm.workers();
  served.metrics = farm.metrics();
  served.log = farm.outcome_log();
  served.health = farm.health();
  if (want_obs) served.obs = farm.obs_metrics();
  farm.shutdown();
  return served;
}

StatusOr<RemoteServed> serve_remote(const JobStream& stream,
                                    const HubTarget& hub,
                                    const HubControl& control) {
  net::HubClient::Options options;
  options.hub = hub.address;
  options.name = control.client_name;
  options.max_in_flight = hub.window;
  auto client = net::HubClient::connect(std::move(options));
  if (!client.ok()) return client.status();

  std::map<std::uint64_t, std::size_t> index_by_seq;
  for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
    auto seq = client->submit(stream.jobs[i].job);
    if (!seq.ok()) return seq.status();
    index_by_seq[*seq] = i;
  }

  RemoteServed remote;
  remote.outcomes.resize(stream.jobs.size());
  const auto collect = [&](std::size_t n) -> Status {
    auto results = client->collect(n);
    if (!results.ok()) return results.status();
    for (auto& result : *results) {
      const auto it = index_by_seq.find(result.id);
      if (it == index_by_seq.end()) continue;
      remote.outcomes[it->second] = std::move(result.outcome);
    }
    return Status::Ok();
  };
  // With a drain requested, the first wave stops after drain_after
  // results so the migration happens mid-run.
  const std::size_t total = stream.jobs.size();
  const std::size_t first_wave =
      control.drain_worker > 0 ? std::min(control.drain_after, total) : total;
  Status status = collect(first_wave);
  if (status.ok() && control.drain_worker > 0) {
    status = client->drain_worker(control.drain_worker);
    if (status.ok()) status = collect(total - first_wave);
  }
  if (!status.ok()) return status;

  if (control.fetch_metrics) {
    auto metrics = client->metrics_json();
    if (metrics.ok()) remote.hub_metrics = std::move(*metrics);
  }
  if (control.shutdown_hub) {
    (void)client->shutdown_hub();
  } else {
    client->goodbye();
  }
  return remote;
}

StatusOr<std::string> pack_report(const JobStream& stream,
                                  const Served& served) {
  if (stream.jobs.empty()) return kEmptyStream;
  std::map<std::string, const JobOutcome*> by_name;
  for (const auto& outcome : served.log) by_name[outcome.name] = &outcome;
  std::vector<const JobOutcome*> outcomes;
  outcomes.reserve(stream.jobs.size());
  for (const TimedJob& timed : stream.jobs) {
    const auto it = by_name.find(timed.job.name);
    outcomes.push_back(it == by_name.end() ? nullptr : it->second);
  }
  return render_report(stream, outcomes, served.final_tick);
}

StatusOr<std::string> pack_report(const JobStream& stream,
                                  const RemoteServed& remote) {
  if (stream.jobs.empty()) return kEmptyStream;
  std::vector<const JobOutcome*> outcomes;
  outcomes.reserve(stream.jobs.size());
  for (const auto& outcome : remote.outcomes) {
    outcomes.push_back(outcome ? &*outcome : nullptr);
  }
  return render_report(stream, outcomes, 0);
}

void save_stream(snapshot::Writer& w, const JobStream& stream) {
  const ScenarioPack& p = stream.pack;
  w.section("workload.stream");
  w.str(p.name);
  w.u64(p.seed);
  w.u64(p.jobs);
  w.u8(static_cast<std::uint8_t>(p.arrival));
  w.u64(p.mean_gap);
  w.u64(p.mean_burst);
  w.u64(p.diurnal_period);
  for (std::size_t i = 0; i < kKernelKinds; ++i) w.u32(p.mix[i]);
  w.i32(p.width_min);
  w.i32(p.width_max);
  w.u64(p.tokens_min);
  w.u64(p.tokens_max);
  w.f64(p.deadline_pressure);
  w.u64(p.deadline_allowance);
  w.f64(p.churn);
  w.b(p.energy);
  w.u64(stream.jobs.size());
  for (const TimedJob& timed : stream.jobs) {
    runtime::save_job(w, timed.job);
    w.u64(timed.arrival);
    w.u64(timed.deadline);
    w.str(timed.kernel);
  }
}

JobStream restore_stream(snapshot::Reader& r) {
  JobStream stream;
  ScenarioPack& p = stream.pack;
  r.section("workload.stream");
  p.name = r.str();
  p.seed = r.u64();
  p.jobs = static_cast<std::size_t>(r.u64());
  p.arrival = static_cast<ArrivalModel>(r.u8());
  p.mean_gap = r.u64();
  p.mean_burst = static_cast<std::size_t>(r.u64());
  p.diurnal_period = static_cast<std::size_t>(r.u64());
  for (std::size_t i = 0; i < kKernelKinds; ++i) p.mix[i] = r.u32();
  p.width_min = r.i32();
  p.width_max = r.i32();
  p.tokens_min = static_cast<std::size_t>(r.u64());
  p.tokens_max = static_cast<std::size_t>(r.u64());
  p.deadline_pressure = r.f64();
  p.deadline_allowance = r.u64();
  p.churn = r.f64();
  p.energy = r.b();
  const std::uint64_t count = r.u64();
  stream.jobs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    TimedJob timed;
    timed.job = runtime::restore_job(r);
    timed.arrival = r.u64();
    timed.deadline = r.u64();
    timed.kernel = r.str();
    stream.jobs.push_back(std::move(timed));
  }
  return stream;
}

StatusOr<JobStream> replay_stream(const JobStream& stream) {
  try {
    snapshot::Snapshot snap;
    snapshot::Writer w(snap);
    save_stream(w, stream);
    snapshot::Reader r(snap);
    JobStream restored = restore_stream(r);
    VLSIP_REQUIRE(r.done(), "trailing bytes after the encoded stream");
    return restored;
  } catch (const snapshot::SnapshotError& e) {
    return Status(StatusCode::kCorruptSnapshot, e.what());
  } catch (const std::exception& e) {
    return Status(StatusCode::kInvalidArgument, e.what());
  }
}

}  // namespace vlsip::workload

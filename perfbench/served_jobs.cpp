// Served-jobs benchmark program.
//
// Serves a seeded scenario-pack job stream (src/workload) through the
// public APIs — a deterministic runtime::ChipFarm, or net::HubClient to
// a real `vlsipc hub` with one `vlsipc worker` — and prints one JSON
// result line. With --trace 0 it reports the end-to-end metrics with no
// tracing; with --trace 1 it reports the per-layer metrics, which come
// from timing each call into a layer's public functions while replaying
// the stream in the order the farm served it.
//
//   served_jobs --workload NAME --seed N --seconds S --trace 0|1
//               [--jobs N] [--vlsipc PATH]
//
// perfbench/run.py builds and runs this program; perfbench/BENCHMARK.md
// lists the workloads, the metrics and the correctness gate.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/simd.hpp"
#include "core/vlsi_processor.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/farm_config_builder.hpp"
#include "workload/kernels.hpp"
#include "workload/scenario.hpp"

extern char** environ;

namespace {

using namespace vlsip;
using Clock = std::chrono::steady_clock;

/// A run that cannot produce a result: message on stderr, exit code 1.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void fail(const std::string& why) { throw BenchError(why); }

template <typename T>
T take(StatusOr<T> value, const std::string& what) {
  if (!value.ok()) fail(what + ": " + value.status().to_string());
  return std::move(*value);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double cpu_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Nearest-rank percentile (the rule the pack report uses); 0 when empty.
template <typename T>
T percentile(std::vector<T> values, double pct) {
  if (values.empty()) return T{};
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

// ---- workloads --------------------------------------------------------------

/// Jobs the hub client keeps in flight (closed loop).
constexpr std::size_t kHubWindow = 64;

/// A run serves `sub_streams` streams of `pack.jobs` jobs each. Stream k
/// of run seed s is the pack expanded with seed 1000 * s + k, so one run
/// averages over many independent draws of the traffic and two seeds
/// never share a stream; stream 0 is what steady and hub both serve
/// first, and its output digest is the one the record line carries.
struct Workload {
  std::string name;
  workload::ScenarioPack pack;
  std::uint64_t seed = 1;
  std::size_t sub_streams = 1;
  /// Farm batch ceiling (FarmConfig::batch.max_jobs).
  std::size_t batch = 8;
  bool hub = false;
};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t jobs) {
  Workload w;
  w.name = name;
  w.seed = seed;
  // Stream sizes and counts: one pass over the streams takes 3-8
  // host-seconds on a 4-core x86 host. The simulated latency tail of a
  // stream grows with its length (the batcher pulls later arrivals
  // forward), so many short streams give percentiles that differ less
  // from seed to seed than a few long ones.
  std::size_t default_jobs = 250;
  if (name == "steady" || name == "hub") {
    w.pack = take(workload::load_pack("@preset:steady"), "steady preset");
    w.hub = name == "hub";
    w.sub_streams = w.hub ? 64 : 256;
  } else if (name == "long-streams") {
    using workload::KernelKind;
    w.pack = take(workload::ScenarioPackBuilder()
                      .name("long-streams")
                      .steady(2000)
                      .kernel_weight(KernelKind::kDot, 1)
                      .kernel_weight(KernelKind::kFir, 3)
                      .kernel_weight(KernelKind::kGas, 3)
                      .kernel_weight(KernelKind::kReduce, 1)
                      .kernel_weight(KernelKind::kFilter, 2)
                      .widths(2, 4)
                      .tokens(56, 64)
                      .try_build(),
                  "long-streams pack");
    w.sub_streams = 256;
  } else if (name == "fuse-per-job") {
    w.pack = take(workload::load_pack("@preset:churn"), "churn preset");
    w.batch = 1;
    default_jobs = 50;
    w.sub_streams = 256;
  } else {
    fail("unknown workload '" + name +
         "' (steady, long-streams, fuse-per-job, hub)");
  }
  w.pack.jobs = jobs != 0 ? jobs : default_jobs;
  return w;
}

workload::JobStream build_stream(const Workload& w, std::size_t k) {
  workload::ScenarioPack pack = w.pack;
  pack.seed = 1000 * w.seed + k;
  return take(workload::JobStreamBuilder().pack(pack).try_build(),
              "job stream");
}

/// The farm every local serve uses. Mirrors workload::run_pack's local
/// mode: deterministic, one chip, default geometry and cycle budget.
runtime::FarmConfig farm_config(const Workload& w, obs::TraceSink* sink) {
  return runtime::FarmConfigBuilder()
      .deterministic()
      .batch(w.batch)
      .keep_outcome_log(true)
      .trace_sink(sink)
      .build();
}

// ---- correctness ------------------------------------------------------------

workload::KernelSpec spec_of(const std::string& label) {
  const std::size_t digit = label.find_first_of("0123456789");
  workload::KernelSpec spec;
  if (digit == std::string::npos || digit == 0 ||
      !workload::kernel_kind_from_string(label.substr(0, digit), &spec.kind)) {
    fail("unparseable kernel label '" + label + "'");
  }
  spec.width = std::stoi(label.substr(digit));
  return spec;
}

/// Host-side reference outputs of one job, from the kernel family's
/// semantics (docs/WORKLOADS.md; the coefficient schedules mirror
/// src/workload/kernels.cpp, as tests/test_workload.cpp does).
std::map<std::string, std::vector<std::int64_t>> reference_outputs(
    const workload::TimedJob& timed) {
  const workload::KernelSpec spec = spec_of(timed.kernel);
  const auto& in = timed.job.inputs;
  const auto input = [&](const std::string& port) {
    std::vector<std::int64_t> values;
    for (const arch::Word& w : in.at(port)) values.push_back(w.i);
    return values;
  };
  const std::size_t tokens = in.begin()->second.size();
  const int width = spec.width;
  std::map<std::string, std::vector<std::int64_t>> out;
  switch (spec.kind) {
    case workload::KernelKind::kDot:
    case workload::KernelKind::kReduce: {
      std::vector<std::int64_t> y(tokens, 0);
      for (int lane = 0; lane < width; ++lane) {
        const auto x = input("x" + std::to_string(lane));
        const std::int64_t weight =
            spec.kind == workload::KernelKind::kDot ? 1 + (lane * 3) % 7 : 1;
        for (std::size_t t = 0; t < tokens; ++t) y[t] += x[t] * weight;
      }
      out["y"] = y;
      break;
    }
    case workload::KernelKind::kFir: {
      const auto x = input("x");
      std::vector<std::int64_t> y(tokens, 0);
      for (std::size_t t = 0; t < tokens; ++t) {
        for (int k = 0; k < width && static_cast<std::size_t>(k) <= t; ++k) {
          y[t] += x[t - static_cast<std::size_t>(k)] * (1 + (k * 5) % 9);
        }
      }
      out["y"] = y;
      break;
    }
    case workload::KernelKind::kGas:
      for (int v = 0; v < width; ++v) {
        const std::string id = std::to_string(v);
        const auto a = input("e" + id + "a");
        const auto b = input("e" + id + "b");
        std::vector<std::int64_t> s;
        std::int64_t state = 0;
        for (std::size_t t = 0; t < tokens; ++t) {
          state = std::max(state, a[t] + b[t]);
          s.push_back(state);
        }
        out["s" + id] = s;
      }
      break;
    case workload::KernelKind::kFilter: {
      std::vector<std::int64_t> y;
      for (const std::int64_t x : input("x")) {
        if (x > width) y.push_back(x * 3 + 7);
      }
      out["y"] = y;
      break;
    }
  }
  return out;
}

/// FNV-1a over every job's outputs in stream order.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Failed checks of the correctness gate; the run is correct iff empty.
struct Gate {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok && failures.size() < 20) failures.push_back(what);
  }
};

struct OutputCheck {
  std::size_t completed = 0;
  std::uint64_t digest = 0;
};

/// Checks every outcome (stream order) against the reference model and
/// digests the outputs.
OutputCheck check_outputs(const workload::JobStream& stream,
                          const std::vector<scaling::JobOutcome>& outcomes,
                          Gate& gate) {
  OutputCheck check;
  Digest digest;
  for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
    const scaling::JobOutcome& outcome = outcomes[i];
    const std::string& name = stream.jobs[i].job.name;
    if (outcome.status != scaling::JobStatus::kCompleted) {
      gate.require(false, name + " did not complete: " +
                              scaling::to_string(outcome.status) + " " +
                              outcome.detail);
      continue;
    }
    ++check.completed;
    const auto expected = reference_outputs(stream.jobs[i]);
    gate.require(outcome.outputs.size() == expected.size(),
                 name + " has the wrong output ports");
    digest.add(i);
    for (const auto& [port, words] : outcome.outputs) {
      digest.add(port);
      digest.add(words.size());
      std::vector<std::int64_t> got;
      for (const arch::Word& w : words) {
        digest.add(static_cast<std::uint64_t>(w.i));
        got.push_back(w.i);
      }
      const auto it = expected.find(port);
      gate.require(it != expected.end() && it->second == got,
                   name + " output '" + port + "' differs from the reference");
    }
  }
  check.digest = digest.value();
  return check;
}

/// The simulated-time figures of one served stream, which repeat
/// exactly on a deterministic farm.
struct SimFigures {
  std::uint64_t cycles = 0;  // config + exec over completed jobs
  std::vector<std::uint64_t> latencies;  // completed jobs, service order
  bool operator==(const SimFigures&) const = default;
};

/// Arrival-to-finish latency on the virtual clock: each job, in service
/// order, starts at max(its arrival, the previous finish) and takes its
/// config + exec cycles — the rule the deterministic farm's clock follows.
SimFigures sim_figures(const workload::JobStream& stream,
                       const std::vector<scaling::JobOutcome>& outcomes,
                       const std::vector<std::size_t>& service_order) {
  SimFigures sim;
  std::uint64_t clock = 0;
  for (const std::size_t i : service_order) {
    const scaling::JobOutcome& o = outcomes[i];
    const std::uint64_t cycles = o.config_cycles + o.exec_cycles;
    clock = std::max(clock, stream.jobs[i].arrival) + cycles;
    if (o.status != scaling::JobStatus::kCompleted) continue;
    sim.cycles += cycles;
    sim.latencies.push_back(clock - stream.jobs[i].arrival);
  }
  return sim;
}

// ---- local serve ------------------------------------------------------------

/// One pass of a stream through the serving path, local or remote.
struct Served {
  workload::JobStream stream;
  std::vector<scaling::JobOutcome> outcomes;  // stream order
  std::vector<std::size_t> service_order;     // stream indices
  std::vector<double> latency_ms;             // submit to result, stream order
  double setup_s = 0;  // stream build + farm or hub/worker bring-up
  double serve_s = 0;  // first submit to last result
  double rss_mb = 0;   // peak resident memory of the serving process
};

struct LocalServe : Served {
  std::vector<double> submit_us;
  /// Jobs per batch in service order, from the farm's trace sink (traced
  /// serves only).
  std::vector<std::size_t> batch_sizes;
  double cpu_s = 0;
  double sys_s = 0;
};

LocalServe serve_local(const Workload& w, std::size_t k, bool traced) {
  LocalServe s;
  const auto t0 = Clock::now();
  s.stream = build_stream(w, k);
  obs::TraceSink sink(traced);
  auto farm = std::make_unique<runtime::ChipFarm>(
      farm_config(w, traced ? &sink : nullptr));
  const auto t1 = Clock::now();
  s.setup_s = seconds_between(t0, t1);

  const std::size_t n = s.stream.jobs.size();
  std::vector<Clock::time_point> sent(n);
  std::vector<Clock::time_point> done(n);
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  s.submit_us.reserve(n);
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  for (std::size_t i = 0; i < n; ++i) {
    const workload::TimedJob& timed = s.stream.jobs[i];
    runtime::SubmitOptions options;
    options.arrival_tick = timed.arrival;
    options.deadline = timed.deadline;
    // Runs on the farm's worker; drain() below orders it before our reads.
    options.on_complete = [&done, i](const scaling::JobOutcome&) {
      done[i] = Clock::now();
    };
    sent[i] = Clock::now();
    runtime::Admission admission = farm->submit(timed.job, std::move(options));
    s.submit_us.push_back(micros_between(sent[i], Clock::now()));
    if (!admission.admitted) fail("farm rejected a job: " + admission.reason);
    index_of[admission.id] = i;
  }
  farm->drain();
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  const auto last = *std::max_element(done.begin(), done.end());
  s.serve_s = seconds_between(t1, last);
  s.sys_s = cpu_seconds(after.ru_stime) - cpu_seconds(before.ru_stime);
  s.cpu_s = s.sys_s + cpu_seconds(after.ru_utime) - cpu_seconds(before.ru_utime);

  std::vector<scaling::JobOutcome> log = farm->outcome_log();
  farm->shutdown();
  farm.reset();
  rusage peak{};
  getrusage(RUSAGE_SELF, &peak);
  s.rss_mb = static_cast<double>(peak.ru_maxrss) / 1024.0;
  if (log.size() != n) fail("the farm served " + std::to_string(log.size()) +
                            " of " + std::to_string(n) + " jobs");
  s.outcomes.resize(n);
  for (scaling::JobOutcome& outcome : log) {
    const auto it = index_of.find(outcome.id);
    if (it == index_of.end()) fail("outcome for an unknown farm id");
    s.service_order.push_back(it->second);
    s.outcomes[it->second] = std::move(outcome);
  }
  s.latency_ms.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.latency_ms[i] = seconds_between(sent[i], done[i]) * 1e3;
  }
  for (const obs::TraceSink::Event& e : sink.entries()) {
    if (e.category != "batch") continue;
    std::size_t jobs = 0;
    if (std::sscanf(e.message.c_str(), "worker %*u serving batch of %zu jobs",
                    &jobs) != 1) {
      fail("unparseable batch event: " + e.message);
    }
    s.batch_sizes.push_back(jobs);
  }
  return s;
}

// ---- traced replay ----------------------------------------------------------

/// Host time of each layer call made while replaying a served stream.
struct Replay {
  std::vector<std::uint64_t> config_cycles;  // service order
  std::vector<std::uint64_t> exec_cycles;
  std::vector<bool> completed;
  std::vector<double> fuse_us, release_us, configure_us, run_us;
  double feed_us = 0;
  double collect_us = 0;
  double scaling_us = 0;  // fuse + release + activate/deactivate
  double configure_total_us = 0;
  double run_total_us = 0;
  double export_us = 0;
  std::size_t export_calls = 0;
  double total_us = 0;
  std::uint64_t fuses = 0;
  std::uint64_t worm_cycles = 0;
  obs::MetricRegistry chip_metrics;
};

/// Re-serves `served` on a fresh chip exactly as ChipFarm::serve_batch
/// and run_job_on do — one fused processor per batch; configure, feed,
/// activate, run, deactivate, collect per job; release; then the
/// post-batch export_obs — timing each call.
Replay replay(const Workload& w, const LocalServe& served) {
  const runtime::FarmConfig config = farm_config(w, nullptr);
  core::VlsiProcessor chip(config.chip);
  scaling::ScalingManager& manager = chip.manager();
  Replay r;
  const auto start = Clock::now();
  std::size_t pos = 0;
  for (const std::size_t size : served.batch_sizes) {
    if (size == 0 || pos + size > served.service_order.size()) {
      fail("trace batches do not cover the served stream");
    }
    const std::size_t clusters =
        served.stream.jobs[served.service_order[pos]].job.requested_clusters;
    auto a = Clock::now();
    const scaling::ProcId proc = chip.fuse(clusters);
    auto b = Clock::now();
    r.fuse_us.push_back(micros_between(a, b));
    if (proc == scaling::kNoProc) fail("the replay could not fuse a processor");
    ++r.fuses;
    for (std::size_t k = 0; k < size; ++k, ++pos) {
      const scaling::Job& job =
          served.stream.jobs[served.service_order[pos]].job;
      const std::uint64_t budget =
          job.max_cycles != 0 ? job.max_cycles : config.default_max_cycles;
      const auto t0 = Clock::now();
      ap::AdaptiveProcessor& ap = manager.processor(proc);
      const ap::ConfigStats cs = ap.configure(job.program);
      const auto t1 = Clock::now();
      for (const auto& [port, words] : job.inputs) {
        for (const arch::Word& word : words) ap.feed(port, word);
      }
      const auto t2 = Clock::now();
      manager.activate(proc);
      const auto t3 = Clock::now();
      const ap::ExecStats exec = ap.run(job.expected_per_output, budget);
      const auto t4 = Clock::now();
      manager.deactivate(proc);
      const auto t5 = Clock::now();
      std::map<std::string, std::vector<arch::Word>> outputs;
      if (exec.completed) {
        for (const auto& [port, obj] : job.program.outputs) {
          (void)obj;
          outputs[port] = ap.output(port);
        }
      }
      const auto t6 = Clock::now();
      r.configure_us.push_back(micros_between(t0, t1));
      r.configure_total_us += r.configure_us.back();
      r.feed_us += micros_between(t1, t2);
      r.scaling_us += micros_between(t2, t3) + micros_between(t4, t5);
      r.run_us.push_back(micros_between(t3, t4));
      r.run_total_us += r.run_us.back();
      r.collect_us += micros_between(t5, t6);
      r.config_cycles.push_back(cs.cycles);
      r.exec_cycles.push_back(exec.cycles);
      r.completed.push_back(exec.completed);
    }
    a = Clock::now();
    if (manager.alive(proc)) chip.release(proc);
    b = Clock::now();
    r.release_us.push_back(micros_between(a, b));
    a = Clock::now();
    {
      obs::MetricRegistry published;
      chip.export_obs(published);
    }
    b = Clock::now();
    r.export_us += micros_between(a, b);
    ++r.export_calls;
  }
  r.total_us = micros_between(start, Clock::now());
  if (pos != served.service_order.size()) {
    fail("trace batches do not cover the served stream");
  }
  r.scaling_us += sum(r.fuse_us) + sum(r.release_us);
  r.worm_cycles = manager.stats().config_cycles;
  chip.export_obs(r.chip_metrics);
  return r;
}

/// Per-job config/exec cycles and completion, in service order, must
/// match between two serves of the same stream.
void require_same_cycles(const LocalServe& a, const LocalServe& b,
                         const std::string& what, Gate& gate) {
  bool same = a.service_order == b.service_order;
  for (std::size_t i = 0; same && i < a.outcomes.size(); ++i) {
    same = a.outcomes[i].config_cycles == b.outcomes[i].config_cycles &&
           a.outcomes[i].exec_cycles == b.outcomes[i].exec_cycles &&
           a.outcomes[i].status == b.outcomes[i].status;
  }
  gate.require(same, what);
}

void require_replay_matches(const LocalServe& served, const Replay& r,
                            Gate& gate) {
  bool same = r.config_cycles.size() == served.service_order.size();
  for (std::size_t k = 0; same && k < r.config_cycles.size(); ++k) {
    const scaling::JobOutcome& o = served.outcomes[served.service_order[k]];
    same = o.config_cycles == r.config_cycles[k] &&
           o.exec_cycles == r.exec_cycles[k] &&
           (o.status == scaling::JobStatus::kCompleted) == r.completed[k];
  }
  gate.require(same,
               "the traced replay's per-job cycles differ from the farm's");
}

// ---- hub serve --------------------------------------------------------------

/// Child pids the overrun watchdog kills; read from a signal handler.
volatile sig_atomic_t g_children[2] = {0, 0};

void on_overrun(int) {
  for (const sig_atomic_t pid : g_children) {
    if (pid > 0) kill(pid, SIGKILL);
  }
  static const char msg[] = "error: served_jobs overran its time limit\n";
  (void)!write(STDERR_FILENO, msg, sizeof msg - 1);
  _exit(3);
}

/// A spawned vlsipc process. The destructor kills and reaps it, so no
/// exit path leaves it running.
class Child {
 public:
  Child(const std::vector<std::string>& argv, bool capture_stdout) {
    int fds[2] = {-1, -1};
    if (capture_stdout && pipe2(fds, O_CLOEXEC) != 0) {
      fail(std::string("pipe: ") + std::strerror(errno));
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                     O_RDONLY, 0);
    if (capture_stdout) {
      posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    } else {
      posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                       O_WRONLY, 0);
    }
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (capture_stdout) {
      close(fds[1]);
      out_fd_ = fds[0];
    }
    if (rc != 0) {
      pid_ = -1;
      if (out_fd_ >= 0) close(out_fd_);
      fail("cannot start " + argv[0] + ": " + std::strerror(rc));
    }
    for (auto& slot : g_children) {
      if (slot == 0) {
        slot = pid_;
        break;
      }
    }
  }

  ~Child() { stop(0.0); }

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// One line of the child's stdout, waiting at most `timeout_s`.
  std::string read_line(double timeout_s) {
    const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
    std::string line;
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      pollfd pfd{out_fd_, POLLIN, 0};
      if (left <= 0 || poll(&pfd, 1, static_cast<int>(left)) <= 0) {
        fail("timed out waiting for output from pid " + std::to_string(pid_));
      }
      char c = 0;
      const ssize_t got = read(out_fd_, &c, 1);
      if (got <= 0) fail("pid " + std::to_string(pid_) + " closed its output");
      if (c == '\n') return line;
      line.push_back(c);
    }
  }

  /// Waits up to `timeout_s` for the child to exit, then kills it;
  /// returns its resource usage.
  rusage stop(double timeout_s) {
    if (pid_ > 0) {
      const auto deadline =
          Clock::now() + std::chrono::duration<double>(timeout_s);
      int status = 0;
      pid_t got = 0;
      while ((got = wait4(pid_, &status, WNOHANG, &usage_)) == 0 &&
             Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (got == 0) {
        kill(pid_, SIGKILL);
        wait4(pid_, &status, 0, &usage_);
      }
      for (auto& slot : g_children) {
        if (slot == pid_) slot = 0;
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
    return usage_;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  rusage usage_{};
};

/// Value of `"key":NUMBER` in a metrics JSON document; 0 when absent.
double json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

struct HubServe : Served {
  std::vector<double> window_wait_us;
  double worker_cpu_s = 0;
  double worker_sys_s = 0;
  std::uint64_t requeues = 0;
};

HubServe serve_hub(const Workload& w, std::size_t k,
                   const std::string& vlsipc) {
  HubServe s;
  const auto t0 = Clock::now();
  s.stream = build_stream(w, k);
  Child hub({vlsipc, "hub", "--listen", "127.0.0.1:0"}, true);
  const std::string banner = hub.read_line(20.0);
  const std::string prefix = "hub listening on ";
  if (banner.rfind(prefix, 0) != 0) fail("unexpected hub banner: " + banner);
  const std::string address = banner.substr(prefix.size());
  Child worker({vlsipc, "worker", "--hub", address, "--name", "perfbench",
                "--workers", "1", "--batch", std::to_string(w.batch)},
               false);
  net::HubClient::Options options;
  options.hub = address;
  options.name = "perfbench";
  net::HubClient client = take(net::HubClient::connect(options), "hub connect");
  while (json_number(take(client.metrics_json(), "hub metrics"),
                     "hub.live_workers") < 1.0) {
    if (seconds_between(t0, Clock::now()) > 20.0) {
      fail("the worker never joined the hub");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto t1 = Clock::now();
  s.setup_s = seconds_between(t0, t1);

  const std::size_t n = s.stream.jobs.size();
  s.outcomes.resize(n);
  s.latency_ms.resize(n);
  std::vector<Clock::time_point> sent(n);
  std::vector<bool> got(n, false);
  std::size_t received = 0;
  Clock::time_point last = t1;
  const auto receive_one = [&] {
    const auto begin = Clock::now();
    auto results = take(client.collect(1), "collect");
    last = Clock::now();
    for (net::JobResultMsg& result : results) {
      if (result.id >= n || got[result.id]) fail("unexpected result id");
      got[result.id] = true;
      ++received;
      s.latency_ms[result.id] = seconds_between(sent[result.id], last) * 1e3;
      s.outcomes[result.id] = std::move(result.outcome);
    }
    return micros_between(begin, last);
  };
  for (std::size_t i = 0; i < n; ++i) {
    while (client.in_flight() >= kHubWindow) {
      s.window_wait_us.push_back(receive_one());
    }
    sent[i] = Clock::now();
    const std::uint64_t seq = take(client.submit(s.stream.jobs[i].job), "submit");
    if (seq != i) fail("hub client sequence numbers out of step");
  }
  while (received < n) receive_one();
  s.serve_s = seconds_between(t1, last);
  s.requeues = static_cast<std::uint64_t>(json_number(
      take(client.metrics_json(), "hub metrics"), "hub.jobs_requeued"));
  (void)client.shutdown_hub();
  client.goodbye();
  const rusage usage = worker.stop(10.0);
  hub.stop(10.0);
  s.rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  s.worker_sys_s = cpu_seconds(usage.ru_stime);
  s.worker_cpu_s = s.worker_sys_s + cpu_seconds(usage.ru_utime);

  // The worker's farm stamps started_at on its own clock; that order is
  // the service order the virtual-clock latency is folded over.
  s.service_order.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.service_order[i] = i;
  std::stable_sort(s.service_order.begin(), s.service_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return s.outcomes[a].started_at < s.outcomes[b].started_at;
                   });
  return s;
}

// ---- wire codec -------------------------------------------------------------

struct WireCost {
  double bytes = 0;
  double micros = 0;
};

/// Encodes and decodes the frames each job puts on the wire: SubmitJob
/// (client -> hub), AssignJob (hub -> worker) and JobResult twice
/// (worker -> hub -> client).
WireCost wire_cost(const workload::JobStream& stream,
                   const std::vector<scaling::JobOutcome>& outcomes) {
  const std::size_t n = stream.jobs.size();
  std::vector<net::SubmitJobMsg> submits(n);
  std::vector<net::AssignJobMsg> assigns(n);
  std::vector<net::JobResultMsg> results(n);
  for (std::size_t i = 0; i < n; ++i) {
    submits[i].seq = i;
    submits[i].job = stream.jobs[i].job;
    assigns[i].job_id = i + 1;
    assigns[i].job = stream.jobs[i].job;
    results[i].id = i + 1;
    results[i].outcome = outcomes[i];
  }
  WireCost cost;
  const auto roundtrip = [&cost](const auto& msg, int hops) {
    using M = std::decay_t<decltype(msg)>;
    for (int h = 0; h < hops; ++h) {
      const std::vector<std::uint8_t> bytes = net::encode(msg);
      cost.bytes += static_cast<double>(bytes.size());
      const net::Frame frame =
          take(net::decode_frame(bytes.data(), bytes.size()), "frame decode");
      (void)take(net::decode_payload<M>(frame), "payload decode");
    }
  };
  const auto start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    roundtrip(submits[i], 1);
    roundtrip(assigns[i], 1);
    roundtrip(results[i], 2);
  }
  cost.micros = micros_between(start, Clock::now());
  cost.bytes /= static_cast<double>(n);
  cost.micros /= static_cast<double>(n);
  return cost;
}

// ---- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(const Gate& gate, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (gate.failures.empty() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

/// The record line: what was run and on what build. run.py adds the
/// commit and the host (CPU model, nproc). `raw_jobs_per_s` and
/// `reference_ms` are the medians before host-speed scaling (0 in a
/// traced run).
void print_record(const Workload& w, std::size_t rounds, std::uint64_t digest,
                  double raw_jobs_per_s, double reference_ms) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"jobs_per_stream\": %zu, \"streams\": %zu, \"rounds\": %zu, "
      "\"raw_jobs_per_s\": %.1f, \"reference_ms\": %.4f, "
      "\"stream0_output_digest\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"simd_level\": %d, \"simd\": \"%s\"}}\n",
      w.name.c_str(), static_cast<unsigned long long>(w.seed), w.pack.jobs,
      w.sub_streams, rounds, raw_jobs_per_s, reference_ms, hex, kCompiler,
      PERFBENCH_BUILD_TYPE, simd::kLevel, simd::level_name());
}

// ---- host speed -------------------------------------------------------------

/// Median time of reference_ms() on the host the benchmark was sized on
/// (a 4-core Xeon VM, gcc 12, Release).
constexpr double kReferenceMs = 2.8;

/// Times a fixed, allocation-heavy piece of work that shares no code
/// with the program: string keys into an ordered map of vectors, plus a
/// hash map. On a shared host the program's speed drifts by 10-20%
/// over minutes; this work drifts with it, so a round's host times are
/// scaled by how slow the reference ran just before it (BENCHMARK.md,
/// "Host speed").
double reference_ms() {
  const auto start = Clock::now();
  std::size_t acc = 0;
  {
    std::map<std::string, std::vector<std::uint64_t>> tree;
    std::unordered_map<std::uint64_t, std::size_t> hash;
    std::uint64_t x = 88172645463325252ull;  // xorshift64
    for (int i = 0; i < 6000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::vector<std::uint64_t>& v = tree["k" + std::to_string(x % 5000)];
      v.push_back(x);
      hash[x % 20011] += v.size();
    }
    for (const auto& [key, v] : tree) {
      acc += key.size() + v.size() + hash.count(v.front() % 20011);
    }
  }
  const double ms = micros_between(start, Clock::now()) * 1e-3;
  if (acc == 0) fail("the host reference work computed nothing");
  return ms;
}

// ---- the two run modes ------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::size_t jobs = 0;
  std::string vlsipc;
};

Served serve_round(const Workload& w, std::size_t k,
                   const std::string& vlsipc) {
  if (w.hub) return serve_hub(w, k, vlsipc);
  return serve_local(w, k, false);
}

/// End-to-end metrics, tracing off. Round 0 serves stream 0 to warm the
/// allocator and page cache; it is checked but not timed. Rounds 1.. then
/// cycle through the run's streams until every stream has been served
/// and `seconds` have passed, so round 1 repeats round 0 and any later
/// pass repeats the first. Host timings are medians over timed rounds,
/// each scaled to reference host speed; the simulated figures pool the
/// first pass, so they repeat exactly.
int run_end_to_end(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed, args.jobs);
  Gate gate;
  std::vector<double> jobs_per_s, raw_jobs_per_s, reference, setup_s, rss_mb;
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> digests(w.sub_streams);
  std::vector<SimFigures> first_pass(w.sub_streams);
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::size_t rounds = 0;
  const auto start = Clock::now();
  while (rounds <= w.sub_streams ||
         seconds_between(start, Clock::now()) < args.seconds) {
    const std::size_t k = rounds == 0 ? 0 : (rounds - 1) % w.sub_streams;
    const double ref_ms = reference_ms();
    Served s = serve_round(w, k, args.vlsipc);
    const OutputCheck check = check_outputs(s.stream, s.outcomes, gate);
    SimFigures sim = sim_figures(s.stream, s.outcomes, s.service_order);
    attempted += s.stream.jobs.size();
    completed += check.completed;
    if (!w.hub) {
      bool same = true;
      for (std::size_t i = 0, c = 0; same && i < s.service_order.size(); ++i) {
        const scaling::JobOutcome& o = s.outcomes[s.service_order[i]];
        if (o.status != scaling::JobStatus::kCompleted) continue;
        same = sim.latencies[c++] == o.finished_at - o.queued_at;
      }
      gate.require(same, "stream " + std::to_string(k) +
                             ": the virtual-clock latencies differ from the "
                             "farm's finished_at - queued_at");
    }
    if (rounds == 0) {
      digests[k] = check.digest;
      if (w.hub) {
        Workload local = w;
        local.hub = false;
        const LocalServe l = serve_local(local, k, false);
        gate.require(check_outputs(l.stream, l.outcomes, gate).digest ==
                         check.digest,
                     "the hub and a local farm served stream 0 with "
                     "different outputs");
      }
    } else if (rounds <= w.sub_streams && k != 0) {
      digests[k] = check.digest;
      first_pass[k] = std::move(sim);
    } else {
      gate.require(check.digest == digests[k],
                   "stream " + std::to_string(k) +
                       ": the output digest changed between repeats");
      // Remote batches follow the worker's arrival windows, so only a
      // local farm repeats its simulated figures exactly.
      gate.require(w.hub || sim == first_pass[k] || rounds == 1,
                   "stream " + std::to_string(k) +
                       ": the simulated figures changed between repeats");
      if (rounds == 1) first_pass[0] = std::move(sim);
    }
    if (rounds > 0) {
      // > 1 when the host ran slower than nominal just before the round.
      const double slowdown = ref_ms / kReferenceMs;
      raw_jobs_per_s.push_back(static_cast<double>(s.stream.jobs.size()) /
                               s.serve_s);
      jobs_per_s.push_back(raw_jobs_per_s.back() * slowdown);
      reference.push_back(ref_ms);
      setup_s.push_back(s.setup_s / slowdown);
      rss_mb.push_back(s.rss_mb);
      for (const double ms : s.latency_ms) latency_ms.push_back(ms / slowdown);
    }
    ++rounds;
  }
  std::uint64_t sim_cycles = 0;
  std::vector<std::uint64_t> sim_latencies;
  for (const SimFigures& sim : first_pass) {
    sim_cycles += sim.cycles;
    sim_latencies.insert(sim_latencies.end(), sim.latencies.begin(),
                         sim.latencies.end());
  }
  print_record(w, rounds, digests[0], median(raw_jobs_per_s),
               median(reference));
  print_result(
      gate, attempted, attempted - completed,
      {{"jobs_per_s", "1/s", median(jobs_per_s)},
       {"setup_s", "s", median(setup_s)},
       {"peak_rss_mb", "MB", median(rss_mb)},
       {"job_ok_ratio", "ratio",
        static_cast<double>(completed) / static_cast<double>(attempted)},
       {"sim_cycles_per_job", "cycles",
        static_cast<double>(sim_cycles) /
            static_cast<double>(std::max<std::size_t>(1, sim_latencies.size()))},
       {"sim_latency_p50_cycles", "cycles",
        static_cast<double>(percentile(sim_latencies, 50))},
       {"sim_latency_p99_cycles", "cycles",
        static_cast<double>(percentile(sim_latencies, 99))},
       {"latency_ms_p50", "ms", percentile(latency_ms, 50)},
       {"latency_ms_p99", "ms", percentile(latency_ms, 99)}});
  for (const std::string& f : gate.failures) {
    std::fprintf(stderr, "gate: %s\n", f.c_str());
  }
  return gate.failures.empty() ? 0 : 1;
}

/// Per-layer metrics. Round r takes stream r mod (streams per run): it
/// serves the stream untraced, serves it again with the farm's trace
/// sink on (for the batch boundaries), and replays it with every layer
/// call timed; the hub workload also runs a hub session for the wire and
/// daemon layers. Rounds repeat until `seconds` have passed.
int run_traced(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed, args.jobs);
  // The chip layers of the hub workload are those of the steady farm
  // serving the same stream.
  Workload local = w;
  local.hub = false;
  Gate gate;
  std::vector<double> stream_build_s, compile_us, serve_s, submit_us;
  std::vector<double> fuse_us, release_us, configure_us, run_us, replay_s;
  std::vector<double> window_wait_us;
  double untraced_serve_us = 0, replay_total_us = 0;
  double scaling_us = 0, configure_total_us = 0, feed_us = 0, run_total_us = 0;
  double collect_us = 0, export_us = 0;
  double cpu_s = 0, sys_s = 0;
  double wire_bytes = 0, wire_us = 0;
  std::uint64_t export_calls = 0, batches = 0, replayed_jobs = 0;
  std::uint64_t attempted = 0, completed = 0, requeues = 0;
  std::uint64_t fuses = 0, worm_cycles = 0, digest = 0;
  obs::MetricRegistry chip_totals;
  std::size_t rounds = 0;
  const auto start = Clock::now();
  while (rounds < 1 || seconds_between(start, Clock::now()) < args.seconds) {
    const std::size_t k = rounds % w.sub_streams;
    const auto b0 = Clock::now();
    const workload::JobStream probe = build_stream(local, k);
    stream_build_s.push_back(seconds_between(b0, Clock::now()));
    std::set<std::string> labels;
    for (const workload::TimedJob& t : probe.jobs) labels.insert(t.kernel);
    for (const std::string& label : labels) {
      const auto c0 = Clock::now();
      (void)take(workload::build_kernel(spec_of(label)), "kernel " + label);
      compile_us.push_back(micros_between(c0, Clock::now()));
    }

    const LocalServe untraced = serve_local(local, k, false);
    const LocalServe traced = serve_local(local, k, true);
    require_same_cycles(untraced, traced,
                        "the traced farm's cycles differ from the untraced",
                        gate);
    Replay r = replay(local, traced);
    require_replay_matches(untraced, r, gate);

    serve_s.push_back(untraced.serve_s);
    submit_us.insert(submit_us.end(), untraced.submit_us.begin(),
                     untraced.submit_us.end());
    untraced_serve_us += untraced.serve_s * 1e6;
    batches += traced.batch_sizes.size();
    fuse_us.insert(fuse_us.end(), r.fuse_us.begin(), r.fuse_us.end());
    release_us.insert(release_us.end(), r.release_us.begin(),
                      r.release_us.end());
    configure_us.insert(configure_us.end(), r.configure_us.begin(),
                        r.configure_us.end());
    run_us.insert(run_us.end(), r.run_us.begin(), r.run_us.end());
    replay_s.push_back(r.total_us * 1e-6);
    replay_total_us += r.total_us;
    scaling_us += r.scaling_us;
    configure_total_us += r.configure_total_us;
    feed_us += r.feed_us;
    run_total_us += r.run_total_us;
    collect_us += r.collect_us;
    export_us += r.export_us;
    export_calls += r.export_calls;
    replayed_jobs += r.config_cycles.size();
    fuses += r.fuses;
    worm_cycles += r.worm_cycles;
    chip_totals.merge(r.chip_metrics);

    workload::JobStream stream;
    std::vector<scaling::JobOutcome> outcomes;
    if (w.hub) {
      HubServe h = serve_hub(w, k, args.vlsipc);
      window_wait_us.insert(window_wait_us.end(), h.window_wait_us.begin(),
                            h.window_wait_us.end());
      requeues += h.requeues;
      cpu_s += h.worker_cpu_s;
      sys_s += h.worker_sys_s;
      stream = std::move(h.stream);
      outcomes = std::move(h.outcomes);
    } else {
      cpu_s += untraced.cpu_s;
      sys_s += untraced.sys_s;
      stream = untraced.stream;
      outcomes = untraced.outcomes;
    }
    const OutputCheck check = check_outputs(stream, outcomes, gate);
    if (rounds == 0) digest = check.digest;
    attempted += stream.jobs.size();
    completed += check.completed;
    const WireCost wire = wire_cost(stream, outcomes);
    const double n = static_cast<double>(stream.jobs.size());
    wire_bytes += wire.bytes * n;
    wire_us += wire.micros * n;
    ++rounds;
  }

  const double jobs = static_cast<double>(replayed_jobs);
  const auto& counters = chip_totals.counters();
  const auto counter = [&counters](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double accounted = scaling_us + configure_total_us + feed_us +
                           run_total_us + collect_us + export_us;
  const double total = replay_total_us;
  std::fprintf(stderr,
               "layer self time over %.3f s of traced replay: scaling %.1f%%, "
               "ap.configure %.1f%%, ap.feed %.1f%%, ap.run %.1f%%, "
               "ap.collect %.1f%%, obs.export %.1f%%, unattributed %.1f%%\n",
               total * 1e-6, 100 * scaling_us / total,
               100 * configure_total_us / total, 100 * feed_us / total,
               100 * run_total_us / total, 100 * collect_us / total,
               100 * export_us / total, 100 * (total - accounted) / total);
  std::fprintf(stderr,
               "tracing overhead: traced replay %.3f s vs untraced serve "
               "%.3f s (x%.3f)\n",
               total * 1e-6, untraced_serve_us * 1e-6,
               total / untraced_serve_us);

  print_record(w, rounds, digest, 0.0, 0.0);
  print_result(
      gate, attempted, attempted - completed,
      {{"workload.stream_build_s", "s", median(stream_build_s)},
       {"lang.compile_us", "us", median(compile_us)},
       {"runtime.serve_s", "s", median(serve_s)},
       {"runtime.submit_us_p50", "us", percentile(submit_us, 50)},
       {"runtime.jobs_per_batch", "jobs",
        jobs / static_cast<double>(std::max<std::uint64_t>(1, batches))},
       {"scaling.fuse_us_p50", "us", percentile(fuse_us, 50)},
       {"scaling.fuse_us_p99", "us", percentile(fuse_us, 99)},
       {"scaling.release_us_p50", "us", percentile(release_us, 50)},
       {"scaling.release_us_p99", "us", percentile(release_us, 99)},
       {"scaling.fuses_per_job", "count", static_cast<double>(fuses) / jobs},
       {"scaling.worm_cycles_per_fuse", "cycles",
        static_cast<double>(worm_cycles) /
            static_cast<double>(std::max<std::uint64_t>(1, fuses))},
       {"scaling.share", "ratio", scaling_us / total},
       {"ap.configure_us_p50", "us", percentile(configure_us, 50)},
       {"ap.configure_us_p99", "us", percentile(configure_us, 99)},
       {"ap.configure_share", "ratio", configure_total_us / total},
       {"ap.config_cycles_per_job", "cycles",
        counter("ap.config.cycles") / jobs},
       {"ap.object_hit_ratio", "ratio",
        counter("ap.config.hits") /
            std::max(1.0, counter("ap.config.requests"))},
       {"csd.establish_per_job", "count",
        counter("ap.csd.requests") / jobs},
       {"csd.reject_ratio", "ratio",
        counter("ap.csd.rejects") / std::max(1.0, counter("ap.csd.requests"))},
       {"ap.feed_us_per_job", "us", feed_us / jobs},
       {"ap.feed_share", "ratio", feed_us / total},
       {"ap.run_us_p50", "us", percentile(run_us, 50)},
       {"ap.run_us_p99", "us", percentile(run_us, 99)},
       {"ap.run_share", "ratio", run_total_us / total},
       {"ap.collect_share", "ratio", collect_us / total},
       {"ap.exec_cycles_per_job", "cycles",
        counter("ap.exec.cycles") / jobs},
       {"ap.fires_per_job", "count", counter("ap.exec.firings") / jobs},
       {"obs.export_us_per_call", "us",
        export_us / static_cast<double>(std::max<std::uint64_t>(1, export_calls))},
       {"obs.export_calls_per_job", "count",
        static_cast<double>(export_calls) / jobs},
       {"obs.export_share", "ratio", export_us / total},
       {"unattributed_share", "ratio", (total - accounted) / total},
       {"trace.replay_s", "s", median(replay_s)},
       {"trace.overhead_ratio", "ratio", total / untraced_serve_us},
       {"host.sys_share", "ratio", cpu_s > 0 ? sys_s / cpu_s : 0.0},
       {"net.frame_bytes_per_job", "bytes",
        wire_bytes / static_cast<double>(attempted)},
       {"net.codec_us_per_job", "us", wire_us / static_cast<double>(attempted)},
       {"daemon.window_wait_us_p50", "us", percentile(window_wait_us, 50)},
       {"daemon.window_wait_us_p99", "us", percentile(window_wait_us, 99)},
       {"daemon.hub_requeues", "count", static_cast<double>(requeues)}});
  for (const std::string& f : gate.failures) {
    std::fprintf(stderr, "gate: %s\n", f.c_str());
  }
  return gate.failures.empty() ? 0 : 1;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--jobs") {
      args.jobs = std::stoull(value);
    } else if (flag == "--vlsipc") {
      args.vlsipc = value;
    } else {
      fail("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) fail("--workload is required");
  if (args.trace != 0 && args.trace != 1) fail("--trace takes 0 or 1");
  if (args.workload == "hub" && args.vlsipc.empty()) {
    fail("the hub workload needs --vlsipc PATH");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  // Whatever happens, no run outlives its budget or leaves a child behind.
  signal(SIGALRM, on_overrun);
  alarm(170);
  try {
    const Args args = parse_args(argc, argv);
    return args.trace == 1 ? run_traced(args) : run_end_to_end(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

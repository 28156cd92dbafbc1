// vlsipc — the command-line face of the toolchain.
//
//   vlsipc compile <source.vdf> [-o out.vobj] [--optimize]
//       Compile dataflow source to object code (text format).
//   vlsipc info <file.vobj|file.vdf>
//       Print the object inventory, ports and dependency profile.
//   vlsipc run <file.vobj|file.vdf> [--in name=v1,v2,...]...
//              [--capacity C] [--expect N] [--json]
//              [--checkpoint-every CYC --checkpoint out.vsnap]
//       Configure on a fresh AP and execute; prints outputs and stats.
//       With --checkpoint-every, the run is segmented and a resumable
//       session checkpoint is (re)written every CYC executed cycles;
//       the final report is byte-identical to an uninterrupted run.
//   vlsipc snapshot <file.vobj|file.vdf> --at CYC -o out.vsnap
//              [--in name=v1,v2,...]... [--capacity C] [--expect N]
//       Run for CYC cycles, then checkpoint the session and stop.
//   vlsipc resume <file.vsnap> [--json]
//              [--checkpoint-every CYC --checkpoint out.vsnap]
//       Restore a session checkpoint and run it to completion; the
//       report covers the whole run (both halves), byte-identical to
//       one that was never interrupted.
//   vlsipc serve <jobs.txt|pack-ref> [--pack] [--workers N] [--queue D]
//              [--batch B] [--reject] [--deterministic] [--json]
//              [--checkpoint-every-batches N]
//              [--dvs] [--energy-budget FJ] [--p99-guardrail TICKS]
//       Run jobs through the multi-chip farm; prints a per-job table
//       plus throughput and latency percentiles.
//       --checkpoint-every-batches saves each chip as one flat .vsnap
//       every N batches; a quarantined chip's replacement restores from
//       it (docs/SNAPSHOT.md). --dvs
//       turns on per-chip energy metering and the DVS governor;
//       --energy-budget throttles chips toward that many femtojoules
//       per served job (docs/ENERGY.md). --pack reads a file positional
//       as a scenario-pack spec instead of a manifest; pack jobs keep
//       their arrival ticks and deadlines (docs/WORKLOADS.md).
//   vlsipc chaos <jobs.txt|@synthetic:N[:seed]> [--seed S] [--events E]
//              [--threaded] [--workers N] [--stalls] [--crashes]
//              [--max-retries R] [--backoff T] [--quarantine-after Q]
//       Run a manifest through the farm under a seeded fault plan and
//       print a JSON survival report. Exit 0 iff no job was lost
//       (every admitted job's future resolved). Deterministic by
//       default: the same seed gives a bit-identical report.
//   vlsipc hub [--listen H:P|unix:/path] [--heartbeat-timeout MS]
//              [--health-interval MS] [--window N]
//       Run the distributed farm's hub daemon: admission + routing.
//       Prints "hub listening on ADDR" (resolved port for :0), then
//       blocks until a client sends shutdown.
//   vlsipc worker --hub ADDR [--name S] [--workers N] [--batch B]
//              [--queue D] [--checkpoint-every-batches N]
//              [--heartbeat MS] [--crash-after N]
//       Run a worker daemon: one ChipFarm served over the wire. Exit
//       0 on shutdown/drain, 3 when --crash-after fault injection
//       fired, 1 when the hub connection was lost.
//   vlsipc submit <jobs.txt> --hub ADDR [--json] [--drain-worker ID]
//              [--drain-after K] [--metrics] [--shutdown]
//       Submit a manifest to a running hub and wait for every result.
//       --drain-worker asks the hub to checkpoint-migrate worker ID
//       (after K results have arrived, default 0). Exit 0 iff every
//       job came back completed. See docs/DISTRIBUTED.md.
//   vlsipc workload <pack.spec|@preset:NAME[:seed[:jobs]]>
//              [--mode serve|replay] [--hub ADDR] [--seed S] [--jobs N]
//              [--batch B] [--workers N] [--threaded] [--window N]
//              [--report out.json] [--list-kernels] [--json]
//       Expand a scenario pack into its deterministic job stream, serve
//       it (locally, or through a hub with --hub), and print the
//       schema-versioned pack report — per-kernel latency/energy
//       percentiles and outcome counts, byte-identical per seed in the
//       default deterministic mode. --mode replay round-trips the
//       stream through the snapshot codec first and must produce the
//       same bytes. See docs/WORKLOADS.md.
//
// serve, chaos and workload are one serving path (workload/runner.hpp):
// the positional (a manifest, @synthetic:N[:seed], @preset:... or, for
// workload and serve --pack, a pack spec) loads into one job stream, the
// verb's flags and defaults configure a validated FarmConfig, the
// stream is served and drained, and the verb renders the result: the
// serve table/JSON, the chaos survival JSON, or the pack report.
//
// run, resume, serve and chaos additionally accept:
//   --obs <out.json>           write an ObsSnapshot (run info + every
//                              layer's metrics + trace summary)
//   --chrome-trace <out.trace> write the session's structured events as
//                              chrome://tracing JSON (open in Perfetto)
// See docs/OBSERVABILITY.md for the schema.
//
// Sources (.vdf) are compiled on the fly; object files (.vobj) load
// directly. Everything except farm wall-clock latency is deterministic
// (pass --deterministic to serve for bit-identical outcomes too).
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "vlsip.hpp"

namespace {

using namespace vlsip;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw PreconditionError("cannot open file: " + path);
  }
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// A compile failure surfaced through the non-throwing lang::try_compile
/// facade, rethrown at the CLI boundary so main() can add the offending
/// line number to the typed JSON error object.
struct CompileFailed : std::runtime_error {
  CompileFailed(std::string path_in, lang::CompileError error_in)
      : std::runtime_error(path_in + ": " + error_in.message),
        path(std::move(path_in)),
        line(error_in.line) {}
  std::string path;
  int line;
};

arch::Program load_program(const std::string& path) {
  const auto text = read_file(path);
  if (ends_with(path, ".vobj") ||
      text.rfind("vlsip-object-code", 0) == 0) {
    return arch::from_text(text);
  }
  lang::CompileError error;
  auto program = lang::try_compile(text, &error);
  if (!program.ok()) throw CompileFailed(path, std::move(error));
  return std::move(*program);
}

// --- shared option parsing --------------------------------------------------
//
// Every verb parses its flags through one OptionParser: registered
// flags fill typed outputs, the first bare token fills the positional,
// and anything unrecognised produces the same typed JSON error object
// main() emits for runtime failures ({"schema_version", "error":
// {"code": "invalid_argument", "message"}} when --json is on the
// command line) plus the usage line on stderr, exit code 2. The verbs
// used to hand-roll ten copies of this loop, and most of them silently
// swallowed an unknown "--flag" as the positional argument.

class OptionParser {
 public:
  OptionParser(std::string verb, std::string usage)
      : verb_(std::move(verb)), usage_(std::move(usage)) {}

  OptionParser& flag(const char* name, bool* out) {
    opts_.push_back({name, Kind::kBool, out});
    return *this;
  }
  OptionParser& value(const char* name, std::string* out) {
    opts_.push_back({name, Kind::kString, out});
    return *this;
  }
  OptionParser& value(const char* name, int* out) {
    opts_.push_back({name, Kind::kInt, out});
    return *this;
  }
  /// std::size_t and std::uint64_t are the same type on LP64, so one
  /// overload covers both counters and tick values.
  OptionParser& value(const char* name, std::uint64_t* out) {
    opts_.push_back({name, Kind::kU64, out});
    return *this;
  }
  /// A value flag that may appear many times (run's --in feeds).
  OptionParser& repeated(const char* name, std::vector<std::string>* out) {
    opts_.push_back({name, Kind::kRepeated, out});
    return *this;
  }
  /// Accept one bare (non-flag) token.
  OptionParser& positional(std::string* out) {
    positional_ = out;
    return *this;
  }

  /// True on success. On any problem prints the typed error and usage
  /// and sets *exit_code to 2.
  bool parse(int argc, char** argv, int* exit_code) {
    json_ = false;
    for (int i = 0; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) json_ = true;
    }
    for (int i = 0; i < argc; ++i) {
      const std::string tok = argv[i];
      const Opt* opt = find(tok);
      if (opt == nullptr) {
        if (tok.size() > 1 && tok[0] == '-') {
          *exit_code = error("unknown flag '" + tok + "'");
          return false;
        }
        if (positional_ != nullptr && positional_->empty()) {
          *positional_ = tok;
          continue;
        }
        *exit_code = error("unexpected argument '" + tok + "'");
        return false;
      }
      if (opt->kind == Kind::kBool) {
        *static_cast<bool*>(opt->out) = true;
        continue;
      }
      if (i + 1 >= argc) {
        *exit_code = error("flag '" + tok + "' needs a value");
        return false;
      }
      const std::string value = argv[++i];
      if (opt->kind == Kind::kString) {
        *static_cast<std::string*>(opt->out) = value;
        continue;
      }
      if (opt->kind == Kind::kRepeated) {
        static_cast<std::vector<std::string>*>(opt->out)->push_back(value);
        continue;
      }
      std::uint64_t n = 0;
      if (!parse_integer(value, &n)) {
        *exit_code = error("flag '" + tok + "' needs an integer, got '" +
                           value + "'");
        return false;
      }
      switch (opt->kind) {
        case Kind::kInt:
          *static_cast<int*>(opt->out) = static_cast<int>(n);
          break;
        case Kind::kU64:
          *static_cast<std::uint64_t*>(opt->out) = n;
          break;
        default:
          break;
      }
    }
    return true;
  }

  /// For post-parse validation ("missing <jobs.txt>", "--at is
  /// required"): same typed error + usage, returns 2.
  int error(const std::string& message) const {
    if (json_) {
      std::ostringstream out;
      obs::JsonWriter w(out);
      w.begin_object();
      w.field("schema_version", obs::kJsonSchemaVersion);
      w.key("error");
      w.begin_object();
      w.field("code", status_code_name(StatusCode::kInvalidArgument));
      w.field("message", verb_ + ": " + message);
      w.end_object();
      w.end_object();
      std::printf("%s\n", out.str().c_str());
    }
    std::fprintf(stderr, "error: %s: %s\n", verb_.c_str(), message.c_str());
    std::fprintf(stderr, "%s\n", usage_.c_str());
    return 2;
  }

 private:
  enum class Kind { kBool, kString, kInt, kU64, kRepeated };
  struct Opt {
    std::string name;
    Kind kind;
    void* out;
  };

  static bool parse_integer(const std::string& s, std::uint64_t* out) {
    if (s.empty()) return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size()) return false;
    *out = static_cast<std::uint64_t>(v);
    return true;
  }

  const Opt* find(const std::string& name) const {
    for (const auto& opt : opts_) {
      if (opt.name == name) return &opt;
    }
    return nullptr;
  }

  std::string verb_;
  std::string usage_;
  std::vector<Opt> opts_;
  std::string* positional_ = nullptr;
  bool json_ = false;
};

/// Parses repeated "name=v1,v2,..." --in specs (run/snapshot feeds).
bool parse_feeds(
    const std::vector<std::string>& specs,
    std::vector<std::pair<std::string, std::vector<std::int64_t>>>* feeds,
    std::string* bad) {
  for (const std::string& spec : specs) {
    const auto eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) {
      *bad = spec;
      return false;
    }
    std::vector<std::int64_t> values;
    std::stringstream vs(spec.substr(eq + 1));
    std::string tok;
    while (std::getline(vs, tok, ',')) {
      try {
        values.push_back(std::stoll(tok));
      } catch (const std::exception&) {
        *bad = spec;
        return false;
      }
    }
    feeds->emplace_back(spec.substr(0, eq), std::move(values));
  }
  return true;
}

int cmd_compile(int argc, char** argv) {
  std::string out_path;
  bool optimize = false;
  std::string src_path;
  OptionParser opts("compile",
                    "usage: vlsipc compile <source.vdf> [-o out] "
                    "[--optimize]");
  opts.value("-o", &out_path)
      .flag("--optimize", &optimize)
      .positional(&src_path);
  int rc = 0;
  if (!opts.parse(argc, argv, &rc)) return rc;
  if (src_path.empty()) return opts.error("missing <source.vdf>");
  lang::CompileError compile_error;
  auto compiled = lang::try_compile(read_file(src_path), &compile_error);
  if (!compiled.ok()) throw CompileFailed(src_path, std::move(compile_error));
  auto program = std::move(*compiled);
  if (optimize) {
    arch::OptimizeReport report;
    program.stream = arch::optimize_stream_order(program.stream, &report);
    std::fprintf(stderr,
                 "optimized: mean dependency distance %.2f -> %.2f\n",
                 report.original_mean_distance,
                 report.optimized_mean_distance);
  }
  const auto text = arch::to_text(program);
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream out(out_path);
    out << text;
    std::fprintf(stderr, "wrote %s (%zu objects, %zu elements)\n",
                 out_path.c_str(), program.object_count(),
                 program.stream.size());
  }
  return 0;
}

int cmd_info(int argc, char** argv) {
  std::string path;
  OptionParser opts("info", "usage: vlsipc info <file>");
  opts.positional(&path);
  int rc = 0;
  if (!opts.parse(argc, argv, &rc)) return rc;
  if (path.empty()) return opts.error("missing <file>");
  const auto program = load_program(path);
  const auto problems = arch::validate_program(program);
  for (const auto& p : problems) {
    std::printf("INVALID: %s\n", p.c_str());
  }
  std::printf("objects: %zu, stream elements: %zu%s\n",
              program.object_count(), program.stream.size(),
              problems.empty() ? " (valid)" : "");
  for (const auto& [name, id] : program.inputs) {
    std::printf("input  %-12s -> object %u\n", name.c_str(), id);
  }
  for (const auto& [name, id] : program.outputs) {
    std::printf("output %-12s -> object %u\n", name.c_str(), id);
  }
  const auto profile = arch::analyze_dependencies(program.stream);
  std::printf("dependency profile: working set %zu, max distance %zu, "
              "mean distance %.2f, cold misses %zu\n",
              profile.distinct, profile.max_distance,
              profile.mean_distance, profile.cold_misses);
  std::printf("minimum capacity C for streaming: %zu objects "
              "(%zu clusters of 16)\n",
              program.object_count(),
              (program.object_count() + 15) / 16);
  return 0;
}

// All JSON emission goes through obs::JsonWriter — one escaping and
// comma-placement implementation shared with the snapshot exporters
// (the verbs used to hand-roll three separate copies of it). Every
// document opens with "schema_version" (obs::kJsonSchemaVersion; see
// docs/OBSERVABILITY.md for the bump rule).

// --- checkpoint sessions --------------------------------------------------
//
// A .vsnap session file is a snapshot::Snapshot holding "vlsipc.session"
// metadata (program, budgets, stats accumulated over finished segments)
// followed by the AP's own checkpoint sections. `run --checkpoint-every`
// rewrites it each segment; `snapshot` stops after one segment; `resume`
// restores it and keeps going.

struct RunSession {
  /// Original program path — display name in reports, so a resumed
  /// run's report matches the uninterrupted one byte for byte.
  std::string program_path;
  arch::Program program;
  int capacity = 64;
  std::size_t expect = 1;
  std::uint64_t remaining_cycles = 1u << 24;
  /// From the original configure() call.
  ap::ConfigStats config_stats;
  /// Execution stats accumulated over finished segments.
  ap::ExecStats exec;
};

/// Folds one segment's stats into the session totals: counters add,
/// terminal state (completed/deadlocked/blocked_report) is the last
/// segment's — exactly what one uninterrupted run() would have
/// reported.
void accumulate_exec_stats(ap::ExecStats& total, const ap::ExecStats& seg) {
  total.cycles += seg.cycles;
  total.firings += seg.firings;
  total.tokens_moved += seg.tokens_moved;
  total.int_ops += seg.int_ops;
  total.float_ops += seg.float_ops;
  total.mem_ops += seg.mem_ops;
  total.transport_ops += seg.transport_ops;
  total.faults += seg.faults;
  total.fault_cycles += seg.fault_cycles;
  total.release_tokens += seg.release_tokens;
  total.idle_cycles += seg.idle_cycles;
  total.wakes += seg.wakes;
  total.quiescence_skips += seg.quiescence_skips;
  total.completed = seg.completed;
  total.deadlocked = seg.deadlocked;
  total.blocked_report = seg.blocked_report;
}

void write_session(const std::string& path, const RunSession& session,
                   const ap::AdaptiveProcessor& ap) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.section("vlsipc.session");
  w.str(session.program_path);
  w.i32(session.capacity);
  arch::save_program(w, session.program);
  w.u64(session.expect);
  w.u64(session.remaining_cycles);
  ap::save_config_stats(w, session.config_stats);
  ap::save_exec_stats(w, session.exec);
  ap.save(w);
  snapshot::write_file(snap, path);
}

/// Reads the session metadata, leaving `r` positioned at the AP
/// checkpoint (restore into an AP built with make_session_config).
RunSession read_session_header(snapshot::Reader& r) {
  r.section("vlsipc.session");
  RunSession session;
  session.program_path = r.str();
  session.capacity = r.i32();
  session.program = arch::restore_program(r);
  session.expect = static_cast<std::size_t>(r.u64());
  session.remaining_cycles = r.u64();
  session.config_stats = ap::restore_config_stats(r);
  session.exec = ap::restore_exec_stats(r);
  return session;
}

/// The AP shape cmd_run builds — resume must rebuild it identically
/// for the checkpoint's geometry fingerprint to match.
ap::ApConfig make_session_config(int capacity, bool enable_trace) {
  ap::ApConfig cfg;
  cfg.capacity = capacity;
  cfg.memory_blocks = 16;
  cfg.enable_trace = enable_trace;
  return cfg;
}

/// Runs the session to completion (or budget exhaustion), one segment
/// per checkpoint when checkpointing is on. Returns when a terminal
/// state is reached; session.exec then holds the whole-run stats.
void run_session(ap::AdaptiveProcessor& ap, RunSession& session,
                 std::uint64_t checkpoint_every,
                 const std::string& checkpoint_path) {
  for (;;) {
    const std::uint64_t budget =
        checkpoint_every == 0
            ? session.remaining_cycles
            : std::min(session.remaining_cycles, checkpoint_every);
    const auto seg = ap.run(session.expect, budget);
    accumulate_exec_stats(session.exec, seg);
    session.remaining_cycles -=
        std::min(session.remaining_cycles, seg.cycles);
    if (!checkpoint_path.empty()) {
      write_session(checkpoint_path, session, ap);
    }
    if (seg.completed || seg.deadlocked || session.remaining_cycles == 0) {
      return;
    }
    // A segment that consumed no cycles can never make progress in the
    // next one either (quiesced but starved); stop instead of spinning.
    if (seg.cycles == 0) return;
  }
}

/// --obs / --chrome-trace: the ObsSnapshot export shared by the session
/// verbs (run, resume, serve, chaos; docs/OBSERVABILITY.md).
class ObsExport {
 public:
  explicit ObsExport(OptionParser& opts) {
    opts.value("--obs", &obs_path_).value("--chrome-trace", &trace_path_);
  }

  bool wanted() const { return !obs_path_.empty() || !trace_path_.empty(); }

  /// The farm verbs' session sink, handed to the farm only when an
  /// export was asked for. Capped so a large manifest cannot grow trace
  /// memory without bound; evictions show as farm trace drops.
  void attach(runtime::FarmConfigBuilder& farm) {
    if (!wanted()) return;
    sink_.set_enabled(true);
    sink_.set_capacity(1u << 20);
    farm.trace_sink(&sink_);
  }

  /// Writes the requested files with `trace` (default: the farm sink).
  /// Returns 0, or 1 on an unwritable path.
  int write(const std::vector<std::pair<std::string, std::string>>& info,
            obs::MetricRegistry metrics,
            const obs::TraceSink* trace = nullptr) const {
    if (!wanted()) return 0;
    obs::ObsSnapshot snapshot;
    for (const auto& [key, value] : info) snapshot.add_info(key, value);
    snapshot.metrics = std::move(metrics);
    snapshot.trace = trace != nullptr ? trace : &sink_;
    int rc = 0;
    if (!obs_path_.empty()) {
      rc |= wrote(snapshot.write_json_file(obs_path_), "obs snapshot",
                  obs_path_);
    }
    if (!trace_path_.empty()) {
      rc |= wrote(snapshot.write_chrome_trace_file(trace_path_),
                  "chrome trace", trace_path_);
    }
    return rc;
  }

 private:
  static int wrote(bool ok, const char* what, const std::string& path) {
    std::fprintf(stderr,
                 ok ? "wrote %s: %s\n" : "error: cannot write %s: %s\n",
                 what, path.c_str());
    return ok ? 0 : 1;
  }

  std::string obs_path_;
  std::string trace_path_;
  obs::TraceSink sink_;
};

const char* run_status(const ap::ExecStats& exec) {
  return exec.completed ? "completed"
                        : (exec.deadlocked ? "deadlocked" : "timeout");
}

/// The run/resume epilogue, shared so the two are byte-identical: the
/// obs export (`info` plus the run status), then the report. Returns
/// the process exit code.
int finish_run(const RunSession& session, ap::AdaptiveProcessor& ap,
               bool json, const ObsExport& obs,
               std::vector<std::pair<std::string, std::string>> info) {
  int obs_rc = 0;
  if (obs.wanted()) {
    info.emplace_back("status", run_status(session.exec));
    obs::MetricRegistry metrics;
    ap.export_obs(metrics);
    obs_rc = obs.write(info, std::move(metrics), &ap.trace());
  }
  const ap::ExecStats& exec = session.exec;
  const ap::ConfigStats& config_stats = session.config_stats;
  if (json) {
    std::ostringstream out;
    obs::JsonWriter w(out);
    w.begin_object();
    w.field("schema_version", obs::kJsonSchemaVersion);
    w.field("program", session.program_path);
    w.field("status", run_status(exec));
    w.key("configuration");
    w.begin_object();
    w.field("cycles", config_stats.cycles);
    w.field("object_requests", config_stats.object_requests);
    w.field("hit_rate", config_stats.hit_rate());
    w.end_object();
    w.key("execution");
    w.begin_object();
    w.field("cycles", exec.cycles);
    w.field("ops", exec.total_ops());
    w.field("int_ops", exec.int_ops);
    w.field("float_ops", exec.float_ops);
    w.field("mem_ops", exec.mem_ops);
    w.field("faults", exec.faults);
    w.end_object();
    w.key("outputs");
    w.begin_object();
    for (const auto& [name, id] : session.program.outputs) {
      (void)id;
      w.key(name);
      w.begin_array();
      for (const auto& word : ap.output(name)) w.value(word.i);
      w.end_array();
    }
    w.end_object();
    w.end_object();
    std::printf("%s\n", out.str().c_str());
    return exec.completed ? obs_rc : 1;
  }

  std::printf("configuration: %llu cycles (%llu requests, %.0f%% hits)\n",
              static_cast<unsigned long long>(config_stats.cycles),
              static_cast<unsigned long long>(config_stats.object_requests),
              100.0 * config_stats.hit_rate());
  std::printf("execution: %llu cycles, %llu ops (%llu int / %llu fp / "
              "%llu mem), faults %llu, %s\n",
              static_cast<unsigned long long>(exec.cycles),
              static_cast<unsigned long long>(exec.total_ops()),
              static_cast<unsigned long long>(exec.int_ops),
              static_cast<unsigned long long>(exec.float_ops),
              static_cast<unsigned long long>(exec.mem_ops),
              static_cast<unsigned long long>(exec.faults),
              exec.completed ? "completed"
                             : (exec.deadlocked ? "DEADLOCKED" : "timeout"));
  for (const auto& line : exec.blocked_report) {
    std::printf("  blocked: %s\n", line.c_str());
  }
  for (const auto& [name, id] : session.program.outputs) {
    (void)id;
    std::printf("%s =", name.c_str());
    for (const auto& w : ap.output(name)) {
      std::printf(" %lld", static_cast<long long>(w.i));
    }
    std::printf("\n");
  }
  return exec.completed ? obs_rc : 1;
}

int cmd_run(int argc, char** argv) {
  std::string path;
  int capacity = 64;
  std::size_t expect = 1;
  bool json = false;
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_path;
  std::vector<std::string> in_specs;
  OptionParser opts("run",
                    "usage: vlsipc run <file> [--in name=v,...] "
                    "[--capacity C] [--expect N] [--json] "
                    "[--checkpoint-every CYC --checkpoint out.vsnap] "
                    "[--obs out.json] [--chrome-trace out.trace]");
  opts.repeated("--in", &in_specs)
      .value("--capacity", &capacity)
      .value("--expect", &expect)
      .flag("--json", &json)
      .value("--checkpoint-every", &checkpoint_every)
      .value("--checkpoint", &checkpoint_path)
      .positional(&path);
  ObsExport obs(opts);
  int rc = 0;
  if (!opts.parse(argc, argv, &rc)) return rc;
  if (path.empty()) return opts.error("missing <file>");
  if (checkpoint_every > 0 && checkpoint_path.empty()) {
    return opts.error("--checkpoint-every needs --checkpoint <out.vsnap>");
  }
  std::vector<std::pair<std::string, std::vector<std::int64_t>>> feeds;
  std::string bad_spec;
  if (!parse_feeds(in_specs, &feeds, &bad_spec)) {
    return opts.error("bad --in spec: " + bad_spec);
  }

  RunSession session;
  session.program_path = path;
  session.program = load_program(path);
  session.capacity = capacity;
  session.expect = expect;

  // The exporters read the AP's own trace sink; only pay for recording
  // when a snapshot was actually requested.
  ap::AdaptiveProcessor ap(make_session_config(capacity, obs.wanted()));
  session.config_stats = ap.configure(session.program);
  for (const auto& [name, values] : feeds) {
    for (const auto v : values) ap.feed(name, arch::make_word_i(v));
  }
  run_session(ap, session, checkpoint_every, checkpoint_path);
  return finish_run(session, ap, json, obs,
                    {{"verb", "run"}, {"program", path}});
}

int cmd_snapshot(int argc, char** argv) {
  std::string path;
  std::string out_path;
  int capacity = 64;
  std::size_t expect = 1;
  std::uint64_t at = 0;
  std::vector<std::string> in_specs;
  OptionParser opts("snapshot",
                    "usage: vlsipc snapshot <file> --at CYC -o out.vsnap "
                    "[--in name=v,...] [--capacity C] [--expect N]");
  opts.repeated("--in", &in_specs)
      .value("--capacity", &capacity)
      .value("--expect", &expect)
      .value("--at", &at)
      .value("-o", &out_path)
      .positional(&path);
  int rc = 0;
  if (!opts.parse(argc, argv, &rc)) return rc;
  if (path.empty()) return opts.error("missing <file>");
  if (out_path.empty()) return opts.error("-o <out.vsnap> is required");
  if (at == 0) return opts.error("--at CYC is required");
  std::vector<std::pair<std::string, std::vector<std::int64_t>>> feeds;
  std::string bad_spec;
  if (!parse_feeds(in_specs, &feeds, &bad_spec)) {
    return opts.error("bad --in spec: " + bad_spec);
  }

  RunSession session;
  session.program_path = path;
  session.program = load_program(path);
  session.capacity = capacity;
  session.expect = expect;

  ap::AdaptiveProcessor ap(make_session_config(capacity, false));
  session.config_stats = ap.configure(session.program);
  for (const auto& [name, values] : feeds) {
    for (const auto v : values) ap.feed(name, arch::make_word_i(v));
  }
  const auto seg = ap.run(expect, std::min<std::uint64_t>(
                                      at, session.remaining_cycles));
  accumulate_exec_stats(session.exec, seg);
  session.remaining_cycles -= std::min(session.remaining_cycles, seg.cycles);
  write_session(out_path, session, ap);
  std::fprintf(stderr,
               "checkpointed %s at cycle %llu -> %s (%s, %llu cycles of "
               "budget left)\n",
               path.c_str(), static_cast<unsigned long long>(seg.cycles),
               out_path.c_str(),
               seg.completed ? "completed"
                             : (seg.deadlocked ? "deadlocked" : "running"),
               static_cast<unsigned long long>(session.remaining_cycles));
  return 0;
}

int cmd_resume(int argc, char** argv) {
  std::string path;
  bool json = false;
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_path;
  OptionParser opts("resume",
                    "usage: vlsipc resume <file.vsnap> [--json] "
                    "[--checkpoint-every CYC --checkpoint out.vsnap] "
                    "[--obs out.json] [--chrome-trace out.trace]");
  opts.flag("--json", &json)
      .value("--checkpoint-every", &checkpoint_every)
      .value("--checkpoint", &checkpoint_path)
      .positional(&path);
  ObsExport obs(opts);
  int rc = 0;
  if (!opts.parse(argc, argv, &rc)) return rc;
  if (path.empty()) return opts.error("missing <file.vsnap>");
  if (checkpoint_every > 0 && checkpoint_path.empty()) {
    return opts.error("--checkpoint-every needs --checkpoint <out.vsnap>");
  }

  const auto snap = snapshot::read_file(path);
  snapshot::Reader r(snap);
  RunSession session = read_session_header(r);

  ap::AdaptiveProcessor ap(
      make_session_config(session.capacity, obs.wanted()));
  ap.restore(r);
  run_session(ap, session, checkpoint_every, checkpoint_path);
  // The obs snapshot covers only the resumed half: trace events and
  // layer metrics are host-side observability, deliberately outside
  // the checkpoint (see docs/SNAPSHOT.md).
  return finish_run(session, ap, json, obs,
                    {{"verb", "resume"},
                     {"program", session.program_path},
                     {"checkpoint", path}});
}

// --- farm verbs -------------------------------------------------------------
//
// Each verb is its flag table, its defaults row and its renderer over
// the one serving path (see the header comment).

/// A non-OK Status at the CLI boundary. what() is "<code>: <message>"
/// for the stderr line; main() puts the code and the bare message in
/// the JSON error object.
struct StatusFailure : std::runtime_error {
  explicit StatusFailure(Status status_in)
      : std::runtime_error(status_in.to_string()),
        status(std::move(status_in)) {}
  Status status;
};

template <typename T>
T take(StatusOr<T> result) {
  if (!result.ok()) throw StatusFailure(result.status());
  return std::move(*result);
}

void print_outcome_json(obs::JsonWriter& w, const scaling::JobOutcome& o) {
  w.begin_object();
  w.field("name", o.name);
  w.field("id", o.id);
  w.field("status", scaling::to_string(o.status));
  if (!o.detail.empty()) {
    w.field("detail", o.detail);
  }
  w.field("clusters", o.clusters_used);
  w.field("config_cycles", o.config_cycles);
  w.field("exec_cycles", o.exec_cycles);
  w.field("faults", o.faults);
  w.field("queued_at", o.queued_at);
  w.field("started_at", o.started_at);
  w.field("finished_at", o.finished_at);
  // Presence-gated: energy-off runs bill 0 fJ and keep their JSON
  // byte-identical to pre-energy builds.
  if (o.energy_fj > 0) {
    w.field("energy_fj", o.energy_fj);
  }
  w.key("outputs");
  w.begin_object();
  for (const auto& [name, words] : o.outputs) {
    w.key(name);
    w.begin_array();
    for (const auto& word : words) w.value(word.i);
    w.end_array();
  }
  w.end_object();
  w.end_object();
}

/// serve's renderer: the per-job table or JSON document plus the
/// throughput/latency footer.
void print_serve_report(const std::string& path, bool deterministic,
                        bool json, const workload::Served& served) {
  const obs::FarmMetrics& metrics = served.metrics;
  const char* unit = deterministic ? "cycles" : "us";
  const double jobs_per_sec =
      served.wall_s > 0.0
          ? static_cast<double>(metrics.served()) / served.wall_s
          : 0.0;
  // Deterministic runs promise bit-identical output, so the footer
  // reports the virtual clock instead of wall time.
  if (json) {
    std::ostringstream out;
    obs::JsonWriter w(out);
    w.begin_object();
    w.field("schema_version", obs::kJsonSchemaVersion);
    w.field("manifest", path);
    w.field("workers", static_cast<std::uint64_t>(served.workers));
    w.field("deterministic", deterministic);
    w.field("tick_unit", unit);
    w.key("jobs");
    w.begin_array();
    for (const auto& o : served.log) print_outcome_json(w, o);
    w.end_array();
    w.key("metrics");
    w.begin_object();
    w.field("submitted", metrics.submitted);
    w.field("served", metrics.served());
    w.field("completed", metrics.completed);
    w.field("rejected", metrics.rejected);
    w.field("cancelled", metrics.cancelled);
    w.field("timed_out", metrics.timed_out);
    w.field("batches", metrics.batches);
    w.field("fuse_reuses", metrics.fuse_reuses);
    w.field("latency_p50", metrics.latency_percentile(0.50));
    w.field("latency_p95", metrics.latency_percentile(0.95));
    w.field("latency_p99", metrics.latency_percentile(0.99));
    if (served.energy) {
      w.field("energy_fj", metrics.energy_fj);
      w.field("energy_fj_per_job",
              metrics.served() > 0
                  ? static_cast<double>(metrics.energy_fj) /
                        static_cast<double>(metrics.served())
                  : 0.0);
      w.field("dvs_level_changes", metrics.dvs_level_changes);
    }
    if (deterministic) {
      w.field("virtual_cycles", served.final_tick);
    } else {
      w.field("wall_seconds", served.wall_s);
      w.field("jobs_per_sec", jobs_per_sec);
    }
    w.end_object();
    w.end_object();
    std::printf("%s\n", out.str().c_str());
    return;
  }
  AsciiTable table({"job", "status", "clusters", "config", "exec", "faults",
                    "latency(" + std::string(unit) + ")"});
  for (const auto& o : served.log) {
    table.add_row({o.name, scaling::to_string(o.status),
                   std::to_string(o.clusters_used),
                   std::to_string(o.config_cycles),
                   std::to_string(o.exec_cycles), std::to_string(o.faults),
                   std::to_string(o.turnaround())});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("%s", metrics.render(unit).c_str());
  if (deterministic) {
    std::printf("farm: %zu worker(s), %llu virtual cycles\n", served.workers,
                static_cast<unsigned long long>(served.final_tick));
  } else {
    std::printf("farm: %zu workers, %.3f s wall, %.1f jobs/sec\n",
                served.workers, served.wall_s, jobs_per_sec);
  }
}

int cmd_serve(int argc, char** argv) {
  std::string path;
  runtime::FarmConfigBuilder farm;
  farm.queue(64, /*block_when_full=*/true);  // batch manifests throttle
  runtime::FarmConfig& cfg = farm.raw();
  bool json = false;
  bool reject = false;
  bool pack_mode = false;
  std::uint64_t energy_budget = 0;
  OptionParser opts(
      "serve",
      "usage: vlsipc serve <jobs.txt|pack-ref> [--pack] [--workers N] "
      "[--queue D] [--batch B] [--reject] [--deterministic] "
      "[--checkpoint-every-batches N] "
      "[--dvs] [--energy-budget FJ] [--p99-guardrail TICKS] "
      "[--json] [--obs out.json] [--chrome-trace out.trace]");
  opts.value("--workers", &cfg.workers)
      .value("--queue", &cfg.queue_capacity)
      .value("--batch", &cfg.batch.max_jobs)
      .flag("--reject", &reject)
      .flag("--deterministic", &cfg.deterministic)
      .value("--checkpoint-every-batches", &cfg.checkpoint_every_batches)
      .flag("--dvs", &cfg.dvs.enabled)
      .value("--energy-budget", &energy_budget)
      .value("--p99-guardrail", &cfg.dvs.p99_guardrail_ticks)
      .flag("--pack", &pack_mode)
      .flag("--json", &json)
      .positional(&path);
  ObsExport obs(opts);
  int rc = 0;
  if (!opts.parse(argc, argv, &rc)) return rc;
  if (path.empty()) {
    return opts.error(pack_mode ? "missing <pack-ref>" : "missing <jobs.txt>");
  }
  if (reject) cfg.block_when_full = false;
  if (energy_budget > 0) farm.dvs(energy_budget);
  obs.attach(farm);

  // --pack reads a file positional as a scenario-pack spec; its jobs
  // keep their arrival ticks and deadlines (docs/WORKLOADS.md).
  const auto stream = take(workload::load_jobs(path, pack_mode));
  const auto served = workload::serve(stream, take(farm.try_build()));
  const int obs_rc =
      obs.write({{"verb", "serve"},
                 {"manifest", path},
                 {"deterministic", cfg.deterministic ? "true" : "false"},
                 {"tick_unit", cfg.deterministic ? "cycles" : "us"}},
                served.obs);
  print_serve_report(path, cfg.deterministic, json, served);
  const obs::FarmMetrics& metrics = served.metrics;
  return metrics.completed == metrics.served() && served.rejected == 0
             ? obs_rc
             : 1;
}

/// chaos's renderer: the JSON survival report.
void print_survival_report(const std::string& path, bool deterministic,
                           const fault::FaultPlan& plan,
                           const workload::Served& served,
                           std::uint64_t lost) {
  const obs::FarmMetrics& metrics = served.metrics;
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema_version", obs::kJsonSchemaVersion);
  w.field("manifest", path);
  w.field("deterministic", deterministic);
  w.field("seed", plan.seed);
  w.key("plan");
  w.begin_object();
  w.field("events", static_cast<std::uint64_t>(plan.size()));
  const fault::FaultKind kinds[] = {
      fault::FaultKind::kCluster,      fault::FaultKind::kObject,
      fault::FaultKind::kSwitch,       fault::FaultKind::kCsdSegment,
      fault::FaultKind::kMemoryBlock,  fault::FaultKind::kWorkerStall,
      fault::FaultKind::kWorkerCrash,
  };
  for (const auto kind : kinds) {
    w.field(fault::to_string(kind),
            static_cast<std::uint64_t>(plan.count(kind)));
  }
  w.end_object();
  w.key("jobs");
  w.begin_object();
  w.field("submitted", metrics.submitted);
  w.field("admitted", metrics.admitted);
  w.field("rejected", metrics.rejected);
  w.field("completed", metrics.completed);
  w.field("failed", metrics.served() - metrics.completed);
  w.field("cancelled", metrics.cancelled);
  w.field("lost", lost);
  w.end_object();
  w.key("healing");
  w.begin_object();
  w.field("injected_faults", metrics.injected_faults);
  w.field("retries", metrics.retries);
  w.field("degraded_completed", metrics.degraded_completed);
  w.field("worker_stalls", metrics.worker_stalls);
  w.field("worker_crashes", metrics.worker_crashes);
  w.field("quarantined_chips", metrics.quarantined_chips);
  w.field("health_checks", metrics.health_checks);
  w.field("health_compactions", metrics.health_compactions);
  w.end_object();
  w.key("chips");
  w.begin_array();
  for (const auto& h : served.health) {
    w.begin_object();
    w.field("worker", static_cast<std::uint64_t>(h.worker));
    w.field("total_clusters", static_cast<std::uint64_t>(h.total_clusters));
    w.field("defective_clusters",
            static_cast<std::uint64_t>(h.defective_clusters));
    w.field("free_clusters", static_cast<std::uint64_t>(h.free_clusters));
    w.field("largest_free_run",
            static_cast<std::uint64_t>(h.largest_free_run));
    w.field("chips_retired", static_cast<std::uint64_t>(h.chips_retired));
    if (!h.last_quarantine_reason.empty()) {
      w.field("last_quarantine_reason", h.last_quarantine_reason);
    }
    w.end_object();
  }
  w.end_array();
  w.key("outcomes");
  w.begin_array();
  for (const auto& o : served.log) {
    w.begin_object();
    w.field("name", o.name);
    w.field("status", scaling::to_string(o.status));
    w.field("attempts", static_cast<std::uint64_t>(o.attempts));
    if (!o.detail.empty()) {
      w.field("detail", o.detail);
    }
    w.end_object();
  }
  w.end_array();
  w.field("survived", lost == 0);
  w.end_object();
  std::printf("%s\n", out.str().c_str());
}

int cmd_chaos(int argc, char** argv) {
  std::string path;
  runtime::FarmConfigBuilder farm;
  farm.deterministic();
  runtime::FarmConfig& cfg = farm.raw();
  fault::FaultPlanSpec plan_spec;
  plan_spec.seed = 1;
  plan_spec.events = 16;
  std::uint64_t horizon = 0;
  bool threaded = false;
  bool stalls = false;
  bool crashes = false;
  OptionParser opts(
      "chaos",
      "usage: vlsipc chaos <jobs.txt|@synthetic:N[:seed]> "
      "[--seed S] [--events E] [--horizon H] [--threaded] "
      "[--workers N] [--stalls] [--crashes] [--max-retries R] "
      "[--backoff T] [--quarantine-after Q] "
      "[--obs out.json] [--chrome-trace out.trace]");
  opts.value("--seed", &plan_spec.seed)
      .value("--events", &plan_spec.events)
      .value("--horizon", &horizon)
      .flag("--threaded", &threaded)
      .value("--workers", &cfg.workers)
      .flag("--stalls", &stalls)
      .flag("--crashes", &crashes)
      .value("--max-retries", &cfg.fault_tolerance.max_retries)
      .value("--backoff", &cfg.fault_tolerance.retry_backoff_ticks)
      .value("--quarantine-after", &cfg.fault_tolerance.quarantine_after)
      .positional(&path);
  ObsExport obs(opts);
  int rc = 0;
  if (!opts.parse(argc, argv, &rc)) return rc;
  if (path.empty()) return opts.error("missing <jobs.txt|@synthetic:...>");
  if (threaded) farm.deterministic(false);
  if (stalls) plan_spec.w_worker_stall = 1.0;
  if (crashes) plan_spec.w_worker_crash = 0.5;
  obs.attach(farm);

  const auto stream = take(workload::load_jobs(path));
  // Match the plan's target ranges to the fleet; triggers are global
  // serve-sequence numbers, so the default horizon is the job count
  // (every event lands inside the run).
  plan_spec.clusters = cfg.chip.width * cfg.chip.height * cfg.chip.layers;
  plan_spec.workers = cfg.deterministic ? 1 : cfg.workers;
  plan_spec.horizon =
      horizon > 0 ? horizon
                  : std::max<std::uint64_t>(1, stream.jobs.size());
  farm.fault_tolerance(fault::random_fault_plan(plan_spec));
  const auto served = workload::serve(stream, take(farm.try_build()));

  // Survival: every admitted job must have resolved one way or another.
  const obs::FarmMetrics& metrics = served.metrics;
  const std::uint64_t resolved = metrics.served() + metrics.cancelled;
  const std::uint64_t lost =
      metrics.admitted > resolved ? metrics.admitted - resolved : 0;
  const fault::FaultPlan& plan = cfg.fault_tolerance.plan;
  const int obs_rc =
      obs.write({{"verb", "chaos"},
                 {"manifest", path},
                 {"seed", std::to_string(plan.seed)},
                 {"deterministic", cfg.deterministic ? "true" : "false"},
                 {"survived", lost == 0 ? "true" : "false"}},
                served.obs);
  print_survival_report(path, cfg.deterministic, plan, served, lost);
  return lost == 0 ? obs_rc : 1;
}

int cmd_hub(int argc, char** argv) {
  daemon::HubOptions hub_opts;
  OptionParser opts("hub",
                    "usage: vlsipc hub [--listen H:P|unix:/path] "
                    "[--heartbeat-timeout MS] [--health-interval MS] "
                    "[--window N]");
  opts.value("--listen", &hub_opts.listen)
      .value("--heartbeat-timeout", &hub_opts.heartbeat_timeout_ms)
      .value("--health-interval", &hub_opts.health_interval_ms)
      .value("--window", &hub_opts.assign_window);
  int rc = 0;
  if (!opts.parse(argc, argv, &rc)) return rc;
  daemon::Hub hub(hub_opts);
  const Status started = hub.start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s: %s\n",
                 status_code_name(started.code()),
                 started.message().c_str());
    return 1;
  }
  // Scripts scrape this line for the resolved ephemeral port.
  std::printf("hub listening on %s\n", hub.address().c_str());
  std::fflush(stdout);
  hub.wait();
  hub.stop();
  std::printf("hub stopped\n");
  return 0;
}

int cmd_worker(int argc, char** argv) {
  daemon::WorkerOptions worker_opts;
  runtime::FarmConfigBuilder farm;
  // Sentinel: only forward a builder setting the flag actually set, so
  // the builder's own defaults (and validation) stay in charge.
  const std::size_t kUnset = static_cast<std::size_t>(-1);
  std::size_t workers = kUnset;
  std::size_t batch_jobs = 8;
  std::size_t queue_capacity = 64;
  std::size_t ckpt_batches = kUnset;
  std::uint64_t energy_budget = 0;
  std::uint64_t p99_guardrail = 0;
  bool dvs = false;
  OptionParser opts(
      "worker",
      "usage: vlsipc worker --hub ADDR [--name S] [--workers N] "
      "[--batch B] [--queue D] [--checkpoint-every-batches N] "
      "[--dvs] [--energy-budget FJ] "
      "[--p99-guardrail TICKS] [--heartbeat MS] [--crash-after N]");
  opts.value("--hub", &worker_opts.hub)
      .value("--name", &worker_opts.name)
      .value("--workers", &workers)
      .value("--batch", &batch_jobs)
      .value("--queue", &queue_capacity)
      .value("--checkpoint-every-batches", &ckpt_batches)
      .flag("--dvs", &dvs)
      .value("--energy-budget", &energy_budget)
      .value("--p99-guardrail", &p99_guardrail)
      .value("--heartbeat", &worker_opts.heartbeat_ms)
      .value("--crash-after", &worker_opts.crash_after_jobs);
  int rc = 0;
  if (!opts.parse(argc, argv, &rc)) return rc;
  if (worker_opts.hub.empty()) return opts.error("worker needs --hub ADDR");
  if (workers != kUnset) farm.workers(workers);
  if (ckpt_batches != kUnset) farm.checkpoint_every(ckpt_batches);
  if (dvs) farm.raw().dvs.enabled = true;
  if (energy_budget > 0) farm.dvs(energy_budget);
  if (p99_guardrail > 0) farm.p99_guardrail(p99_guardrail);
  farm.batch(batch_jobs);
  farm.queue(queue_capacity, /*block_when_full=*/true);
  worker_opts.farm = farm.build();

  daemon::WorkerDaemon worker(std::move(worker_opts));
  const Status connected = worker.connect();
  if (!connected.ok()) {
    std::fprintf(stderr, "error: %s: %s\n",
                 status_code_name(connected.code()),
                 connected.message().c_str());
    return 1;
  }
  std::printf("worker %llu serving\n",
              static_cast<unsigned long long>(worker.id()));
  std::fflush(stdout);
  const daemon::WorkerDaemon::Exit exit = worker.run();
  switch (exit) {
    case daemon::WorkerDaemon::Exit::kShutdown:
      std::printf("worker: shutdown (%llu served)\n",
                  static_cast<unsigned long long>(worker.served()));
      return 0;
    case daemon::WorkerDaemon::Exit::kDrained:
      std::printf("worker: drained, checkpoint shipped (%llu served)\n",
                  static_cast<unsigned long long>(worker.served()));
      return 0;
    case daemon::WorkerDaemon::Exit::kCrashed:
      std::fprintf(stderr, "worker: crash injection fired after %llu jobs\n",
                   static_cast<unsigned long long>(worker.served()));
      return 3;
    case daemon::WorkerDaemon::Exit::kLost:
      std::fprintf(stderr, "worker: hub connection lost\n");
      return 1;
  }
  return 1;
}

int cmd_submit(int argc, char** argv) {
  std::string path;
  workload::HubTarget hub;
  workload::HubControl control;
  control.client_name = "vlsipc";
  bool json = false;
  OptionParser opts("submit",
                    "usage: vlsipc submit <jobs.txt> --hub ADDR [--json] "
                    "[--window N] [--drain-worker ID] [--drain-after K] "
                    "[--metrics] [--shutdown]");
  opts.value("--hub", &hub.address)
      .value("--window", &hub.window)
      .flag("--json", &json)
      .value("--drain-worker", &control.drain_worker)
      .value("--drain-after", &control.drain_after)
      .flag("--metrics", &control.fetch_metrics)
      .flag("--shutdown", &control.shutdown_hub)
      .positional(&path);
  int rc = 0;
  if (!opts.parse(argc, argv, &rc)) return rc;
  if (path.empty()) return opts.error("missing <jobs.txt>");
  if (hub.address.empty()) return opts.error("submit needs --hub ADDR");

  const auto stream = take(workload::load_jobs(path));
  const auto remote = take(workload::serve_remote(stream, hub, control));

  // Outcomes are in submit order, so the same manifest prints the same
  // report whatever the worker interleaving.
  const std::size_t submitted = stream.jobs.size();
  std::size_t received = 0;
  std::size_t completed = 0;
  for (const auto& o : remote.outcomes) {
    received += o.has_value();
    completed += o && o->status == scaling::JobStatus::kCompleted;
  }
  if (json) {
    std::ostringstream out;
    obs::JsonWriter w(out);
    w.begin_object();
    w.field("schema_version", obs::kJsonSchemaVersion);
    w.field("verb", "submit");
    w.field("hub", hub.address);
    w.field("manifest", path);
    w.field("submitted", static_cast<std::uint64_t>(submitted));
    w.field("received", static_cast<std::uint64_t>(received));
    w.field("completed", static_cast<std::uint64_t>(completed));
    w.field("lost", static_cast<std::uint64_t>(submitted - received));
    w.key("jobs");
    w.begin_array();
    for (const auto& o : remote.outcomes) {
      if (o) print_outcome_json(w, *o);
    }
    w.end_array();
    if (!remote.hub_metrics.empty()) {
      w.key("hub_metrics");
      w.raw(remote.hub_metrics);
    }
    w.end_object();
    std::printf("%s\n", out.str().c_str());
  } else {
    AsciiTable table({"job", "status", "clusters", "config", "exec",
                      "attempts"});
    for (const auto& o : remote.outcomes) {
      if (!o) continue;
      table.add_row({o->name, scaling::to_string(o->status),
                     std::to_string(o->clusters_used),
                     std::to_string(o->config_cycles),
                     std::to_string(o->exec_cycles),
                     std::to_string(o->attempts)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("submit: %zu jobs, %zu results, %zu completed\n", submitted,
                received, completed);
    if (!remote.hub_metrics.empty()) {
      std::printf("%s\n", remote.hub_metrics.c_str());
    }
  }
  return received == submitted && completed == submitted ? 0 : 1;
}

int cmd_workload(int argc, char** argv) {
  std::string ref;
  std::string mode = "serve";
  std::string report_path;
  bool json = false;
  bool list_kernels = false;
  bool threaded = false;
  std::uint64_t seed = 0;
  std::size_t jobs = 0;
  runtime::FarmConfigBuilder farm;
  farm.deterministic().workers(1);
  workload::HubTarget hub;
  OptionParser opts(
      "workload",
      "usage: vlsipc workload <pack.spec|@preset:NAME[:seed[:jobs]]> "
      "[--mode serve|replay] [--hub ADDR] [--seed S] [--jobs N] "
      "[--batch B] [--workers N] [--threaded] [--window N] "
      "[--report out.json] [--list-kernels] [--json]");
  opts.value("--mode", &mode)
      .value("--hub", &hub.address)
      .value("--seed", &seed)
      .value("--jobs", &jobs)
      .value("--batch", &farm.raw().batch.max_jobs)
      .value("--workers", &farm.raw().workers)
      .value("--window", &hub.window)
      .flag("--threaded", &threaded)
      .value("--report", &report_path)
      .flag("--list-kernels", &list_kernels)
      .flag("--json", &json)
      .positional(&ref);
  int rc = 0;
  if (!opts.parse(argc, argv, &rc)) return rc;
  (void)json;  // the report is always JSON; --json makes errors JSON too

  if (list_kernels) {
    // The kernel library card: every family at a few representative
    // widths, with the resources the workload layer would pick.
    AsciiTable table({"kernel", "width", "objects", "clusters"});
    for (std::size_t k = 0; k < workload::kKernelKinds; ++k) {
      for (const int width : {2, 4, 8, 16}) {
        workload::KernelSpec spec;
        spec.kind = static_cast<workload::KernelKind>(k);
        spec.width = width;
        auto kernel = workload::build_kernel(spec);
        VLSIP_REQUIRE(kernel.ok(), kernel.status().to_string());
        table.add_row({kernel->label, std::to_string(width),
                       std::to_string(kernel->program.object_count()),
                       std::to_string(kernel->recommended_clusters)});
      }
    }
    std::printf("%s", table.render().c_str());
    return 0;
  }

  if (ref.empty()) return opts.error("missing <pack.spec|@preset:...>");
  if (mode != "serve" && mode != "replay") {
    return opts.error("--mode must be 'serve' or 'replay', got '" + mode +
                      "'");
  }
  if (mode == "replay" && !hub.address.empty()) {
    return opts.error("--mode replay is local-only (drop --hub)");
  }

  const auto stream =
      take(workload::load_jobs(ref, /*pack_files=*/true, seed, jobs));
  std::string report;
  if (!hub.address.empty()) {
    report = take(workload::run_pack(stream, hub));
  } else {
    // Threaded mode frees the worker count and reports wall-tick
    // latencies; its queue holds the whole stream.
    if (threaded) farm.deterministic(false).queue(stream.jobs.size() + 1, true);
    const auto config = take(farm.try_build());
    report = take(mode == "replay" ? workload::run_pack_replay(stream, config)
                                   : workload::run_pack(stream, config));
  }
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    out << report << "\n";
    if (!out) {
      std::fprintf(stderr, "error: cannot write report: %s\n",
                   report_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote report: %s\n", report_path.c_str());
  }
  std::printf("%s\n", report.c_str());
  return 0;
}

/// Classifies an escaped exception into a stable machine-readable code
/// (mirrors vlsip::StatusCode names; see docs/OBSERVABILITY.md).
const char* classify_error(const std::exception& e) {
  if (const auto* failure = dynamic_cast<const StatusFailure*>(&e)) {
    return status_code_name(failure->status.code());
  }
  if (dynamic_cast<const snapshot::SnapshotError*>(&e) != nullptr) {
    return status_code_name(StatusCode::kCorruptSnapshot);
  }
  if (dynamic_cast<const CompileFailed*>(&e) != nullptr) {
    return status_code_name(StatusCode::kInvalidArgument);
  }
  if (dynamic_cast<const std::logic_error*>(&e) != nullptr) {
    return status_code_name(StatusCode::kInvalidArgument);
  }
  if (dynamic_cast<const std::ios_base::failure*>(&e) != nullptr) {
    return status_code_name(StatusCode::kIoError);
  }
  return "internal";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "vlsipc — object-code toolchain for the VLSI processor\n"
                 "usage: vlsipc compile|info|run|snapshot|resume|serve|chaos|"
                 "hub|worker|submit|workload ...\n");
    return 2;
  }
  // Verbs asked for JSON must fail in JSON too, so scripted callers
  // never have to parse stderr prose.
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  try {
    const struct {
      const char* name;
      int (*run)(int, char**);
    } verbs[] = {
        {"compile", cmd_compile}, {"info", cmd_info},
        {"run", cmd_run},         {"snapshot", cmd_snapshot},
        {"resume", cmd_resume},   {"serve", cmd_serve},
        {"chaos", cmd_chaos},     {"hub", cmd_hub},
        {"worker", cmd_worker},   {"submit", cmd_submit},
        {"workload", cmd_workload},
    };
    for (const auto& verb : verbs) {
      if (std::strcmp(argv[1], verb.name) == 0) {
        return verb.run(argc - 2, argv + 2);
      }
    }
    std::fprintf(stderr, "unknown command: %s\n", argv[1]);
    return 2;
  } catch (const std::exception& e) {
    if (json) {
      std::ostringstream out;
      obs::JsonWriter w(out);
      w.begin_object();
      w.field("schema_version", obs::kJsonSchemaVersion);
      w.key("error");
      w.begin_object();
      w.field("code", classify_error(e));
      const auto* failure = dynamic_cast<const StatusFailure*>(&e);
      w.field("message", failure != nullptr ? failure->status.message()
                                            : std::string(e.what()));
      // Compile failures carry the offending source line (the typed
      // lang::try_compile error), so scripted callers can point at it.
      if (const auto* cf = dynamic_cast<const CompileFailed*>(&e)) {
        w.field("line", static_cast<std::uint64_t>(cf->line));
      }
      w.end_object();
      w.end_object();
      std::printf("%s\n", out.str().c_str());
    }
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

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
//   vlsipc hub [--listen H:P|unix:/path] [--heartbeat-timeout MS]
//              [--health-interval MS] [--window N]
//       Run the distributed farm's hub daemon: admission + routing.
//       Prints "hub listening on ADDR" (resolved port for :0), then
//       blocks until a client sends shutdown.
//
// The farm verbs share one flag table; a flag means the same thing on
// every verb that takes it. Each verb is a row of defaults plus a report:
//
//   vlsipc serve <input> [farm flags]     threaded, 4 workers, queue 64
//       The per-job table or --json document with throughput and latency
//       percentiles; exit 0 iff every job completed and none was
//       rejected. Through --hub it prints the submit report.
//   vlsipc chaos <input> [farm flags]     deterministic, fault plan on
//       The JSON survival report; exit 0 iff no admitted job was lost.
//       Local only.
//   vlsipc workload <input> [farm flags]  deterministic, 1 worker, --pack
//       The schema-versioned pack report (docs/WORKLOADS.md); the queue
//       holds the whole stream.
//   vlsipc submit <input> --hub ADDR [farm flags]
//       serve through a hub: the submit table or --json document; exit 0
//       iff every job came back completed (docs/DISTRIBUTED.md).
//   vlsipc worker --hub ADDR [farm flags]
//       The worker daemon, one threaded ChipFarm served over the wire.
//       Exit 0 on shutdown/drain, 3 when --crash-after fired, 1 when the
//       hub connection was lost.
//
// <input> is a job manifest, @synthetic:N[:seed], @preset:NAME[:seed
// [:jobs]] or, with --pack, a pack spec file. On every verb a full
// queue blocks the submitter unless --reject is given. The farm flags:
//   farm        --workers N --queue D (0 = the whole stream) --reject
//               --batch B --threaded --deterministic
//               --checkpoint-every-batches N --dvs --energy-budget FJ
//               --p99-guardrail TICKS
//   fault plan  --events E (16) --horizon H (the job count) --stalls
//               --crashes --max-retries R --backoff T --quarantine-after Q
//   input       --seed S --pack --jobs N --mode serve|replay
//   report      --json --report FILE --list-kernels --obs out.json
//               --chrome-trace out.trace
//   hub client  --hub ADDR --window N --drain-worker ID --drain-after K
//               --metrics --shutdown
//   worker      --name S --heartbeat MS --crash-after N
// --deterministic serves on one worker's virtual cycle clock, so reports
// are bit-identical run to run; --threaded serves on --workers threads
// in wall time (the last one given wins). --seed S is the run's seed: it
// seeds the fault plan (default 1) and replaces a scenario pack's own.
// Any fault flag turns the fault plan on. --mode replay serves the stream
// after a snapshot-codec round trip; --report also writes the report to
// FILE. A flag the run cannot honour (a farm or fault flag with --hub, a
// hub client flag without it, --seed with neither a pack nor a fault
// plan) is an invalid_argument error. Every verb serves through
// workload/runner.hpp: one job stream, one validated FarmConfig, one
// serve here or through --hub, then the verb's report.
//
// run and resume also accept --obs and --chrome-trace:
//   --obs <out.json>           write an ObsSnapshot (run info + every
//                              layer's metrics + trace summary)
//   --chrome-trace <out.trace> write the session's structured events as
//                              chrome://tracing JSON (open in Perfetto)
// See docs/OBSERVABILITY.md for the schema.
//
// Sources (.vdf) are compiled on the fly; object files (.vobj) load
// directly. Everything except farm wall-clock latency is deterministic.
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
// command line) plus the usage line on stderr, exit code 2. The usage
// line is generated from the table, so a flag is named once.

class OptionParser {
 public:
  explicit OptionParser(std::string verb) : verb_(std::move(verb)) {}

  /// A boolean flag that sets *out to `value`; the last one given wins.
  OptionParser& flag(const char* name, bool* out, bool value = true) {
    return add(name, "", value ? Kind::kOn : Kind::kOff, out);
  }
  OptionParser& value(const char* name, std::string* out,
                      const char* metavar) {
    return add(name, metavar, Kind::kString, out);
  }
  OptionParser& value(const char* name, int* out, const char* metavar = "N") {
    return add(name, metavar, Kind::kInt, out);
  }
  /// std::size_t and std::uint64_t are the same type on LP64, so one
  /// overload covers both counters and tick values.
  OptionParser& value(const char* name, std::uint64_t* out,
                      const char* metavar = "N") {
    return add(name, metavar, Kind::kU64, out);
  }
  /// A value flag that may appear many times (run's --in feeds).
  OptionParser& repeated(const char* name, std::vector<std::string>* out,
                         const char* metavar) {
    return add(name, metavar, Kind::kRepeated, out);
  }
  /// Accept one bare (non-flag) token.
  OptionParser& positional(std::string* out, std::string name) {
    positional_ = out;
    positional_name_ = std::move(name);
    return *this;
  }
  /// Tags the flags registered after this call; given() looks them up.
  OptionParser& scope(unsigned bits) {
    scope_ = bits;
    return *this;
  }

  /// The first flag on the command line whose scope shares a bit with
  /// `mask`, or nullptr.
  const char* given(unsigned mask) const {
    for (const auto& opt : opts_) {
      if (opt.seen && (opt.scope & mask) != 0) return opt.name.c_str();
    }
    return nullptr;
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
      Opt* opt = find(tok);
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
      opt->seen = true;
      if (opt->kind == Kind::kOn || opt->kind == Kind::kOff) {
        *static_cast<bool*>(opt->out) = opt->kind == Kind::kOn;
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
      if (opt->kind == Kind::kInt) {
        *static_cast<int*>(opt->out) = static_cast<int>(n);
      } else {
        *static_cast<std::uint64_t*>(opt->out) = n;
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
    std::fprintf(stderr, "%s\n", usage().c_str());
    return 2;
  }

 private:
  enum class Kind { kOn, kOff, kString, kInt, kU64, kRepeated };
  struct Opt {
    std::string name;
    std::string metavar;
    Kind kind;
    void* out;
    unsigned scope;
    bool seen;
  };

  OptionParser& add(const char* name, const char* metavar, Kind kind,
                    void* out) {
    opts_.push_back({name, metavar, kind, out, scope_, false});
    return *this;
  }

  /// "usage: vlsipc VERB <positional> [--flag] [--value METAVAR]...".
  std::string usage() const {
    std::string text = "usage: vlsipc " + verb_;
    if (positional_ != nullptr) text += " " + positional_name_;
    for (const auto& opt : opts_) {
      text += " [" + opt.name + (opt.metavar.empty() ? "" : " ") +
              opt.metavar + "]";
    }
    return text;
  }

  static bool parse_integer(const std::string& s, std::uint64_t* out) {
    if (s.empty()) return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size()) return false;
    *out = static_cast<std::uint64_t>(v);
    return true;
  }

  Opt* find(const std::string& name) {
    for (auto& opt : opts_) {
      if (opt.name == name) return &opt;
    }
    return nullptr;
  }

  std::string verb_;
  std::vector<Opt> opts_;
  std::string* positional_ = nullptr;
  std::string positional_name_;
  unsigned scope_ = 0;
  bool json_ = false;
};

/// Tokens to feed, by input port (run/snapshot --in).
using Feeds = std::vector<std::pair<std::string, std::vector<std::int64_t>>>;

/// Parses repeated "name=v1,v2,..." --in specs.
bool parse_feeds(const std::vector<std::string>& specs, Feeds* feeds,
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
  OptionParser opts("compile");
  opts.value("-o", &out_path, "out")
      .flag("--optimize", &optimize)
      .positional(&src_path, "<source.vdf>");
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
  OptionParser opts("info");
  opts.positional(&path, "<file>");
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
// metadata (program path, capacity, expected tokens, remaining cycle
// budget) followed by the AP's own checkpoint, which carries the rest:
// the configured program, its configuration stats and the execution
// totals of every finished segment. `run --checkpoint-every` rewrites
// it each segment; `snapshot` stops after one segment; `resume`
// restores it and keeps going.

struct RunSession {
  /// Original program path — display name in reports, so a resumed
  /// run's report matches the uninterrupted one byte for byte.
  std::string program_path;
  int capacity = 64;
  std::size_t expect = 1;
  std::uint64_t remaining_cycles = 1u << 24;
  /// The last segment's stats, never saved: its terminal state
  /// (completed/deadlocked/blocked_report) is the whole run's.
  ap::ExecStats last;
};

void write_session(const std::string& path, const RunSession& session,
                   const ap::AdaptiveProcessor& ap) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.section("vlsipc.session");
  w.str(session.program_path);
  w.i32(session.capacity);
  w.u64(session.expect);
  w.u64(session.remaining_cycles);
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
  session.expect = static_cast<std::size_t>(r.u64());
  session.remaining_cycles = r.u64();
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

/// A new session: `path`'s program configured on `ap` (built with
/// make_session_config(capacity, ...)) and `feeds` queued at its inputs.
RunSession start_session(ap::AdaptiveProcessor& ap, const std::string& path,
                         int capacity, std::size_t expect,
                         const Feeds& feeds) {
  RunSession session;
  session.program_path = path;
  session.capacity = capacity;
  session.expect = expect;
  ap.configure(load_program(path));
  for (const auto& [name, values] : feeds) {
    for (const auto v : values) ap.feed(name, arch::make_word_i(v));
  }
  return session;
}

/// Runs one segment of at most `budget` cycles and charges it to the
/// session's budget.
void run_segment(ap::AdaptiveProcessor& ap, RunSession& session,
                 std::uint64_t budget) {
  session.last = ap.run(session.expect, budget);
  session.remaining_cycles -=
      std::min(session.remaining_cycles, session.last.cycles);
}

/// Runs the session to completion (or budget exhaustion), one segment
/// per checkpoint when checkpointing is on. Returns when a terminal
/// state is reached.
void run_session(ap::AdaptiveProcessor& ap, RunSession& session,
                 std::uint64_t checkpoint_every,
                 const std::string& checkpoint_path) {
  // A session checkpointed after its run ended resumes at that end: the
  // AP's run counters say how it ended, and one more segment would step
  // the executor a cycle past it.
  const ap::ApStats& ended = ap.stats();
  if (ended.runs_completed > 0 || ended.runs_deadlocked > 0) {
    session.last.completed = ended.runs_completed > 0;
    session.last.deadlocked = ended.runs_deadlocked > 0;
    if (session.last.deadlocked) session.last.blocked_report = ap.diagnose();
    if (!checkpoint_path.empty()) {
      write_session(checkpoint_path, session, ap);
    }
    return;
  }
  for (;;) {
    run_segment(ap, session,
                checkpoint_every == 0
                    ? session.remaining_cycles
                    : std::min(session.remaining_cycles, checkpoint_every));
    if (!checkpoint_path.empty()) {
      write_session(checkpoint_path, session, ap);
    }
    const ap::ExecStats& seg = session.last;
    if (seg.completed || seg.deadlocked || session.remaining_cycles == 0) {
      return;
    }
    // A segment that consumed no cycles can never make progress in the
    // next one either (quiesced but starved); stop instead of spinning.
    if (seg.cycles == 0) return;
  }
}

/// --obs / --chrome-trace: the ObsSnapshot export shared by the session
/// verbs (run, resume and the farm verbs; docs/OBSERVABILITY.md).
class ObsExport {
 public:
  explicit ObsExport(OptionParser& opts) {
    opts.value("--obs", &obs_path_, "out.json")
        .value("--chrome-trace", &trace_path_, "out.trace");
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
    info.emplace_back("status", run_status(session.last));
    obs::MetricRegistry metrics;
    ap.export_obs(metrics);
    obs_rc = obs.write(info, std::move(metrics), &ap.trace());
  }
  // The AP's lifetime totals cover every segment, both halves of a
  // resumed run included; the terminal state is the last segment's.
  ap::ExecStats exec = ap.stats().exec;
  exec.completed = session.last.completed;
  exec.deadlocked = session.last.deadlocked;
  exec.blocked_report = session.last.blocked_report;
  const ap::ConfigStats& config_stats = ap.stats().config;
  const arch::Program& program = ap.program();
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
    for (const auto& [name, id] : program.outputs) {
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
  for (const auto& [name, id] : program.outputs) {
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
  OptionParser opts("run");
  opts.repeated("--in", &in_specs, "name=v,...")
      .value("--capacity", &capacity, "C")
      .value("--expect", &expect)
      .flag("--json", &json)
      .value("--checkpoint-every", &checkpoint_every, "CYC")
      .value("--checkpoint", &checkpoint_path, "out.vsnap")
      .positional(&path, "<file>");
  ObsExport obs(opts);
  int rc = 0;
  if (!opts.parse(argc, argv, &rc)) return rc;
  if (path.empty()) return opts.error("missing <file>");
  if (checkpoint_every > 0 && checkpoint_path.empty()) {
    return opts.error("--checkpoint-every needs --checkpoint <out.vsnap>");
  }
  Feeds feeds;
  std::string bad_spec;
  if (!parse_feeds(in_specs, &feeds, &bad_spec)) {
    return opts.error("bad --in spec: " + bad_spec);
  }

  // The exporters read the AP's own trace sink; only pay for recording
  // when a snapshot was actually requested.
  ap::AdaptiveProcessor ap(make_session_config(capacity, obs.wanted()));
  RunSession session = start_session(ap, path, capacity, expect, feeds);
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
  OptionParser opts("snapshot");
  opts.repeated("--in", &in_specs, "name=v,...")
      .value("--capacity", &capacity, "C")
      .value("--expect", &expect)
      .value("--at", &at, "CYC")
      .value("-o", &out_path, "out.vsnap")
      .positional(&path, "<file>");
  int rc = 0;
  if (!opts.parse(argc, argv, &rc)) return rc;
  if (path.empty()) return opts.error("missing <file>");
  if (out_path.empty()) return opts.error("-o <out.vsnap> is required");
  if (at == 0) return opts.error("--at CYC is required");
  Feeds feeds;
  std::string bad_spec;
  if (!parse_feeds(in_specs, &feeds, &bad_spec)) {
    return opts.error("bad --in spec: " + bad_spec);
  }

  ap::AdaptiveProcessor ap(make_session_config(capacity, false));
  RunSession session = start_session(ap, path, capacity, expect, feeds);
  run_segment(ap, session, std::min(at, session.remaining_cycles));
  write_session(out_path, session, ap);
  const ap::ExecStats& seg = session.last;
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
  OptionParser opts("resume");
  opts.flag("--json", &json)
      .value("--checkpoint-every", &checkpoint_every, "CYC")
      .value("--checkpoint", &checkpoint_path, "out.vsnap")
      .positional(&path, "<file.vsnap>");
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
  if (!ap.has_datapath()) {
    throw snapshot::SnapshotError("the session's AP holds no program");
  }
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
// serve, chaos, workload, submit and worker parse one flag table
// (cmd_farm): each farm flag is declared once, means the same thing on
// every verb and feeds one FarmConfigBuilder. A verb is a row of
// defaults plus its reports (kFarmVerbs; see the header comment).

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

/// The serve report: the per-job table or JSON document plus the
/// throughput/latency footer.
std::string serve_report(const std::string& path, bool deterministic,
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
    return out.str() + "\n";
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
  char footer[128];
  if (deterministic) {
    std::snprintf(footer, sizeof footer,
                  "farm: %zu worker(s), %llu virtual cycles\n",
                  served.workers,
                  static_cast<unsigned long long>(served.final_tick));
  } else {
    std::snprintf(footer, sizeof footer,
                  "farm: %zu workers, %.3f s wall, %.1f jobs/sec\n",
                  served.workers, served.wall_s, jobs_per_sec);
  }
  return table.render() + "\n" + metrics.render(unit) + footer;
}

/// The chaos report: the JSON survival report.
std::string survival_report(const std::string& path, bool deterministic,
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
  return out.str() + "\n";
}

/// The submit report: the per-job table or JSON document of a serve
/// through a hub. Outcomes are in submit order, so the same manifest
/// prints the same report whatever the worker interleaving. *ok is set
/// iff every job came back completed.
std::string submit_report(const std::string& path, const std::string& hub,
                          bool json, const workload::RemoteServed& remote,
                          bool* ok) {
  const std::size_t submitted = remote.outcomes.size();
  std::size_t received = 0;
  std::size_t completed = 0;
  for (const auto& o : remote.outcomes) {
    received += o.has_value();
    completed += o && o->status == scaling::JobStatus::kCompleted;
  }
  *ok = received == submitted && completed == submitted;
  if (json) {
    std::ostringstream out;
    obs::JsonWriter w(out);
    w.begin_object();
    w.field("schema_version", obs::kJsonSchemaVersion);
    w.field("verb", "submit");
    w.field("hub", hub);
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
    return out.str() + "\n";
  }
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
  std::string text = table.render() + "\nsubmit: " +
                     std::to_string(submitted) + " jobs, " +
                     std::to_string(received) + " results, " +
                     std::to_string(completed) + " completed\n";
  if (!remote.hub_metrics.empty()) text += remote.hub_metrics + "\n";
  return text;
}

/// The worker daemon's serving loop and exit code.
int run_worker(daemon::WorkerOptions options) {
  daemon::WorkerDaemon worker(std::move(options));
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
  const auto served = static_cast<unsigned long long>(worker.served());
  switch (exit) {
    case daemon::WorkerDaemon::Exit::kShutdown:
      std::printf("worker: shutdown (%llu served)\n", served);
      return 0;
    case daemon::WorkerDaemon::Exit::kDrained:
      std::printf("worker: drained, checkpoint shipped (%llu served)\n",
                  served);
      return 0;
    case daemon::WorkerDaemon::Exit::kCrashed:
      std::fprintf(stderr, "worker: crash injection fired after %llu jobs\n",
                   served);
      return 3;
    case daemon::WorkerDaemon::Exit::kLost:
      std::fprintf(stderr, "worker: hub connection lost\n");
      return 1;
  }
  return 1;
}

/// Where a farm flag applies. A run rejects every flag outside the
/// scopes it honours.
enum FarmScope : unsigned {
  kFarm = 1u << 0,    // shapes a local farm: a serve here or a worker
  kHere = 1u << 1,    // only a serve here: the clock, the obs export
  kFaults = 1u << 2,  // the fault plan, served here; any one turns it on
  kStream = 1u << 3,  // the job stream and its report: not the worker
  kClient = 1u << 4,  // a hub client: a serve through --hub
  kDaemon = 1u << 5,  // the worker daemon alone
  kSeed = 1u << 6,    // marks --seed, looked up after the parse
};

/// What a farm run prints; kNone: the run needs (or refuses) --hub.
enum class Report { kNone, kServe, kSurvival, kPack, kSubmit, kDaemon };

/// One farm verb: its defaults row and its reports.
struct FarmVerb {
  const char* name;
  const char* input;    // the positional (nullptr: none)
  bool deterministic;   // the default clock
  std::size_t workers;
  std::size_t queue;    // admission queue depth; 0 = the whole stream
  bool faults;          // the fault plan is on without a fault flag
  bool pack_files;      // a file positional is a pack spec (--pack)
  Report here;          // without --hub
  Report remote;        // with --hub
  const char* client;   // the hub client's name
};

// A full queue blocks the submitter on every row (--reject rejects), so
// a threaded run admits the whole stream whatever the host's timing.
constexpr FarmVerb kFarmVerbs[] = {
    {"serve", "<jobs.txt|pack-ref>", false, 4, 64, false, false,
     Report::kServe, Report::kSubmit, "vlsipc"},
    {"chaos", "<jobs.txt|@synthetic:N[:seed]>", true, 4, 64, true, false,
     Report::kSurvival, Report::kNone, "vlsipc"},
    {"workload", "<pack.spec|@preset:NAME[:seed[:jobs]]>", true, 1, 0, false,
     true, Report::kPack, Report::kPack, "workload"},
    {"submit", "<jobs.txt>", false, 4, 64, false, false, Report::kNone,
     Report::kSubmit, "vlsipc"},
    {"worker", nullptr, false, 4, 64, false, false, Report::kNone,
     Report::kDaemon, "vlsipc"},
};

int cmd_farm(const FarmVerb& verb, int argc, char** argv) {
  runtime::FarmConfigBuilder farm;
  farm.deterministic(verb.deterministic)
      .workers(verb.workers)
      .queue(verb.queue, /*block_when_full=*/true);
  runtime::FarmConfig& cfg = farm.raw();
  fault::FaultPlanSpec plan;
  plan.events = 16;
  plan.horizon = 0;  // 0 = the job count
  bool stalls = false;
  bool crashes = false;
  bool pack = verb.pack_files;
  std::size_t jobs = 0;
  std::string mode = "serve";
  std::string report_path;
  bool list_kernels = false;
  bool json = false;
  std::string input;
  workload::HubTarget hub;
  workload::HubControl control;
  control.client_name = verb.client;
  daemon::WorkerOptions daemon_opts;
  OptionParser opts(verb.name);
  opts.scope(kFarm)
      .value("--workers", &cfg.workers)
      .value("--queue", &cfg.queue_capacity, "D")
      .flag("--reject", &cfg.block_when_full, false)
      .value("--batch", &cfg.batch.max_jobs, "B")
      .value("--checkpoint-every-batches", &cfg.checkpoint_every_batches)
      .flag("--dvs", &cfg.dvs.enabled)
      .value("--energy-budget", &cfg.dvs.energy_budget_fj_per_job, "FJ")
      .value("--p99-guardrail", &cfg.dvs.p99_guardrail_ticks, "TICKS")
      .flag("--threaded", &cfg.deterministic, false)
      .scope(kHere)
      .flag("--deterministic", &cfg.deterministic);
  ObsExport obs(opts);
  opts.scope(kFaults)
      .value("--events", &plan.events, "E")
      .value("--horizon", &plan.horizon, "H")
      .flag("--stalls", &stalls)
      .flag("--crashes", &crashes)
      .value("--max-retries", &cfg.fault_tolerance.max_retries, "R")
      .value("--backoff", &cfg.fault_tolerance.retry_backoff_ticks, "T")
      .value("--quarantine-after", &cfg.fault_tolerance.quarantine_after,
             "Q")
      .scope(kStream | kSeed)
      .value("--seed", &plan.seed, "S")
      .scope(kStream)
      .flag("--pack", &pack)
      .value("--jobs", &jobs)
      .value("--mode", &mode, "serve|replay")
      .value("--report", &report_path, "FILE")
      .flag("--list-kernels", &list_kernels)
      .scope(kClient)
      .value("--window", &hub.window)
      .value("--drain-worker", &control.drain_worker, "ID")
      .value("--drain-after", &control.drain_after, "K")
      .flag("--metrics", &control.fetch_metrics)
      .flag("--shutdown", &control.shutdown_hub)
      .scope(kDaemon)
      .value("--name", &daemon_opts.name, "S")
      .value("--heartbeat", &daemon_opts.heartbeat_ms, "MS")
      .value("--crash-after", &daemon_opts.crash_after_jobs)
      .scope(0)
      .value("--hub", &hub.address, "ADDR")
      .flag("--json", &json);
  if (verb.input != nullptr) opts.positional(&input, verb.input);
  int rc = 0;
  if (!opts.parse(argc, argv, &rc)) return rc;

  // What the run can honour decides which flags it takes.
  const bool remote = !hub.address.empty();
  const Report report = remote ? verb.remote : verb.here;
  if (report == Report::kNone) {
    return opts.error(std::string(verb.name) +
                      (remote ? " is local-only (drop --hub)"
                              : " needs --hub ADDR"));
  }
  const unsigned honoured = report == Report::kDaemon ? kFarm | kDaemon
                            : remote ? kStream | kClient
                                     : kFarm | kHere | kFaults | kStream;
  if (const char* flag = opts.given(~(honoured | kSeed))) {
    return opts.error(std::string(flag) + " does not apply to " +
                      (report == Report::kDaemon ? "a worker"
                       : remote ? "a serve through --hub"
                                : "a serve without --hub"));
  }
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
  if (cfg.dvs.energy_budget_fj_per_job > 0) cfg.dvs.enabled = true;
  if (report == Report::kDaemon) {
    daemon_opts.hub = hub.address;
    daemon_opts.farm = take(farm.try_build());
    return run_worker(std::move(daemon_opts));
  }
  if (input.empty()) return opts.error(std::string("missing ") + verb.input);
  if (mode != "serve" && mode != "replay") {
    return opts.error("--mode must be 'serve' or 'replay', got '" + mode +
                      "'");
  }
  if (mode == "replay" && remote) {
    return opts.error("--mode replay is local-only (drop --hub)");
  }
  const bool faults = verb.faults || opts.given(kFaults) != nullptr;
  const bool seeded = opts.given(kSeed) != nullptr;
  const bool pack_input = workload::is_pack_ref(input, pack);
  if (seeded && !faults && !pack_input) {
    return opts.error("--seed needs a scenario pack or a fault plan");
  }
  if (jobs != 0 && !pack_input) {
    return opts.error("--jobs needs a scenario pack");
  }

  auto stream = take(
      workload::load_jobs(input, pack, seeded ? plan.seed : 0, jobs));
  if (mode == "replay") stream = take(workload::replay_stream(stream));
  std::string text;
  bool ok = true;
  int obs_rc = 0;
  if (remote) {
    const auto served = take(workload::serve_remote(stream, hub, control));
    text = report == Report::kPack
               ? take(workload::pack_report(stream, served)) + "\n"
               : submit_report(input, hub.address, json, served, &ok);
  } else {
    if (cfg.queue_capacity == 0) cfg.queue_capacity = stream.jobs.size() + 1;
    if (faults) {
      // Match the plan's target ranges to the fleet; triggers are global
      // serve-sequence numbers, so the default horizon is the job count
      // (every event lands inside the run).
      plan.clusters = cfg.chip.width * cfg.chip.height * cfg.chip.layers;
      plan.workers = cfg.deterministic ? 1 : cfg.workers;
      if (plan.horizon == 0) {
        plan.horizon = std::max<std::uint64_t>(1, stream.jobs.size());
      }
      if (stalls) plan.w_worker_stall = 1.0;
      if (crashes) plan.w_worker_crash = 0.5;
      farm.fault_tolerance(fault::random_fault_plan(plan));
    }
    obs.attach(farm);
    const auto served = workload::serve(stream, take(farm.try_build()));
    const obs::FarmMetrics& metrics = served.metrics;
    const bool det = cfg.deterministic;
    std::vector<std::pair<std::string, std::string>> info = {
        {"verb", verb.name}, {"manifest", input}};
    if (report == Report::kServe) {
      info.emplace_back("deterministic", det ? "true" : "false");
      info.emplace_back("tick_unit", det ? "cycles" : "us");
      text = serve_report(input, det, json, served);
      ok = metrics.completed == metrics.served() && served.rejected == 0;
    } else if (report == Report::kSurvival) {
      // Survival: every admitted job must have resolved one way or
      // another.
      const std::uint64_t resolved = metrics.served() + metrics.cancelled;
      const std::uint64_t lost =
          metrics.admitted > resolved ? metrics.admitted - resolved : 0;
      const fault::FaultPlan& fault_plan = cfg.fault_tolerance.plan;
      info.emplace_back("seed", std::to_string(fault_plan.seed));
      info.emplace_back("deterministic", det ? "true" : "false");
      info.emplace_back("survived", lost == 0 ? "true" : "false");
      text = survival_report(input, det, fault_plan, served, lost);
      ok = lost == 0;
    } else {
      info.emplace_back("deterministic", det ? "true" : "false");
      text = take(workload::pack_report(stream, served)) + "\n";
    }
    obs_rc = obs.write(info, served.obs);
  }
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    out << text;
    if (!out) {
      std::fprintf(stderr, "error: cannot write report: %s\n",
                   report_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote report: %s\n", report_path.c_str());
  }
  std::fputs(text.c_str(), stdout);
  return ok ? obs_rc : 1;
}

int cmd_hub(int argc, char** argv) {
  daemon::HubOptions hub_opts;
  OptionParser opts("hub");
  opts.value("--listen", &hub_opts.listen, "H:P|unix:/path")
      .value("--heartbeat-timeout", &hub_opts.heartbeat_timeout_ms, "MS")
      .value("--health-interval", &hub_opts.health_interval_ms, "MS")
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
        {"resume", cmd_resume},   {"hub", cmd_hub},
    };
    for (const auto& verb : verbs) {
      if (std::strcmp(argv[1], verb.name) == 0) {
        return verb.run(argc - 2, argv + 2);
      }
    }
    for (const FarmVerb& verb : kFarmVerbs) {
      if (std::strcmp(argv[1], verb.name) == 0) {
        return cmd_farm(verb, argc - 2, argv + 2);
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

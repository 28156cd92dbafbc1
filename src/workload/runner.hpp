// The serving path behind every farm front door (vlsipc serve, chaos,
// workload, submit): load_jobs() turns a positional into a JobStream,
// the caller validates a FarmConfig with FarmConfigBuilder::try_build(),
// serve() submits the stream to one ChipFarm and drains it, and the
// verb renders the Served result. serve_remote() is the same stream
// through net::HubClient.
//
// pack_report() renders a pack stream's schema-versioned workload-pack
// report (per-kernel latency/energy percentiles and outcome counts)
// from either serve. Served locally in deterministic mode it is
// byte-identical per seed: timestamps come from the virtual cycle
// clock and every aggregate is exact integer math. Remote timestamps
// are worker wall clocks, so byte-identity is local-only.
// replay_stream() round-trips a stream through the snapshot codec
// (save_stream()/restore_stream()); serving that copy must give the
// same report byte for byte.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/chip_farm.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/scenario.hpp"

namespace vlsip::workload {

/// Version of the workload-pack report payload (distinct from the
/// toolchain-wide obs::kJsonSchemaVersion carried alongside it): bump
/// when a report field is renamed, removed, or changes meaning.
inline constexpr std::uint64_t kPackReportVersion = 1;

/// Resolves `ref` into a job stream:
///   "@preset:NAME[:seed[:jobs]]"  a builtin scenario pack (load_pack);
///   "@synthetic:N[:seed]"         runtime::synthetic_jobs;
///   anything else                 a file — a pack spec when
///                                 `pack_files`, otherwise a manifest.
/// Manifest and synthetic jobs arrive at tick 0 with no deadline, which
/// is what ChipFarm::submit(job) does with default SubmitOptions.
/// Non-zero `seed` / `jobs` override a pack's own. kInvalidArgument on
/// a malformed ref or manifest, kIoError on an unreadable pack spec.
StatusOr<JobStream> load_jobs(const std::string& ref, bool pack_files = false,
                              std::uint64_t seed = 0, std::size_t jobs = 0);

/// True when load_jobs(ref, pack_files) reads a scenario pack, the one
/// kind of ref whose seed and job count `seed` / `jobs` replace.
bool is_pack_ref(const std::string& ref, bool pack_files);

/// Everything one local serve produced.
struct Served {
  std::vector<scaling::JobOutcome> log;  // completion order
  obs::FarmMetrics metrics;
  std::vector<runtime::ChipFarm::ChipHealth> health;
  /// Every layer's probes; read only when the config has a trace sink.
  obs::MetricRegistry obs;
  /// Farm clock after the drain (virtual cycles when deterministic).
  std::uint64_t final_tick = 0;
  std::size_t workers = 0;
  std::size_t rejected = 0;  // refused at admission
  /// Host seconds from farm construction to the end of the drain.
  double wall_s = 0.0;
  bool energy = false;  // DVS energy metering was on
};

/// Serves `stream` on one ChipFarm built from `config`. A pack that
/// meters energy turns DVS metering on (the budget stays as
/// configured), so its outcomes carry femtojoules. Throws
/// PreconditionError on a config or job the farm refuses.
Served serve(const JobStream& stream, runtime::FarmConfig config);

/// The remote pair: the hub address ("host:port" or "unix:/path") and
/// the client's submission window (0 = unbounded).
struct HubTarget {
  std::string address;
  std::size_t window = 64;
};

/// Hub controls beyond submit-and-collect (the submit verb's flags).
struct HubControl {
  /// Display name sent in the client's Hello.
  std::string client_name = "workload";
  /// Checkpoint-migrate this worker (0 = none) once `drain_after`
  /// results have arrived.
  std::uint64_t drain_worker = 0;
  std::size_t drain_after = 0;
  /// Fetch the hub's metrics document after the last result.
  bool fetch_metrics = false;
  /// Close with shutdown_hub() instead of goodbye().
  bool shutdown_hub = false;
};

struct RemoteServed {
  /// outcomes[i] is stream.jobs[i]'s result; empty if none came back.
  std::vector<std::optional<scaling::JobOutcome>> outcomes;
  std::string hub_metrics;  // HubControl::fetch_metrics, else empty
};

/// Serves `stream` through the hub at `hub`. Arrival ticks and
/// deadlines are local-farm timing and do not travel.
StatusOr<RemoteServed> serve_remote(const JobStream& stream,
                                    const HubTarget& hub,
                                    const HubControl& control = {});

/// The pack report of a finished serve of `stream`: a local Served
/// (timestamps on the farm clock) or a RemoteServed (final_tick 0).
/// kInvalidArgument on an empty stream.
StatusOr<std::string> pack_report(const JobStream& stream,
                                  const Served& served);
StatusOr<std::string> pack_report(const JobStream& stream,
                                  const RemoteServed& remote);


/// Snapshot codec for a stream: the pack fields, then every timed job
/// through runtime::save_job.
void save_stream(snapshot::Writer& w, const JobStream& stream);
/// Throws snapshot::SnapshotError on malformed bytes.
JobStream restore_stream(snapshot::Reader& r);

/// `stream` after a save_stream()/restore_stream() round trip: what
/// `--mode replay` serves. kCorruptSnapshot when the codec fails.
StatusOr<JobStream> replay_stream(const JobStream& stream);

}  // namespace vlsip::workload

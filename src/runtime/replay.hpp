// Resuming a checkpoint, and the job/outcome codecs the wire shares.
//
// A chip snapshot goes back into service one way: restored into a farm
// slot (ChipFarm::restore_chip), whose serving loop serves what
// follows — as the quarantine path resumes a spare. replay_from() is
// that path for a drain migration (docs/DISTRIBUTED.md): a one-chip
// deterministic farm built from the caller's FarmConfig restores the
// checkpoint and serves the jobs in virtual time, so the same
// (checkpoint, jobs) pair yields byte-identical outcomes every time.
// `vlsipc snapshot`/`resume` checkpoint one AP instead, in a
// "vlsipc.session" file (tools/vlsipc.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/status.hpp"
#include "runtime/chip_farm.hpp"
#include "scaling/job.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::runtime {

/// Snapshot codecs for a single job (the wire's job payload and the
/// workload runner's stream replay).
void save_job(snapshot::Writer& w, const scaling::Job& job);
scaling::Job restore_job(snapshot::Reader& r);

/// Snapshot codecs for a JobOutcome — the wire protocol's result
/// payload (net/wire.*). Deterministic: outputs are a std::map, so the
/// encoding order is the sorted port order, and encoding the same
/// outcome twice yields byte-identical bytes (what lets the migration
/// tests compare a peer's replayed outcomes against a local replay
/// byte for byte).
void save_outcome(snapshot::Writer& w, const scaling::JobOutcome& outcome);
scaling::JobOutcome restore_outcome(snapshot::Reader& r);

/// Serves `jobs` on a one-chip deterministic farm built from `config`
/// (chip, batch, default_max_cycles and dvs; nothing else) whose slot
/// is restored from `checkpoint` with resumed_from_tick =
/// `checkpoint_tick`. Returns one outcome per job, in `jobs` order.
/// Fails, with no outcome, with restore_chip's status when the
/// checkpoint does not restore into config.chip's geometry, and with
/// kInvalidArgument when a job is one no farm admits (empty program,
/// zero clusters).
StatusOr<std::vector<scaling::JobOutcome>> replay_from(
    const FarmConfig& config, const snapshot::Snapshot& checkpoint,
    std::uint64_t checkpoint_tick, std::vector<scaling::Job> jobs);

}  // namespace vlsip::runtime

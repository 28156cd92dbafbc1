// Deterministic replay: re-run a recorded job trace from a checkpoint.
//
// A checkpointed chip is only half a resumable session — the other half
// is the work that was still in flight. ReplayLog records the admitted
// job stream (program, inputs, placement, budgets) plus the index of
// the first job not yet served when the checkpoint was taken; the pair
// (chip snapshot, replay log) is a complete resumable session. Both
// halves serialise through the same snapshot::Writer/Reader codecs; a
// draining worker ships them side by side in one net::CheckpointMsg and
// the peer replays them (docs/DISTRIBUTED.md). `vlsipc snapshot` and
// `resume` carry no ReplayLog: their .vsnap is a "vlsipc.session" (one
// program, its budgets and stats, and the AP checkpoint).
//
// replay_from() is the driver: restore the checkpoint into a chip, then
// serve jobs [log.next_job ..) sequentially — single-threaded, virtual
// time only, so re-running the same (checkpoint, log) pair yields
// bit-identical outcomes every time. Outcomes carry
// resumed_from_cycle = log.checkpoint_tick so downstream reports can
// tell a resumed run from an uninterrupted one.
#pragma once

#include <cstdint>
#include <vector>

#include "core/vlsi_processor.hpp"
#include "scaling/job.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::runtime {

/// The admitted-job trace of a deterministic run, snapshot-codable.
struct ReplayLog {
  std::vector<scaling::Job> jobs;
  /// Index of the first job in `jobs` not yet served at checkpoint
  /// time; replay starts here.
  std::size_t next_job = 0;
  /// Farm/virtual tick the checkpoint was taken at (stamped onto
  /// replayed outcomes as resumed_from_cycle).
  std::uint64_t checkpoint_tick = 0;

  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

/// Snapshot codecs for a single job (shared by ReplayLog and tools).
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

/// Restores `checkpoint` into `chip` (which must be constructed with
/// the geometry the checkpoint was saved from) and serves
/// log.jobs[log.next_job ..] in admission order through
/// scaling::run_job, with `default_max_cycles` for jobs that carry no
/// budget of their own. Throws snapshot::SnapshotError on a corrupt or
/// mismatched checkpoint.
std::vector<scaling::JobOutcome> replay_from(
    core::VlsiProcessor& chip, const snapshot::Snapshot& checkpoint,
    const ReplayLog& log, std::uint64_t default_max_cycles = 1u << 22);

}  // namespace vlsip::runtime

// WorkerDaemon — one ChipFarm behind a hub connection.
//
// The daemon dials the hub, identifies as Role::kWorker, and serves
// AssignJob frames on its own ChipFarm in windows sized by the farm's
// batch policy: take up to a window of pending assignments, submit
// them, block on the futures, answer JobResults. A heartbeat thread
// reports liveness (queue depth + lifetime served) on a timer.
//
// Drain: on a Drain frame the daemon stops taking new pending work,
// lets the farm finish what it already admitted (those results go out
// normally), then ships a CheckpointMsg — the chip's .vsnap
// (ChipFarm::save_chip) plus the never-started assignments, each job
// with its hub-global id — and says Goodbye. Resume is the mirror:
// runtime::replay_from restores a peer's checkpoint into a farm slot
// built from this daemon's FarmConfig, serves the migrated jobs there
// (byte-identical to any other such replay of the blob) and the results
// go back under their ids. If the blob is corrupt or its geometry
// doesn't match, the jobs fall back to ordinary farm service —
// degraded determinism, but nothing is lost.
//
// Fault injection: crash_after_jobs > 0 makes the daemon die abruptly
// (socket torn down mid-protocol, no goodbye) on the first assignment
// it receives after that many assignments — the deterministic stand-in
// for `kill -9` in the worker-loss tests. The daemon dies holding that
// assignment, so the hub always has in-flight work of it to requeue.
// Counting assignments, not results, keeps the crash reachable for a
// daemon starved of CPU: the hub keeps its assignment window full.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "core/status.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "runtime/chip_farm.hpp"

namespace vlsip::daemon {

struct WorkerOptions {
  /// Hub address ("host:port" or "unix:/path").
  std::string hub;
  /// Display name in the hub's Hello log / metrics report.
  std::string name = "worker";
  /// The farm this daemon serves on (threaded mode; geometry must
  /// match its peers' for checkpoint migration to restore).
  runtime::FarmConfig farm;
  /// Heartbeat period.
  std::uint64_t heartbeat_ms = 200;
  /// Fault injection: die abruptly (no goodbye, socket torn down) on
  /// the first assignment received after this many assignments.
  /// 0 = never.
  std::uint64_t crash_after_jobs = 0;
  /// Frame payload cap enforced on every receive.
  std::size_t max_payload = net::kMaxFramePayload;
};

class WorkerDaemon {
 public:
  /// How the serving loop ended.
  enum class Exit {
    kShutdown,  ///< hub sent Shutdown
    kDrained,   ///< drained and checkpoint shipped
    kCrashed,   ///< crash_after_jobs fault injection fired
    kLost,      ///< connection to the hub failed
  };

  explicit WorkerDaemon(WorkerOptions options);
  ~WorkerDaemon();

  WorkerDaemon(const WorkerDaemon&) = delete;
  WorkerDaemon& operator=(const WorkerDaemon&) = delete;

  /// Dials the hub and completes the Hello/HelloAck handshake.
  Status connect();

  /// Serves until shutdown/drain/crash/loss. Call after connect().
  Exit run();

  /// Hub-assigned worker id (valid after connect()).
  std::uint64_t id() const { return id_; }
  /// Results sent over this daemon's lifetime.
  std::uint64_t served() const;

 private:
  void service_loop();
  void heartbeat_loop();
  /// Serves up to a window of pending assignments on the farm.
  /// Returns false when the loop should stop (crash injection fired).
  bool serve_window(std::vector<net::AssignJobMsg> window);
  /// Serves a migrated checkpoint's jobs and answers their results.
  bool handle_resume(net::CheckpointMsg checkpoint);
  /// Finishes admitted work, ships the checkpoint, says goodbye.
  void do_drain();
  /// Records how the serving loop ended unless that is decided: the
  /// first of shutdown, drain and crash wins, so a Shutdown read after
  /// a finished drain keeps kDrained. Caller holds mu_.
  void decide(Exit exit) {
    if (exit_ == Exit::kLost) exit_ = exit;
  }
  /// Sends one result; runs the crash injection counter. Returns
  /// false when the daemon just "crashed".
  bool send_result(std::uint64_t job_id, scaling::JobOutcome outcome);

  WorkerOptions options_;
  net::Socket sock_;
  std::mutex tx_;
  std::uint64_t id_ = 0;
  runtime::ChipFarm farm_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<net::AssignJobMsg> pending_;
  std::deque<net::CheckpointMsg> resumes_;
  bool draining_ = false;
  bool stopping_ = false;
  std::uint64_t served_ = 0;
  std::uint64_t assigned_ = 0;  // assignments received, for crash_after_jobs
  Exit exit_ = Exit::kLost;  // kLost until decide() records an exit

  std::thread service_thread_;
  std::thread heartbeat_thread_;
};

}  // namespace vlsip::daemon

// Hub — admission and routing for the distributed farm.
//
// The hub is the only listening process: workers and clients both dial
// in and identify themselves in the Hello. Clients stream SubmitJob;
// the hub assigns each job a global id, parks it in the job table, and
// a dispatcher round-robins it to a live worker with a free slot in
// its in-flight window. JobResults flow back keyed by global id, get
// re-keyed to the owning client's seq, and are forwarded.
//
// Liveness: workers heartbeat on a timer; a health loop declares any
// worker silent past `heartbeat_timeout_ms` dead, closes it, and
// requeues its in-flight jobs at the *front* of the dispatch queue —
// a job handed to the farm is never lost to a process death, it is
// served again elsewhere. Results for a job that was requeued after
// its first serve already completed (crash between serve and send on
// our side of the race) are deduplicated by id at the hub.
//
// Drain/migration: DrainWorker marks the worker draining (no new
// assignments), sends it Drain; the worker finishes what its farm
// already admitted, then ships a CheckpointMsg — its chip's .vsnap
// plus the jobs it never started, each with its global id. The hub
// forwards the blob verbatim to a live peer as Resume (recording the
// bytes for the byte-identity proof in the tests); the peer restores
// the exact chip state into a farm slot, serves the jobs there and
// answers ordinary JobResults. With no peer available the hub falls
// back to requeueing the transferred jobs itself.
//
// The accept thread only accepts: each connection's handshake runs on
// its own thread, so a peer that never says Hello blocks neither later
// joins nor stop().
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/status.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

namespace vlsip::daemon {

struct HubOptions {
  /// Listen address: "host:port" (port 0 = ephemeral, see
  /// Hub::address()) or "unix:/path".
  std::string listen = "127.0.0.1:0";
  /// A worker silent longer than this is dead; its in-flight jobs are
  /// requeued.
  std::uint64_t heartbeat_timeout_ms = 2000;
  /// Health-loop poll period.
  std::uint64_t health_interval_ms = 100;
  /// Max unacknowledged assignments per worker (the in-flight window).
  std::size_t assign_window = 8;
  /// Frame payload cap enforced on every receive.
  std::size_t max_payload = net::kMaxFramePayload;
  /// Borrowed structured-event sink (Layer::kNet session events);
  /// null = no events. The hub serialises its own writes.
  obs::TraceSink* trace = nullptr;
  /// Fault injection for the tests: cut every forwarded migration's
  /// chip snapshot to half its length, so the receiving worker's
  /// restore fails typed and its requeue-as-fresh fallback must carry
  /// the jobs. Never set outside tests.
  bool truncate_migration_snapshot = false;
};

class Hub {
 public:
  explicit Hub(HubOptions options = {});
  ~Hub();

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  /// Binds, listens, and starts the accept/dispatch/health threads.
  Status start();

  /// Blocks until a client's Shutdown request (or stop()) ends the hub.
  void wait();

  /// Stops listening, closes every connection, joins all threads.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Resolved listen address ("127.0.0.1:<real port>" after an
  /// ephemeral bind). Valid after start().
  const std::string& address() const { return address_; }

  std::size_t live_workers() const;
  std::size_t live_clients() const;

  /// Counter snapshot ("hub." names) plus per-worker liveness gauges.
  obs::MetricRegistry metrics() const;

  /// The metrics as a complete JSON document (kJsonSchemaVersion
  /// leading) — what MetricsRequest answers with.
  std::string metrics_json() const;

  /// The last CheckpointMsg payload forwarded to a peer, as raw
  /// snapshot bytes (empty if no migration happened yet). Test
  /// introspection: runtime::replay_from on these locally must match
  /// the peer's outcomes byte for byte.
  std::vector<std::uint8_t> last_migration() const;

 private:
  /// One accepted connection (worker or client) and its reader thread.
  struct Conn {
    std::uint64_t id = 0;
    net::Role role = net::Role::kClient;
    std::string name;
    net::Socket sock;
    std::thread rx;
    /// Serialises writers (dispatcher, forwarders) on this socket.
    std::mutex tx;
    // --- worker state, guarded by Hub::mu_ ---
    std::chrono::steady_clock::time_point last_beat;
    bool alive = true;
    bool draining = false;
    std::size_t in_flight = 0;
    std::uint64_t served = 0;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  /// A job the hub has accepted but not yet delivered a result for.
  struct JobEntry {
    scaling::Job job;
    /// Owning client and its seq (results are re-keyed to this).
    std::uint64_t client_id = 0;
    std::uint64_t seq = 0;
    /// Worker currently holding it; 0 = waiting in dispatch_queue_.
    std::uint64_t worker_id = 0;
  };

  void accept_loop();
  void dispatch_loop();
  void health_loop();
  void serve_conn(ConnPtr conn);
  void serve_worker(ConnPtr conn);
  void serve_client(ConnPtr conn);

  /// Handshake, on the connection's own thread: read Hello, answer
  /// HelloAck (or Error), register the peer as a worker or a client.
  Status handshake(const ConnPtr& conn);

  /// Marks the worker dead, requeues its in-flight jobs, notifies the
  /// dispatcher. Safe to call twice (second call is a no-op).
  void on_worker_down(const ConnPtr& conn, const std::string& reason);
  void on_client_down(const ConnPtr& conn);

  /// Routes a worker's JobResult back to the owning client.
  void forward_result(net::JobResultMsg result);

  /// Handles a drained worker's CheckpointMsg: forward to a peer as
  /// Resume, or requeue the jobs locally when no peer is live.
  void handle_checkpoint(const ConnPtr& from, net::CheckpointMsg msg);

  void handle_drain_request(std::uint64_t worker_id);
  void begin_shutdown();

  template <typename M>
  Status send_to(const ConnPtr& conn, const M& msg) {
    std::lock_guard<std::mutex> lock(conn->tx);
    return net::send_msg(conn->sock, msg);
  }

  /// Layer::kNet structured event; cycle = ms since hub start. No-op
  /// without a sink.
  void trace(const std::string& category, std::int64_t id,
             std::string message);

  HubOptions options_;
  net::Listener listener_;
  std::string address_;

  mutable std::mutex mu_;
  std::condition_variable dispatch_cv_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool started_ = false;

  std::uint64_t next_peer_id_ = 1;
  std::uint64_t next_global_id_ = 1;
  std::map<std::uint64_t, ConnPtr> workers_;
  std::map<std::uint64_t, ConnPtr> clients_;
  /// Every connection ever accepted; joined in stop() (maps above only
  /// hold the live ones).
  std::vector<ConnPtr> all_conns_;
  std::map<std::uint64_t, JobEntry> jobs_;
  std::deque<std::uint64_t> dispatch_queue_;
  obs::MetricRegistry metrics_;
  std::vector<std::uint8_t> last_migration_;
  std::chrono::steady_clock::time_point epoch_;

  std::thread accept_thread_;
  std::thread dispatch_thread_;
  std::thread health_thread_;
};

}  // namespace vlsip::daemon

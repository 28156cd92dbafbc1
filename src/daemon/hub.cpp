#include "daemon/hub.hpp"

#include <sstream>

#include "obs/json.hpp"

namespace vlsip::daemon {

namespace {

std::uint64_t ms_since(std::chrono::steady_clock::time_point epoch) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

}  // namespace

Hub::Hub(HubOptions options) : options_(std::move(options)) {}

Hub::~Hub() { stop(); }

void Hub::trace(const std::string& category, std::int64_t id,
                std::string message) {
  if (options_.trace == nullptr || !options_.trace->enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  options_.trace->event(ms_since(epoch_), obs::Layer::kNet, category, id,
                        std::move(message));
}

Status Hub::start() {
  auto listener = net::Listener::listen(options_.listen);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  address_ = listener_.address();
  epoch_ = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    stopping_ = false;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
  health_thread_ = std::thread([this] { health_loop(); });
  return Status::Ok();
}

void Hub::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_cv_.wait(lock, [this] { return stopping_; });
}

void Hub::stop() {
  std::vector<ConnPtr> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
    conns = all_conns_;
  }
  stop_cv_.notify_all();
  dispatch_cv_.notify_all();
  listener_.shutdown();  // fails accept(); the loop then sees stopping_
  for (const auto& conn : conns) conn->sock.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  if (health_thread_.joinable()) health_thread_.join();
  for (const auto& conn : conns) {
    if (conn->rx.joinable()) conn->rx.join();
    conn->sock.close();
  }
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
  all_conns_.clear();
  workers_.clear();
  clients_.clear();
}

std::size_t Hub::live_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

std::size_t Hub::live_clients() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clients_.size();
}

obs::MetricRegistry Hub::metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::MetricRegistry out = metrics_;
  out.gauge("hub.live_workers") = static_cast<double>(workers_.size());
  out.gauge("hub.live_clients") = static_cast<double>(clients_.size());
  out.gauge("hub.jobs_pending") = static_cast<double>(jobs_.size());
  return out;
}

std::string Hub::metrics_json() const {
  const obs::MetricRegistry snap = metrics();
  std::vector<std::pair<std::uint64_t, std::string>> worker_rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, conn] : workers_) {
      std::ostringstream row;
      obs::JsonWriter w(row);
      w.begin_object();
      w.field("id", id);
      w.field("name", conn->name);
      w.field("draining", conn->draining);
      w.field("in_flight", static_cast<std::uint64_t>(conn->in_flight));
      w.field("served", conn->served);
      w.end_object();
      worker_rows.emplace_back(id, row.str());
    }
  }
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema_version", obs::kJsonSchemaVersion);
  w.field("report", "hub-metrics");
  w.field("address", address_);
  w.key("workers");
  w.begin_array();
  for (const auto& [id, row] : worker_rows) w.raw(row);
  w.end_array();
  w.key("metrics");
  snap.write_json(w);
  w.end_object();
  return out.str();
}

std::vector<std::uint8_t> Hub::last_migration() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_migration_;
}

void Hub::accept_loop() {
  for (;;) {
    auto sock = listener_.accept();
    auto conn = std::make_shared<Conn>();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;  // stop() failed the accept
      // Registered before its Hello is read, so stop() can shut down a
      // peer that never sends one.
      if (sock.ok()) {
        conn->sock = std::move(*sock);
        all_conns_.push_back(conn);
      }
    }
    if (!sock.ok()) {
      // A peer that reset first, a full descriptor table: the listener
      // is still usable.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    // The handshake runs on the connection's own thread, so a silent
    // peer delays no other join. stop() joins this thread before any
    // rx, so this assignment precedes that join.
    conn->rx = std::thread([this, conn] { serve_conn(conn); });
  }
}

Status Hub::handshake(const ConnPtr& conn) {
  // Every refusal is answered with a typed Error before the close.
  const auto reject = [&conn](const Status& status) {
    net::ErrorMsg err;
    err.code = static_cast<std::int32_t>(status.code());
    err.message = status.message();
    (void)net::send_msg(conn->sock, err);
    return status;
  };
  auto frame = net::read_frame(conn->sock, options_.max_payload);
  if (!frame.ok()) return reject(frame.status());
  auto hello = net::decode_payload<net::HelloMsg>(*frame);
  if (!hello.ok()) return reject(hello.status());
  if (hello->proto_version != net::kProtoVersion) {
    // No codec branches on a negotiated version, so a peer at another
    // version would have its frames parsed against the wrong layout.
    return reject(Status(StatusCode::kVersionMismatch,
                         "peer speaks protocol version " +
                             std::to_string(hello->proto_version) +
                             ", hub speaks " +
                             std::to_string(net::kProtoVersion)));
  }

  conn->role = hello->role;
  conn->name = hello->name;
  conn->last_beat = std::chrono::steady_clock::now();
  // The dispatcher may assign a job as soon as the peer is registered:
  // holding its tx lock until the ack is out keeps the ack first.
  std::unique_lock<std::mutex> tx(conn->tx);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return Status(StatusCode::kUnavailable, "hub stopping");
    conn->id = next_peer_id_++;
    if (conn->role == net::Role::kWorker) {
      workers_[conn->id] = conn;
      metrics_.counter("hub.workers_joined")++;
    } else {
      clients_[conn->id] = conn;
      metrics_.counter("hub.clients_joined")++;
    }
  }

  net::HelloAckMsg ack;
  ack.proto_version = net::kProtoVersion;
  ack.peer_id = conn->id;
  const Status sent = net::send_msg(conn->sock, ack);
  tx.unlock();
  if (!sent.ok()) {
    if (conn->role == net::Role::kWorker) {
      on_worker_down(conn, "hello ack send failed");
    } else {
      on_client_down(conn);
    }
    return sent;
  }
  trace("session",
        static_cast<std::int64_t>(conn->id),
        std::string(conn->role == net::Role::kWorker ? "worker" : "client") +
            " \"" + conn->name + "\" joined");
  dispatch_cv_.notify_all();  // a new worker may unblock the dispatcher
  return Status::Ok();
}

void Hub::serve_conn(ConnPtr conn) {
  if (!handshake(conn).ok()) return;  // already answered with an Error
  if (conn->role == net::Role::kWorker) {
    serve_worker(conn);
  } else {
    serve_client(conn);
  }
}

void Hub::serve_worker(ConnPtr conn) {
  std::string down_reason = "connection closed";
  for (;;) {
    auto frame = net::read_frame(conn->sock, options_.max_payload);
    if (!frame.ok()) {
      down_reason = frame.status().message();
      break;
    }
    switch (frame->type) {
      case net::MsgType::kHeartbeat: {
        auto beat = net::decode_payload<net::HeartbeatMsg>(*frame);
        if (!beat.ok()) break;  // malformed heartbeat: ignore, stay alive
        std::lock_guard<std::mutex> lock(mu_);
        conn->last_beat = std::chrono::steady_clock::now();
        conn->served = beat->served;
        metrics_.counter("hub.heartbeats")++;
        break;
      }
      case net::MsgType::kJobResult: {
        auto result = net::decode_payload<net::JobResultMsg>(*frame);
        if (!result.ok()) {
          down_reason = "undecodable result: " + result.status().message();
          goto done;
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          conn->last_beat = std::chrono::steady_clock::now();
          if (conn->in_flight > 0) --conn->in_flight;
        }
        dispatch_cv_.notify_all();
        forward_result(std::move(*result));
        break;
      }
      case net::MsgType::kCheckpoint: {
        auto checkpoint = net::decode_payload<net::CheckpointMsg>(*frame);
        if (!checkpoint.ok()) {
          down_reason =
              "undecodable checkpoint: " + checkpoint.status().message();
          goto done;
        }
        handle_checkpoint(conn, std::move(*checkpoint));
        break;
      }
      case net::MsgType::kGoodbye:
        down_reason = "goodbye";
        goto done;
      default: {
        net::ErrorMsg err;
        err.code = static_cast<std::int32_t>(StatusCode::kProtocolError);
        err.message = "unexpected frame type " +
                      std::to_string(static_cast<int>(frame->type)) +
                      " on a worker connection";
        (void)send_to(conn, err);
        break;
      }
    }
  }
done:
  on_worker_down(conn, down_reason);
}

void Hub::serve_client(ConnPtr conn) {
  for (;;) {
    auto frame = net::read_frame(conn->sock, options_.max_payload);
    if (!frame.ok()) break;
    switch (frame->type) {
      case net::MsgType::kSubmitJob: {
        auto submit = net::decode_payload<net::SubmitJobMsg>(*frame);
        if (!submit.ok()) {
          net::ErrorMsg err;
          err.code = static_cast<std::int32_t>(submit.status().code());
          err.message = submit.status().message();
          (void)send_to(conn, err);
          break;
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          const std::uint64_t id = next_global_id_++;
          JobEntry& entry = jobs_[id];
          entry.job = std::move(submit->job);
          entry.client_id = conn->id;
          entry.seq = submit->seq;
          dispatch_queue_.push_back(id);
          metrics_.counter("hub.jobs_submitted")++;
        }
        dispatch_cv_.notify_all();
        break;
      }
      case net::MsgType::kDrainWorker: {
        auto drain = net::decode_payload<net::DrainWorkerMsg>(*frame);
        if (!drain.ok()) break;
        handle_drain_request(drain->worker_id);
        break;
      }
      case net::MsgType::kMetricsRequest: {
        net::MetricsReportMsg report;
        report.json = metrics_json();
        (void)send_to(conn, report);
        break;
      }
      case net::MsgType::kShutdown:
        begin_shutdown();
        return;  // stop() joins this thread; connection closes there
      case net::MsgType::kGoodbye:
        on_client_down(conn);
        return;
      default: {
        net::ErrorMsg err;
        err.code = static_cast<std::int32_t>(StatusCode::kProtocolError);
        err.message = "unexpected frame type " +
                      std::to_string(static_cast<int>(frame->type)) +
                      " on a client connection";
        (void)send_to(conn, err);
        break;
      }
    }
  }
  on_client_down(conn);
}

void Hub::dispatch_loop() {
  for (;;) {
    std::uint64_t job_id = 0;
    ConnPtr worker;
    net::AssignJobMsg assign;
    {
      std::unique_lock<std::mutex> lock(mu_);
      dispatch_cv_.wait(lock, [this, &worker] {
        if (stopping_) return true;
        if (dispatch_queue_.empty()) return false;
        // Round-robin over live, non-draining workers with window room.
        // std::map iteration keyed by id gives a stable order; rotation
        // comes from the window filling up.
        for (const auto& [id, conn] : workers_) {
          if (conn->alive && !conn->draining &&
              conn->in_flight < options_.assign_window) {
            worker = conn;
            return true;
          }
        }
        return false;
      });
      if (stopping_) return;
      job_id = dispatch_queue_.front();
      dispatch_queue_.pop_front();
      auto it = jobs_.find(job_id);
      if (it == jobs_.end()) continue;  // already answered elsewhere
      it->second.worker_id = worker->id;
      ++worker->in_flight;
      assign.job_id = job_id;
      assign.job = it->second.job;
      metrics_.counter("hub.jobs_dispatched")++;
    }
    const Status sent = send_to(worker, assign);
    if (!sent.ok()) {
      on_worker_down(worker, "assign send failed: " + sent.message());
    }
    worker.reset();
  }
}

void Hub::health_loop() {
  for (;;) {
    std::vector<ConnPtr> dead;
    {
      std::unique_lock<std::mutex> lock(mu_);
      stop_cv_.wait_for(lock,
                        std::chrono::milliseconds(options_.health_interval_ms),
                        [this] { return stopping_; });
      if (stopping_) return;
      const auto now = std::chrono::steady_clock::now();
      const auto timeout =
          std::chrono::milliseconds(options_.heartbeat_timeout_ms);
      for (const auto& [id, conn] : workers_) {
        if (conn->alive && now - conn->last_beat > timeout) {
          dead.push_back(conn);
        }
      }
    }
    for (const auto& conn : dead) {
      // Shut the socket down so the rx thread unblocks; it then runs
      // on_worker_down, but call it here too so the requeue does not
      // wait on a blocked recv.
      conn->sock.shutdown_both();
      on_worker_down(conn, "heartbeat timeout");
    }
  }
}

void Hub::on_worker_down(const ConnPtr& conn, const std::string& reason) {
  std::vector<std::uint64_t> requeue;
  bool was_draining = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!conn->alive) return;
    conn->alive = false;
    was_draining = conn->draining;
    workers_.erase(conn->id);
    for (auto& [id, entry] : jobs_) {
      if (entry.worker_id == conn->id) {
        entry.worker_id = 0;
        requeue.push_back(id);
      }
    }
    // Front of the queue, ascending id: requeued work goes out first
    // and in the order it was admitted.
    for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
      dispatch_queue_.push_front(*it);
    }
    conn->in_flight = 0;
    if (was_draining) {
      metrics_.counter("hub.workers_drained")++;
    } else {
      metrics_.counter("hub.workers_dead")++;
    }
    metrics_.counter("hub.jobs_requeued") += requeue.size();
  }
  conn->sock.shutdown_both();
  trace("session", static_cast<std::int64_t>(conn->id),
        "worker down (" + reason + "), " + std::to_string(requeue.size()) +
            " jobs requeued");
  if (!requeue.empty() || was_draining) dispatch_cv_.notify_all();
}

void Hub::on_client_down(const ConnPtr& conn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!conn->alive) return;
    conn->alive = false;
    clients_.erase(conn->id);
  }
  conn->sock.shutdown_both();
  trace("session", static_cast<std::int64_t>(conn->id), "client left");
}

void Hub::forward_result(net::JobResultMsg result) {
  ConnPtr client;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(result.id);
    if (it == jobs_.end()) {
      // Already answered — a worker served it, died before the hub saw
      // the result, and the requeued copy finished first (or vice
      // versa). Exactly-once delivery to the client is the hub's call.
      metrics_.counter("hub.duplicate_results")++;
      return;
    }
    seq = it->second.seq;
    auto client_it = clients_.find(it->second.client_id);
    if (client_it != clients_.end()) client = client_it->second;
    jobs_.erase(it);
    metrics_.counter("hub.jobs_completed")++;
    // Energy bills ride the result message; the hub aggregates the
    // fleet-wide meter. Presence-gated: energy-off farms bill 0 fJ and
    // never materialise the counter.
    if (result.outcome.energy_fj > 0) {
      metrics_.counter("hub.energy_fj") += result.outcome.energy_fj;
    }
  }
  if (!client) return;  // client left; the result has no audience
  result.id = seq;
  result.outcome.id = seq;
  const Status sent = send_to(client, result);
  if (!sent.ok()) on_client_down(client);
}

void Hub::handle_drain_request(std::uint64_t worker_id) {
  ConnPtr worker;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = workers_.find(worker_id);
    if (it == workers_.end()) return;
    worker = it->second;
    worker->draining = true;
    metrics_.counter("hub.drains_requested")++;
  }
  trace("migrate", static_cast<std::int64_t>(worker_id), "drain requested");
  const Status sent = send_to(worker, net::DrainMsg{});
  if (!sent.ok()) on_worker_down(worker, "drain send failed");
}

void Hub::handle_checkpoint(const ConnPtr& from, net::CheckpointMsg msg) {
  ConnPtr peer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, conn] : workers_) {
      if (id != from->id && conn->alive && !conn->draining) {
        peer = conn;
        break;
      }
    }
    metrics_.counter("hub.checkpoints_received")++;
    metrics_.counter("hub.checkpoint_bytes") += msg.chip.size();
  }
  if (peer) {
    if (options_.truncate_migration_snapshot) {
      auto& bytes = msg.chip.bytes();
      bytes.resize(bytes.size() / 2);
    }
    net::ResumeMsg resume;
    resume.checkpoint = std::move(msg);
    {
      // Record the exact blob the peer resumes, for the byte-identity
      // proof: replay_from(checkpoint) locally must equal the peer's
      // results.
      snapshot::Snapshot payload;
      snapshot::Writer w(payload);
      resume.checkpoint.save(w);
      std::lock_guard<std::mutex> lock(mu_);
      last_migration_ = payload.bytes();
      for (const auto& assign : resume.checkpoint.jobs) {
        auto it = jobs_.find(assign.job_id);
        if (it != jobs_.end()) it->second.worker_id = peer->id;
      }
      peer->in_flight += resume.checkpoint.jobs.size();
      metrics_.counter("hub.migrations")++;
      metrics_.counter("hub.jobs_migrated") += resume.checkpoint.jobs.size();
    }
    trace("migrate", static_cast<std::int64_t>(from->id),
          std::to_string(resume.checkpoint.jobs.size()) +
              " jobs migrated to worker " + std::to_string(peer->id));
    const Status sent = send_to(peer, resume);
    if (!sent.ok()) {
      // The peer died mid-transfer; its own death path requeues the
      // jobs just reassigned to it.
      on_worker_down(peer, "resume send failed: " + sent.message());
    }
  } else {
    // No live peer: take the jobs back onto the hub's own queue. They
    // lose the checkpointed chip state but not their place in line.
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t requeued = 0;
    for (auto it = msg.jobs.rbegin(); it != msg.jobs.rend(); ++it) {
      auto entry = jobs_.find(it->job_id);
      if (entry == jobs_.end()) continue;
      entry->second.worker_id = 0;
      dispatch_queue_.push_front(it->job_id);
      ++requeued;
    }
    metrics_.counter("hub.jobs_requeued") += requeued;
    dispatch_cv_.notify_all();
  }
}

void Hub::begin_shutdown() {
  std::vector<ConnPtr> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    for (const auto& [id, conn] : workers_) workers.push_back(conn);
  }
  for (const auto& conn : workers) (void)send_to(conn, net::ShutdownMsg{});
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  dispatch_cv_.notify_all();
}

}  // namespace vlsip::daemon

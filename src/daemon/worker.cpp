#include "daemon/worker.hpp"

#include <iterator>
#include <utility>
#include <vector>

#include "runtime/replay.hpp"

namespace vlsip::daemon {

namespace {

/// A worker streams each outcome to the hub as it completes and never
/// reads the farm's outcome log, so it keeps none: a long-running
/// worker would otherwise hold every outcome it ever served.
runtime::FarmConfig without_outcome_log(runtime::FarmConfig config) {
  config.keep_outcome_log = false;
  return config;
}

}  // namespace

WorkerDaemon::WorkerDaemon(WorkerOptions options)
    : options_(std::move(options)),
      farm_(without_outcome_log(options_.farm)) {}

WorkerDaemon::~WorkerDaemon() { sock_.close(); }

std::uint64_t WorkerDaemon::served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return served_;
}

Status WorkerDaemon::connect() {
  auto sock = net::Socket::connect(options_.hub);
  if (!sock.ok()) return sock.status();
  sock_ = std::move(*sock);

  net::HelloMsg hello;
  hello.role = net::Role::kWorker;
  hello.proto_version = net::kProtoVersion;
  hello.name = options_.name;
  const Status sent = net::send_msg(sock_, hello);
  if (!sent.ok()) return sent;

  auto frame = net::read_frame(sock_, options_.max_payload);
  if (!frame.ok()) return frame.status();
  if (frame->type == net::MsgType::kError) {
    const auto err = net::decode_payload<net::ErrorMsg>(*frame);
    if (!err.ok()) return err.status();
    return Status(static_cast<StatusCode>(err->code), err->message);
  }
  const auto ack = net::decode_payload<net::HelloAckMsg>(*frame);
  if (!ack.ok()) return ack.status();
  id_ = ack->peer_id;
  return Status::Ok();
}

WorkerDaemon::Exit WorkerDaemon::run() {
  service_thread_ = std::thread([this] { service_loop(); });
  heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });

  for (;;) {
    auto frame = net::read_frame(sock_, options_.max_payload);
    if (!frame.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
      break;
    }
    switch (frame->type) {
      case net::MsgType::kAssignJob: {
        auto assign = net::decode_payload<net::AssignJobMsg>(*frame);
        if (!assign.ok()) break;  // hostile assign: drop, stay up
        bool crash = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          pending_.push_back(std::move(*assign));
          // Fault injection: die like a killed process — no goodbye,
          // no drain — holding the assignment just received, so the
          // hub always has work of ours to requeue.
          crash = options_.crash_after_jobs > 0 &&
                  ++assigned_ > options_.crash_after_jobs;
          if (crash) {
            stopping_ = true;
            decide(Exit::kCrashed);
          }
        }
        if (crash) {
          sock_.shutdown_both();
          goto out;
        }
        cv_.notify_all();
        break;
      }
      case net::MsgType::kResume: {
        auto resume = net::decode_payload<net::ResumeMsg>(*frame);
        if (!resume.ok()) break;
        {
          std::lock_guard<std::mutex> lock(mu_);
          resumes_.push_back(std::move(resume->checkpoint));
        }
        cv_.notify_all();
        break;
      }
      case net::MsgType::kDrain: {
        {
          std::lock_guard<std::mutex> lock(mu_);
          draining_ = true;
        }
        cv_.notify_all();
        break;
      }
      case net::MsgType::kShutdown: {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
        decide(Exit::kShutdown);
        goto out;
      }
      default:
        break;  // heartbeat acks etc. are not part of v1; ignore
    }
  }
out:
  cv_.notify_all();
  if (service_thread_.joinable()) service_thread_.join();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  return exit_;
}

void WorkerDaemon::service_loop() {
  for (;;) {
    std::vector<net::AssignJobMsg> window;
    net::CheckpointMsg resume;
    bool have_resume = false;
    bool drain_now = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stopping_ || draining_ || !pending_.empty() ||
               !resumes_.empty();
      });
      if (stopping_) return;
      if (!resumes_.empty()) {
        resume = std::move(resumes_.front());
        resumes_.pop_front();
        have_resume = true;
      } else if (draining_) {
        drain_now = true;
      } else {
        const std::size_t take =
            std::min(pending_.size(),
                     std::max<std::size_t>(1, options_.farm.batch.max_jobs));
        for (std::size_t i = 0; i < take; ++i) {
          window.push_back(std::move(pending_.front()));
          pending_.pop_front();
        }
      }
    }
    if (have_resume) {
      if (!handle_resume(std::move(resume))) return;
    } else if (drain_now) {
      do_drain();
      return;
    } else {
      if (!serve_window(std::move(window))) return;
    }
  }
}

bool WorkerDaemon::serve_window(std::vector<net::AssignJobMsg> window) {
  struct InFlight {
    std::uint64_t job_id;
    std::future<scaling::JobOutcome> outcome;
  };
  std::vector<InFlight> in_flight;
  for (auto& assign : window) {
    scaling::JobOutcome synthetic;
    synthetic.name = assign.job.name;
    try {
      auto admission = farm_.submit(std::move(assign.job));
      if (admission.admitted) {
        in_flight.push_back({assign.job_id, std::move(admission.outcome)});
        continue;
      }
      synthetic.status = scaling::JobStatus::kRejected;
      synthetic.detail = admission.reason;
    } catch (const std::exception& e) {
      // Invalid job off the wire (empty program, zero clusters): answer
      // an error outcome instead of letting the daemon die on it.
      synthetic.status = scaling::JobStatus::kError;
      synthetic.detail = e.what();
    }
    if (!send_result(assign.job_id, std::move(synthetic))) return false;
  }
  for (auto& entry : in_flight) {
    if (!send_result(entry.job_id, entry.outcome.get())) return false;
  }
  return true;
}

bool WorkerDaemon::handle_resume(net::CheckpointMsg checkpoint) {
  std::vector<scaling::Job> jobs;
  jobs.reserve(checkpoint.jobs.size());
  for (const auto& assign : checkpoint.jobs) jobs.push_back(assign.job);
  auto outcomes = runtime::replay_from(options_.farm, checkpoint.chip,
                                       checkpoint.checkpoint_tick,
                                       std::move(jobs));
  if (!outcomes.ok()) {
    // Corrupt blob, geometry mismatch or a job no farm admits: serve
    // the jobs as ordinary assignments (an invalid one answers an
    // error outcome there) so nothing is lost.
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.insert(pending_.end(),
                      std::make_move_iterator(checkpoint.jobs.begin()),
                      std::make_move_iterator(checkpoint.jobs.end()));
    }
    cv_.notify_all();
    return true;
  }
  for (std::size_t k = 0; k < outcomes->size(); ++k) {
    if (!send_result(checkpoint.jobs[k].job_id, std::move((*outcomes)[k]))) {
      return false;
    }
  }
  return true;
}

void WorkerDaemon::do_drain() {
  farm_.drain();  // finish everything already admitted; results went out

  net::CheckpointMsg checkpoint;
  checkpoint.worker_id = id_;
  checkpoint.checkpoint_tick = farm_.now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    checkpoint.jobs.assign(std::make_move_iterator(pending_.begin()),
                           std::make_move_iterator(pending_.end()));
    pending_.clear();
    stopping_ = true;
    decide(Exit::kDrained);
  }
  const Status saved = farm_.save_chip(0, checkpoint.chip);
  if (saved.ok()) {
    std::lock_guard<std::mutex> lock(tx_);
    (void)net::send_msg(sock_, checkpoint);
    (void)net::send_msg(sock_, net::GoodbyeMsg{});
  }
  cv_.notify_all();
  sock_.shutdown_both();  // unblocks run()'s read loop
}

bool WorkerDaemon::send_result(std::uint64_t job_id,
                               scaling::JobOutcome outcome) {
  net::JobResultMsg result;
  result.id = job_id;
  result.outcome = std::move(outcome);
  result.outcome.id = job_id;
  {
    std::lock_guard<std::mutex> lock(tx_);
    const Status sent = net::send_msg(sock_, result);
    if (!sent.ok()) {
      std::lock_guard<std::mutex> state(mu_);
      stopping_ = true;
      cv_.notify_all();
      return false;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++served_;
  return true;
}

void WorkerDaemon::heartbeat_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(options_.heartbeat_ms),
                   [this] { return stopping_; });
      if (stopping_) return;
    }
    net::HeartbeatMsg beat;
    {
      std::lock_guard<std::mutex> lock(mu_);
      beat.queue_depth = pending_.size();
      beat.served = served_;
    }
    std::lock_guard<std::mutex> lock(tx_);
    // Best-effort: a failed send means the socket is down and the run()
    // loop is about to find out.
    (void)net::send_msg(sock_, beat);
  }
}

}  // namespace vlsip::daemon

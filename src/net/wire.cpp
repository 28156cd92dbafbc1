#include "net/wire.hpp"

namespace vlsip::net {

void HelloMsg::save(snapshot::Writer& w) const {
  w.section("net.hello");
  w.u8(static_cast<std::uint8_t>(role));
  w.u32(proto_version);
  w.str(name);
}

void HelloMsg::restore(snapshot::Reader& r) {
  r.section("net.hello");
  const std::uint8_t raw_role = r.u8();
  if (raw_role > static_cast<std::uint8_t>(Role::kWorker)) {
    throw snapshot::SnapshotError("hello has unknown role " +
                                  std::to_string(raw_role));
  }
  role = static_cast<Role>(raw_role);
  proto_version = r.u32();
  name = r.str();
}

void HelloAckMsg::save(snapshot::Writer& w) const {
  w.section("net.hello_ack");
  w.u32(proto_version);
  w.u64(peer_id);
}

void HelloAckMsg::restore(snapshot::Reader& r) {
  r.section("net.hello_ack");
  proto_version = r.u32();
  peer_id = r.u64();
}

void SubmitJobMsg::save(snapshot::Writer& w) const {
  w.section("net.submit");
  w.u64(seq);
  runtime::save_job(w, job);
}

void SubmitJobMsg::restore(snapshot::Reader& r) {
  r.section("net.submit");
  seq = r.u64();
  job = runtime::restore_job(r);
}

void AssignJobMsg::save(snapshot::Writer& w) const {
  w.section("net.assign");
  w.u64(job_id);
  runtime::save_job(w, job);
}

void AssignJobMsg::restore(snapshot::Reader& r) {
  r.section("net.assign");
  job_id = r.u64();
  job = runtime::restore_job(r);
}

void JobResultMsg::save(snapshot::Writer& w) const {
  w.section("net.result");
  w.u64(id);
  runtime::save_outcome(w, outcome);
}

void JobResultMsg::restore(snapshot::Reader& r) {
  r.section("net.result");
  id = r.u64();
  outcome = runtime::restore_outcome(r);
}

void HeartbeatMsg::save(snapshot::Writer& w) const {
  w.section("net.heartbeat");
  w.u64(queue_depth);
  w.u64(served);
}

void HeartbeatMsg::restore(snapshot::Reader& r) {
  r.section("net.heartbeat");
  queue_depth = r.u64();
  served = r.u64();
}

void DrainMsg::save(snapshot::Writer& w) const { w.section("net.drain"); }
void DrainMsg::restore(snapshot::Reader& r) { r.section("net.drain"); }

void CheckpointMsg::save(snapshot::Writer& w) const {
  w.section("net.checkpoint");
  w.u64(worker_id);
  w.u64(checkpoint_tick);
  w.vec_u8(chip.bytes());
  w.u64(jobs.size());
  for (const auto& job : jobs) job.save(w);
}

void CheckpointMsg::restore(snapshot::Reader& r) {
  r.section("net.checkpoint");
  worker_id = r.u64();
  checkpoint_tick = r.u64();
  chip.bytes() = r.vec_u8();
  jobs.resize(static_cast<std::size_t>(r.count(32)));
  for (auto& job : jobs) job.restore(r);
}

void DrainWorkerMsg::save(snapshot::Writer& w) const {
  w.section("net.drain_worker");
  w.u64(worker_id);
}

void DrainWorkerMsg::restore(snapshot::Reader& r) {
  r.section("net.drain_worker");
  worker_id = r.u64();
}

void MetricsRequestMsg::save(snapshot::Writer& w) const {
  w.section("net.metrics_request");
}

void MetricsRequestMsg::restore(snapshot::Reader& r) {
  r.section("net.metrics_request");
}

void MetricsReportMsg::save(snapshot::Writer& w) const {
  w.section("net.metrics_report");
  w.str(json);
}

void MetricsReportMsg::restore(snapshot::Reader& r) {
  r.section("net.metrics_report");
  json = r.str();
}

void ShutdownMsg::save(snapshot::Writer& w) const {
  w.section("net.shutdown");
}

void ShutdownMsg::restore(snapshot::Reader& r) {
  r.section("net.shutdown");
}

void ErrorMsg::save(snapshot::Writer& w) const {
  w.section("net.error");
  w.i32(code);
  w.str(message);
}

void ErrorMsg::restore(snapshot::Reader& r) {
  r.section("net.error");
  code = r.i32();
  message = r.str();
}

void GoodbyeMsg::save(snapshot::Writer& w) const {
  w.section("net.goodbye");
}

void GoodbyeMsg::restore(snapshot::Reader& r) {
  r.section("net.goodbye");
}

Status write_frame(Socket& sock, const std::vector<std::uint8_t>& bytes) {
  return sock.send_all(bytes.data(), bytes.size());
}

StatusOr<Frame> read_frame(Socket& sock, std::size_t max_payload) {
  std::uint8_t header[kFrameHeaderSize];
  const Status got_header = sock.recv_exact(header, sizeof header);
  if (!got_header.ok()) return got_header;
  Frame frame;
  const auto payload_len =
      check_frame_header(header, max_payload, &frame.type, &frame.version);
  if (!payload_len.ok()) return payload_len.status();
  frame.payload.bytes().resize(*payload_len);
  if (*payload_len > 0) {
    const Status got_payload =
        sock.recv_exact(frame.payload.bytes().data(), *payload_len);
    if (!got_payload.ok()) return got_payload;
  }
  return frame;
}

}  // namespace vlsip::net

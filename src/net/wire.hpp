// Wire messages — the typed vocabulary of the hub/worker protocol.
//
// Each message is a struct with snapshot save/restore codecs; frames
// carry the encoded payload (net/frame.hpp). encode<M>() builds the
// full frame bytes; decode_payload<M>() parses a received frame's
// payload and rejects trailing garbage (Reader::bytes_remaining()
// must hit zero) — a payload that decodes but doesn't *end* is as
// malformed as one that doesn't decode.
//
// Session shape:
//   * Every connection opens with Hello (role + the sender's protocol
//     version) answered by HelloAck (the version plus the hub-assigned
//     peer id). The hub accepts only its own kProtoVersion and answers
//     any other with a typed kVersionMismatch Error. Frames at a
//     version above the receiver's are rejected at the framing layer.
//   * Clients send SubmitJob (seq scoped to the client) and receive
//     JobResult keyed by that seq; the hub owns the global job id.
//   * Workers receive AssignJob (global id), answer JobResult, and
//     send Heartbeat on a timer; silence past the hub's timeout is
//     death, and the dead worker's in-flight jobs are requeued.
//   * Drain/migration: Drain -> the worker ships a CheckpointMsg (its
//     chip .vsnap + its unstarted jobs, each paired with its id) ->
//     the hub forwards it to a peer as Resume -> the peer restores the
//     chip into a farm slot, serves the jobs there (runtime::
//     replay_from) and answers ordinary JobResults for their ids.
//
// Job and outcome payloads reuse the runtime codecs
// (runtime/replay.hpp), so "a job on the wire" and "a job in a
// recorded stream" are the same bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "runtime/replay.hpp"
#include "scaling/job.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::net {

/// Who is at the far end of a connection.
enum class Role : std::uint8_t { kClient = 0, kWorker = 1 };

struct HelloMsg {
  static constexpr MsgType kType = MsgType::kHello;
  Role role = Role::kClient;
  /// The sender's protocol version; the hub rejects any but its own.
  std::uint32_t proto_version = kProtoVersion;
  /// Display name ("worker-a", "vlsipc"); diagnostics only.
  std::string name;

  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

struct HelloAckMsg {
  static constexpr MsgType kType = MsgType::kHelloAck;
  /// The protocol version of the session (always kProtoVersion).
  std::uint32_t proto_version = kProtoVersion;
  /// Hub-assigned id; for workers this is the id drain/requeue
  /// reporting refers to.
  std::uint64_t peer_id = 0;

  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

struct SubmitJobMsg {
  static constexpr MsgType kType = MsgType::kSubmitJob;
  /// Client-scoped sequence number; JobResult echoes it back.
  std::uint64_t seq = 0;
  scaling::Job job;

  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

struct AssignJobMsg {
  static constexpr MsgType kType = MsgType::kAssignJob;
  /// Hub-global job id; the worker echoes it in JobResult.
  std::uint64_t job_id = 0;
  scaling::Job job;

  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

struct JobResultMsg {
  static constexpr MsgType kType = MsgType::kJobResult;
  /// Worker->hub: the global job id. Hub->client: the client's seq.
  std::uint64_t id = 0;
  scaling::JobOutcome outcome;

  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

struct HeartbeatMsg {
  static constexpr MsgType kType = MsgType::kHeartbeat;
  std::uint64_t queue_depth = 0;
  /// Jobs this worker has completed over its lifetime.
  std::uint64_t served = 0;

  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

struct DrainMsg {
  static constexpr MsgType kType = MsgType::kDrain;
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

/// The migration payload: everything a peer needs to continue a
/// drained worker's unstarted work from its exact chip state.
struct CheckpointMsg {
  static constexpr MsgType kType = MsgType::kCheckpoint;
  /// Hub-assigned id of the worker that drained.
  std::uint64_t worker_id = 0;
  /// Farm tick of the source farm when the checkpoint was taken.
  std::uint64_t checkpoint_tick = 0;
  /// Complete .vsnap of the drained chip (ChipFarm::save_chip output).
  snapshot::Snapshot chip;
  /// The unstarted jobs in admission order, each with its hub-global
  /// id (the hub re-keys the peer's results back to waiting clients
  /// with these) — the assignments the drained worker never served.
  std::vector<AssignJobMsg> jobs;

  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

/// Hub -> peer worker: identical body to CheckpointMsg, re-framed.
struct ResumeMsg {
  static constexpr MsgType kType = MsgType::kResume;
  CheckpointMsg checkpoint;

  void save(snapshot::Writer& w) const { checkpoint.save(w); }
  void restore(snapshot::Reader& r) { checkpoint.restore(r); }
};

struct DrainWorkerMsg {
  static constexpr MsgType kType = MsgType::kDrainWorker;
  std::uint64_t worker_id = 0;

  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

struct MetricsRequestMsg {
  static constexpr MsgType kType = MsgType::kMetricsRequest;
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

struct MetricsReportMsg {
  static constexpr MsgType kType = MsgType::kMetricsReport;
  /// A complete JSON document (obs::JsonWriter output, schema_version
  /// leading) — the hub's counters plus per-worker liveness.
  std::string json;

  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

struct ShutdownMsg {
  static constexpr MsgType kType = MsgType::kShutdown;
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

struct ErrorMsg {
  static constexpr MsgType kType = MsgType::kError;
  /// A StatusCode value (status_code_name() names it).
  std::int32_t code = 0;
  std::string message;

  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

struct GoodbyeMsg {
  static constexpr MsgType kType = MsgType::kGoodbye;
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);
};

/// Frame bytes for `msg` (header + snapshot-encoded payload).
template <typename M>
std::vector<std::uint8_t> encode(const M& msg) {
  snapshot::Snapshot payload;
  snapshot::Writer w(payload);
  msg.save(w);
  return encode_frame(M::kType, payload);
}

/// Decodes a frame's payload as message M. Typed rejects: a frame of
/// the wrong type or with undecodable/trailing bytes is
/// kProtocolError (SnapshotError is caught here — hostile payloads
/// must not throw across the daemon loops).
template <typename M>
StatusOr<M> decode_payload(const Frame& frame) {
  if (frame.type != M::kType) {
    return Status(StatusCode::kProtocolError,
                  "expected message type " +
                      std::to_string(static_cast<int>(M::kType)) + ", got " +
                      std::to_string(static_cast<int>(frame.type)));
  }
  try {
    snapshot::Reader r(frame.payload);
    M msg;
    msg.restore(r);
    if (r.bytes_remaining() != 0) {
      return Status(StatusCode::kProtocolError,
                    std::to_string(r.bytes_remaining()) +
                        " trailing bytes after the message payload");
    }
    return msg;
  } catch (const snapshot::SnapshotError& e) {
    return Status(StatusCode::kProtocolError,
                  std::string("undecodable payload: ") + e.what());
  }
}

/// Blocking framed I/O over a socket: one frame out / one frame in.
/// read_frame validates the header before allocating the payload and
/// returns the framing layer's typed errors.
Status write_frame(Socket& sock, const std::vector<std::uint8_t>& bytes);
StatusOr<Frame> read_frame(Socket& sock,
                           std::size_t max_payload = kMaxFramePayload);

/// write_frame(encode(msg)) in one call.
template <typename M>
Status send_msg(Socket& sock, const M& msg) {
  return write_frame(sock, encode(msg));
}

}  // namespace vlsip::net

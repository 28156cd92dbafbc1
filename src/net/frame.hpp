// Wire framing — the byte-level contract of the distributed farm.
//
// Every message on a vlsipd connection is one frame: a fixed 12-byte
// header followed by a length-prefixed binary payload. The payload is a
// complete snapshot byte stream (snapshot::Writer output, VSNP header
// included), so the farm's wire protocol reuses the checkpoint codecs
// — the same bounds-checked Reader that parses a .vsnap parses a
// submitted job or a migrated chip, and a checkpoint transfer is the
// checkpoint file, verbatim, inside a frame.
//
//   offset  size  field
//   0       4     frame magic "VFRM" (little-endian u32)
//   4       2     protocol version (u16, kProtoVersion)
//   6       2     message type (u16, net::MsgType)
//   8       4     payload length N (u32)
//   12      N     payload (snapshot byte stream)
//
// Decoding is hostile-input safe and returns typed Status errors, never
// exceptions: wrong magic -> kProtocolError, a version above
// kProtoVersion -> kVersionMismatch, a frame that ends early ->
// kFrameTruncated, a declared payload above the receiver's limit ->
// kFrameOversized (checked *before* allocating). Payload decoders
// additionally reject trailing garbage via Reader::bytes_remaining().
//
// Versioning: kProtoVersion bumps whenever the frame layout or any
// message encoding changes. There is no negotiation: no codec branches
// on a peer's version, so the hub rejects a Hello at any version but
// its own with kVersionMismatch (net/wire.hpp), and a frame from the
// future is rejected at this layer before its payload is ever touched.
#pragma once

#include <cstdint>
#include <vector>

#include "core/status.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::net {

/// "VFRM" — identifies a vlsipd wire frame.
inline constexpr std::uint32_t kFrameMagic = 0x5646524Du;
/// Current wire-protocol version. Bump on any layout change.
/// v3: CheckpointMsg carries exactly one flat chip snapshot.
/// v4: payloads are snapshot::kVersion 3 streams.
/// v5: payloads are snapshot::kVersion 4 streams.
/// v6: CheckpointMsg pairs each migrated job with its id (no separate
///     id list and replay log); payloads are snapshot::kVersion 5
///     streams.
inline constexpr std::uint16_t kProtoVersion = 6;
/// Header bytes before the payload.
inline constexpr std::size_t kFrameHeaderSize = 12;
/// Default payload ceiling (checkpoint transfers dominate sizing; a
/// whole-chip .vsnap is a few hundred KiB at the default geometry).
inline constexpr std::size_t kMaxFramePayload = 256u << 20;

/// Message discriminator carried in the frame header. Values are wire
/// format: never renumber, only append.
enum class MsgType : std::uint16_t {
  kHello = 1,         ///< first frame on any connection (role, version)
  kHelloAck = 2,      ///< hub's reply: negotiated version + peer id
  kSubmitJob = 3,     ///< client -> hub: one job
  kJobResult = 4,     ///< worker -> hub -> client: one outcome
  kAssignJob = 5,     ///< hub -> worker: serve this job
  kHeartbeat = 6,     ///< worker -> hub: liveness + load
  kDrain = 7,         ///< hub -> worker: checkpoint + hand back work
  kCheckpoint = 8,    ///< worker -> hub: migration snapshot (drain reply)
  kResume = 9,        ///< hub -> peer worker: take over migrated work
  kDrainWorker = 10,  ///< client -> hub: drain worker N
  kMetricsRequest = 11,  ///< client -> hub
  kMetricsReport = 12,   ///< hub -> client: JSON metrics document
  kShutdown = 13,     ///< orderly stop (client -> hub -> workers)
  kError = 14,        ///< typed failure notice, usually before close
  kGoodbye = 15,      ///< graceful connection close
};

/// True when `type` is a value this build knows how to decode.
bool known_msg_type(std::uint16_t type);

/// One decoded frame: the header fields plus the raw payload bytes
/// (still encoded; hand to decode_payload<T> / snapshot::Reader).
struct Frame {
  std::uint16_t version = kProtoVersion;
  MsgType type = MsgType::kError;
  snapshot::Snapshot payload;
};

/// Serialises a frame (current protocol version). The payload snapshot
/// is taken as already encoded by a snapshot::Writer.
std::vector<std::uint8_t> encode_frame(MsgType type,
                                       const snapshot::Snapshot& payload);

/// Parses one complete frame from `data`. Typed rejects (see file
/// header); also kProtocolError when bytes remain after the declared
/// payload — a buffer handed here must contain exactly one frame.
StatusOr<Frame> decode_frame(const std::uint8_t* data, std::size_t len,
                             std::size_t max_payload = kMaxFramePayload);

/// Header-only validation used by streaming readers: checks magic,
/// version and payload bound, and reports the payload length to read
/// next. `data` must hold at least kFrameHeaderSize bytes.
StatusOr<std::uint32_t> check_frame_header(
    const std::uint8_t* data, std::size_t max_payload, MsgType* type_out,
    std::uint16_t* version_out);

}  // namespace vlsip::net

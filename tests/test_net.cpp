// Unit tests for the wire layer: frame codec (typed rejects for every
// malformation class), socket loopback I/O, message roundtrips, and
// the determinism guarantees the migration protocol leans on (the
// outcome codec must be byte-stable, Reader::bytes_remaining() must
// catch trailing garbage).
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "runtime/manifest.hpp"
#include "runtime/replay.hpp"

namespace vlsip {
namespace {

scaling::Job sample_job() {
  runtime::SyntheticSpec spec;
  spec.jobs = 1;
  spec.seed = 7;
  return runtime::synthetic_jobs(spec).front();
}

scaling::JobOutcome sample_outcome() {
  scaling::JobOutcome o;
  o.name = "sample";
  o.id = 17;
  o.completed = true;
  o.status = scaling::JobStatus::kCompleted;
  o.queued_at = 5;
  o.started_at = 9;
  o.finished_at = 40;
  o.clusters_used = 2;
  o.config_cycles = 31;
  o.exec_cycles = 12;
  o.attempts = 1;
  o.outputs["z"] = {arch::Word{10}, arch::Word{20}};
  o.outputs["acc"] = {arch::Word{3}};
  return o;
}

TEST(Frame, RoundTripsHeaderAndPayload) {
  snapshot::Snapshot payload;
  snapshot::Writer w(payload);
  w.section("test");
  w.u64(12345);
  const auto bytes = net::encode_frame(net::MsgType::kHeartbeat, payload);
  ASSERT_GE(bytes.size(), net::kFrameHeaderSize);

  const auto frame = net::decode_frame(bytes.data(), bytes.size());
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->type, net::MsgType::kHeartbeat);
  EXPECT_EQ(frame->version, net::kProtoVersion);
  snapshot::Reader r(frame->payload);
  r.section("test");
  EXPECT_EQ(r.u64(), 12345u);
  EXPECT_EQ(r.bytes_remaining(), 0u);
}

TEST(Frame, RejectsTruncatedHeader) {
  const auto bytes = net::encode_frame(net::MsgType::kDrain, {});
  const auto frame = net::decode_frame(bytes.data(), 7);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kFrameTruncated);
}

TEST(Frame, RejectsTruncatedPayload) {
  snapshot::Snapshot payload;
  snapshot::Writer w(payload);
  w.section("test");
  w.u64(1);
  const auto bytes = net::encode_frame(net::MsgType::kHeartbeat, payload);
  const auto frame = net::decode_frame(bytes.data(), bytes.size() - 3);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kFrameTruncated);
}

TEST(Frame, RejectsBadMagic) {
  auto bytes = net::encode_frame(net::MsgType::kDrain, {});
  bytes[0] ^= 0xFF;
  const auto frame = net::decode_frame(bytes.data(), bytes.size());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kProtocolError);
}

TEST(Frame, RejectsFutureVersion) {
  auto bytes = net::encode_frame(net::MsgType::kDrain, {});
  // Version is the little-endian u16 right after the magic.
  bytes[4] = static_cast<std::uint8_t>(net::kProtoVersion + 1);
  bytes[5] = 0;
  const auto frame = net::decode_frame(bytes.data(), bytes.size());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kVersionMismatch);
}

TEST(Frame, RejectsUnknownMessageType) {
  auto bytes = net::encode_frame(net::MsgType::kDrain, {});
  bytes[6] = 0xEE;  // type field, little-endian u16 at offset 6
  bytes[7] = 0xEE;
  const auto frame = net::decode_frame(bytes.data(), bytes.size());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kProtocolError);
}

TEST(Frame, RejectsOversizedPayloadBeforeAllocating) {
  auto bytes = net::encode_frame(net::MsgType::kDrain, {});
  // Declare a 64 MiB payload against an 8-byte receiver cap.
  bytes[8] = 0;
  bytes[9] = 0;
  bytes[10] = 0;
  bytes[11] = 4;
  const auto frame =
      net::decode_frame(bytes.data(), bytes.size(), /*max_payload=*/8);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kFrameOversized);
}

TEST(Frame, RejectsTrailingGarbageAfterFrame) {
  auto bytes = net::encode_frame(net::MsgType::kDrain, {});
  bytes.push_back(0xAB);
  const auto frame = net::decode_frame(bytes.data(), bytes.size());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kProtocolError);
}

TEST(Wire, MessageRejectsTrailingBytesInsidePayload) {
  net::HeartbeatMsg beat;
  beat.queue_depth = 3;
  beat.served = 9;
  snapshot::Snapshot payload;
  snapshot::Writer w(payload);
  beat.save(w);
  w.u8(0x77);  // one stray byte after the message body
  const auto bytes = net::encode_frame(net::MsgType::kHeartbeat, payload);
  const auto frame = net::decode_frame(bytes.data(), bytes.size());
  ASSERT_TRUE(frame.ok());
  const auto decoded = net::decode_payload<net::HeartbeatMsg>(*frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolError);
}

TEST(Wire, DecodePayloadChecksMessageType) {
  const auto bytes = net::encode(net::DrainMsg{});
  const auto frame = net::decode_frame(bytes.data(), bytes.size());
  ASSERT_TRUE(frame.ok());
  const auto wrong = net::decode_payload<net::HeartbeatMsg>(*frame);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kProtocolError);
}

TEST(Wire, JobMessagesRoundTrip) {
  net::AssignJobMsg assign;
  assign.job_id = 99;
  assign.job = sample_job();
  const auto bytes = net::encode(assign);
  const auto frame = net::decode_frame(bytes.data(), bytes.size());
  ASSERT_TRUE(frame.ok());
  const auto decoded = net::decode_payload<net::AssignJobMsg>(*frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->job_id, 99u);
  EXPECT_EQ(decoded->job.name, assign.job.name);
  EXPECT_EQ(decoded->job.requested_clusters, assign.job.requested_clusters);
  EXPECT_EQ(decoded->job.program.stream.size(),
            assign.job.program.stream.size());
}

TEST(Wire, ResultMessageRoundTripsOutcome) {
  net::JobResultMsg result;
  result.id = 4;
  result.outcome = sample_outcome();
  const auto bytes = net::encode(result);
  const auto frame = net::decode_frame(bytes.data(), bytes.size());
  ASSERT_TRUE(frame.ok());
  const auto decoded = net::decode_payload<net::JobResultMsg>(*frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->outcome.name, "sample");
  EXPECT_EQ(decoded->outcome.status, scaling::JobStatus::kCompleted);
  ASSERT_EQ(decoded->outcome.outputs.size(), 2u);
  EXPECT_EQ(decoded->outcome.outputs.at("z")[1].i, 20);
}

TEST(Wire, OutcomeEncodingIsByteStable) {
  // The migration byte-identity proof compares two independently
  // encoded outcome streams, so encoding must be deterministic.
  const auto outcome = sample_outcome();
  snapshot::Snapshot a, b;
  {
    snapshot::Writer w(a);
    runtime::save_outcome(w, outcome);
  }
  {
    snapshot::Writer w(b);
    runtime::save_outcome(w, outcome);
  }
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(Wire, CheckpointRejectsIdJobCountMismatch) {
  // Each migrated job travels with its id, so ids and jobs cannot
  // disagree in a decoded message; the count that remains is the
  // number of (id, job) pairs, and a payload that promises more pairs
  // than it carries is refused typed.
  net::CheckpointMsg msg;
  msg.worker_id = 1;
  msg.jobs.resize(1);
  msg.jobs[0].job_id = 10;
  msg.jobs[0].job = sample_job();
  snapshot::Snapshot payload;
  {
    snapshot::Writer w(payload);
    w.section("net.checkpoint");
    w.u64(msg.worker_id);
    w.u64(msg.checkpoint_tick);
    w.vec_u8(msg.chip.bytes());
    w.u64(2);  // two pairs promised...
    msg.jobs[0].save(w);  // ...one carried
  }
  const auto bytes = net::encode_frame(net::MsgType::kCheckpoint, payload);
  const auto frame = net::decode_frame(bytes.data(), bytes.size());
  ASSERT_TRUE(frame.ok());
  const auto decoded = net::decode_payload<net::CheckpointMsg>(*frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolError);

  // The same message, encoded by its own codec, round-trips.
  const auto good = net::encode(msg);
  const auto good_frame = net::decode_frame(good.data(), good.size());
  ASSERT_TRUE(good_frame.ok());
  const auto back = net::decode_payload<net::CheckpointMsg>(*good_frame);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  ASSERT_EQ(back->jobs.size(), 1u);
  EXPECT_EQ(back->jobs[0].job_id, 10u);
  EXPECT_EQ(back->jobs[0].job.name, msg.jobs[0].job.name);
}

TEST(Socket, LoopbackFramedMessaging) {
  auto listener = net::Listener::listen("127.0.0.1:0");
  ASSERT_TRUE(listener.ok()) << listener.status().message();
  net::HeartbeatMsg received;
  std::thread server([&] {
    auto sock = listener->accept();
    ASSERT_TRUE(sock.ok());
    auto frame = net::read_frame(*sock);
    ASSERT_TRUE(frame.ok());
    auto beat = net::decode_payload<net::HeartbeatMsg>(*frame);
    ASSERT_TRUE(beat.ok());
    received = *beat;
    // Echo it back.
    ASSERT_TRUE(net::send_msg(*sock, received).ok());
  });
  auto client = net::Socket::connect(listener->address());
  ASSERT_TRUE(client.ok()) << client.status().message();
  net::HeartbeatMsg beat;
  beat.queue_depth = 42;
  beat.served = 1000;
  ASSERT_TRUE(net::send_msg(*client, beat).ok());
  auto echo = net::read_frame(*client);
  ASSERT_TRUE(echo.ok());
  auto decoded = net::decode_payload<net::HeartbeatMsg>(*echo);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->queue_depth, 42u);
  EXPECT_EQ(decoded->served, 1000u);
  server.join();
  EXPECT_EQ(received.queue_depth, 42u);
}

TEST(Socket, ReceiverEnforcesItsOwnPayloadCap) {
  auto listener = net::Listener::listen("127.0.0.1:0");
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto sock = listener->accept();
    ASSERT_TRUE(sock.ok());
    // This receiver only accepts tiny payloads.
    auto frame = net::read_frame(*sock, /*max_payload=*/16);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kFrameOversized);
  });
  auto client = net::Socket::connect(listener->address());
  ASSERT_TRUE(client.ok());
  net::MetricsReportMsg big;
  big.json.assign(1024, 'x');
  (void)net::send_msg(*client, big);
  server.join();
}

TEST(Socket, RejectsUnparseableAddress) {
  EXPECT_FALSE(net::Socket::connect("not-an-address").ok());
  EXPECT_FALSE(net::Listener::listen("127.0.0.1").ok());
}

TEST(SnapshotReader, BytesRemainingCountsDown) {
  snapshot::Snapshot snap;
  snapshot::Writer w(snap);
  w.section("t");
  w.u32(1);
  w.u32(2);
  snapshot::Reader r(snap);
  r.section("t");
  EXPECT_EQ(r.bytes_remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.bytes_remaining(), 4u);
  r.u32();
  EXPECT_EQ(r.bytes_remaining(), 0u);
}

}  // namespace
}  // namespace vlsip

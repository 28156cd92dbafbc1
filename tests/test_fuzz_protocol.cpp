// Fuzz harness for the wire protocol, driven by a fixed seed corpus
// (tests/corpus/protocol_frames.txt, path compiled in as
// VLSIP_PROTOCOL_CORPUS — same pattern as test_fuzz_fault).
//
// For every corpus entry the harness encodes each wire message type,
// then applies seeded mutations — truncation, extension, random bit
// flips, and targeted header rewrites (magic, version, type, length) —
// and feeds the result to the frame decoder and, when a frame
// survives, to every message payload decoder. The invariant under
// attack: hostile bytes produce a typed Status (kProtocolError,
// kVersionMismatch, kFrameTruncated, kFrameOversized) — never an
// exception, never a crash, never an accepted frame with trailing
// payload bytes. Everything derives from the corpus line, so a failure
// reproduces from the line alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/frame.hpp"
#include "net/wire.hpp"
#include "runtime/manifest.hpp"

#ifndef VLSIP_PROTOCOL_CORPUS
#error "VLSIP_PROTOCOL_CORPUS must point at the seed corpus file"
#endif

namespace vlsip {
namespace {

struct CorpusEntry {
  int line = 0;
  std::uint64_t seed = 0;
  std::size_t mutations = 0;
  std::size_t max_len = 0;
};

std::vector<CorpusEntry> load_corpus() {
  std::ifstream in(VLSIP_PROTOCOL_CORPUS);
  EXPECT_TRUE(in.good()) << "cannot open " << VLSIP_PROTOCOL_CORPUS;
  std::vector<CorpusEntry> entries;
  std::string text;
  int line = 0;
  while (std::getline(in, text)) {
    ++line;
    if (text.empty() || text.front() == '#') continue;
    std::istringstream fields(text);
    CorpusEntry entry;
    entry.line = line;
    fields >> entry.seed >> entry.mutations >> entry.max_len;
    entries.push_back(entry);
  }
  return entries;
}

/// One well-formed frame per message type — the mutation substrate.
std::vector<std::vector<std::uint8_t>> seed_frames() {
  runtime::SyntheticSpec spec;
  spec.jobs = 1;
  spec.seed = 5;
  const auto job = runtime::synthetic_jobs(spec).front();

  std::vector<std::vector<std::uint8_t>> frames;
  net::HelloMsg hello;
  hello.role = net::Role::kWorker;
  hello.name = "fuzz";
  frames.push_back(net::encode(hello));
  net::HelloAckMsg ack;
  ack.peer_id = 7;
  frames.push_back(net::encode(ack));
  net::SubmitJobMsg submit;
  submit.seq = 3;
  submit.job = job;
  frames.push_back(net::encode(submit));
  net::AssignJobMsg assign;
  assign.job_id = 12;
  assign.job = job;
  frames.push_back(net::encode(assign));
  net::JobResultMsg result;
  result.id = 12;
  result.outcome.name = job.name;
  result.outcome.status = scaling::JobStatus::kCompleted;
  result.outcome.outputs["out"] = {arch::Word{1}, arch::Word{2}};
  frames.push_back(net::encode(result));
  net::HeartbeatMsg beat;
  beat.queue_depth = 4;
  beat.served = 99;
  frames.push_back(net::encode(beat));
  frames.push_back(net::encode(net::DrainMsg{}));
  net::CheckpointMsg checkpoint;
  checkpoint.worker_id = 2;
  checkpoint.checkpoint_tick = 1234;
  checkpoint.jobs.resize(2);
  checkpoint.jobs[0].job_id = 40;
  checkpoint.jobs[0].job = job;
  checkpoint.jobs[1].job_id = 41;
  checkpoint.jobs[1].job = job;
  {
    snapshot::Writer w(checkpoint.chip);
    w.section("fuzz.chipstate");
    w.u64(0xC0FFEE);
  }
  frames.push_back(net::encode(checkpoint));
  net::ResumeMsg resume;
  resume.checkpoint = checkpoint;
  frames.push_back(net::encode(resume));
  net::DrainWorkerMsg drain_worker;
  drain_worker.worker_id = 2;
  frames.push_back(net::encode(drain_worker));
  frames.push_back(net::encode(net::MetricsRequestMsg{}));
  net::MetricsReportMsg report;
  report.json = "{\"schema_version\":1}";
  frames.push_back(net::encode(report));
  frames.push_back(net::encode(net::ShutdownMsg{}));
  net::ErrorMsg error;
  error.code = static_cast<std::int32_t>(StatusCode::kProtocolError);
  error.message = "fuzz";
  frames.push_back(net::encode(error));
  frames.push_back(net::encode(net::GoodbyeMsg{}));
  return frames;
}

/// Applies one seeded mutation in place.
void mutate(std::vector<std::uint8_t>& bytes, Xoshiro256& rng,
            std::size_t max_len) {
  switch (rng.uniform(6)) {
    case 0:  // truncate
      if (!bytes.empty()) {
        bytes.resize(static_cast<std::size_t>(rng.uniform(bytes.size())));
      }
      break;
    case 1:  // extend with noise
      for (std::size_t n = rng.uniform(16) + 1; n > 0 && bytes.size() < max_len;
           --n) {
        bytes.push_back(static_cast<std::uint8_t>(rng.next()));
      }
      break;
    case 2:  // flip a bit
      if (!bytes.empty()) {
        const auto at = static_cast<std::size_t>(rng.uniform(bytes.size()));
        bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
      }
      break;
    case 3:  // rewrite a header byte (magic/version/type)
      if (bytes.size() >= net::kFrameHeaderSize) {
        const auto at = static_cast<std::size_t>(rng.uniform(8));
        bytes[at] = static_cast<std::uint8_t>(rng.next());
      }
      break;
    case 4:  // rewrite the declared payload length
      if (bytes.size() >= net::kFrameHeaderSize) {
        for (std::size_t i = 8; i < 12; ++i) {
          bytes[i] = static_cast<std::uint8_t>(rng.next());
        }
      }
      break;
    case 5:  // splice random payload bytes
      if (bytes.size() > net::kFrameHeaderSize) {
        const auto at = net::kFrameHeaderSize +
                        static_cast<std::size_t>(rng.uniform(
                            bytes.size() - net::kFrameHeaderSize));
        bytes[at] = static_cast<std::uint8_t>(rng.next());
      }
      break;
  }
}

bool is_typed_protocol_error(const Status& status) {
  switch (status.code()) {
    case StatusCode::kProtocolError:
    case StatusCode::kVersionMismatch:
    case StatusCode::kFrameTruncated:
    case StatusCode::kFrameOversized:
      return true;
    default:
      return false;
  }
}

/// Every payload decoder the daemons run on received frames. A frame
/// that passed the framing layer must decode cleanly or fail typed.
void exercise_payload_decoders(const net::Frame& frame, int line) {
  const auto check = [line](const Status& status) {
    if (!status.ok()) {
      EXPECT_TRUE(is_typed_protocol_error(status))
          << "corpus line " << line << ": untyped decode failure "
          << status_code_name(status.code()) << ": " << status.message();
    }
  };
  check(net::decode_payload<net::HelloMsg>(frame).status());
  check(net::decode_payload<net::HelloAckMsg>(frame).status());
  check(net::decode_payload<net::SubmitJobMsg>(frame).status());
  check(net::decode_payload<net::AssignJobMsg>(frame).status());
  check(net::decode_payload<net::JobResultMsg>(frame).status());
  check(net::decode_payload<net::HeartbeatMsg>(frame).status());
  check(net::decode_payload<net::DrainMsg>(frame).status());
  check(net::decode_payload<net::CheckpointMsg>(frame).status());
  check(net::decode_payload<net::ResumeMsg>(frame).status());
  check(net::decode_payload<net::DrainWorkerMsg>(frame).status());
  check(net::decode_payload<net::MetricsRequestMsg>(frame).status());
  check(net::decode_payload<net::MetricsReportMsg>(frame).status());
  check(net::decode_payload<net::ShutdownMsg>(frame).status());
  check(net::decode_payload<net::ErrorMsg>(frame).status());
  check(net::decode_payload<net::GoodbyeMsg>(frame).status());
}

TEST(FuzzProtocol, CleanFramesRoundTrip) {
  for (const auto& bytes : seed_frames()) {
    const auto frame = net::decode_frame(bytes.data(), bytes.size());
    ASSERT_TRUE(frame.ok()) << frame.status().message();
  }
}

TEST(FuzzProtocol, MutatedFramesFailTypedOrDecode) {
  const auto corpus = load_corpus();
  ASSERT_FALSE(corpus.empty());
  const auto seeds = seed_frames();
  for (const auto& entry : corpus) {
    Xoshiro256 rng(entry.seed);
    for (const auto& seed_frame : seeds) {
      auto bytes = seed_frame;
      if (bytes.size() > entry.max_len) bytes.resize(entry.max_len);
      for (std::size_t m = 0; m < entry.mutations; ++m) {
        mutate(bytes, rng, entry.max_len);
        const auto frame = net::decode_frame(
            bytes.data(), bytes.size(), /*max_payload=*/entry.max_len);
        if (!frame.ok()) {
          EXPECT_TRUE(is_typed_protocol_error(frame.status()))
              << "corpus line " << entry.line << ": untyped frame failure "
              << status_code_name(frame.status().code());
          continue;
        }
        exercise_payload_decoders(*frame, entry.line);
      }
    }
  }
}

}  // namespace
}  // namespace vlsip

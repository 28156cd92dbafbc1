// End-to-end tests for the distributed farm: a Hub plus WorkerDaemons
// on loopback sockets, driven through the HubClient — the same stack
// `vlsipc hub/worker/submit` runs, in one process so the tests can
// kill and drain workers deterministically.
//
// The load-bearing assertions:
//   * worker loss mid-run loses no job: everything in flight on the
//     dead worker is requeued and served by the survivor, and each job
//     is answered exactly once;
//   * distributed results are semantically identical (name -> status +
//     output tokens) to a single-process deterministic farm run of the
//     same manifest;
//   * drain migration is byte-identical: serving the hub's recorded
//     checkpoint blob locally, on a farm slot of the peer's config,
//     yields outcome encodings equal to what the peer sent back over
//     the wire.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "daemon/hub.hpp"
#include "daemon/worker.hpp"
#include "net/client.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/farm_config_builder.hpp"
#include "runtime/manifest.hpp"
#include "runtime/replay.hpp"

namespace vlsip {
namespace {

/// A WorkerDaemon serving on its own thread.
struct WorkerThread {
  explicit WorkerThread(daemon::WorkerOptions options)
      : daemon(std::move(options)) {}

  Status start() {
    const Status connected = daemon.connect();
    if (!connected.ok()) return connected;
    thread = std::thread([this] { exit = daemon.run(); });
    return Status::Ok();
  }

  void join() {
    if (thread.joinable()) thread.join();
  }

  daemon::WorkerDaemon daemon;
  std::thread thread;
  daemon::WorkerDaemon::Exit exit = daemon::WorkerDaemon::Exit::kLost;
};

/// Stops the hub, then joins the workers, when a test leaves its scope:
/// on the normal path and on a failed ASSERT's early return alike.
/// Declared after the workers, so it runs before their destructors; a
/// joinable std::thread destroyed mid-return would call std::terminate
/// and take every later test in the binary with it. Stopping the hub
/// closes the workers' connections, which ends their serving loops.
class StopOnExit {
 public:
  StopOnExit(daemon::Hub& hub, std::initializer_list<WorkerThread*> workers)
      : hub_(hub), workers_(workers) {}
  StopOnExit(const StopOnExit&) = delete;
  StopOnExit& operator=(const StopOnExit&) = delete;
  ~StopOnExit() {
    hub_.stop();
    for (WorkerThread* w : workers_) w->join();
  }

 private:
  daemon::Hub& hub_;
  std::vector<WorkerThread*> workers_;
};

/// A hub counter, 0 if the hub never created it: a missing counter
/// fails the comparison instead of throwing out of the test.
std::uint64_t counter(const obs::MetricRegistry& metrics,
                      const std::string& name) {
  const auto counters = metrics.counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

daemon::WorkerOptions worker_options(const std::string& hub,
                                     const std::string& name) {
  daemon::WorkerOptions options;
  options.hub = hub;
  options.name = name;
  options.heartbeat_ms = 50;
  options.farm = runtime::FarmConfigBuilder()
                     .workers(1)
                     .batch(4)
                     .queue(64, /*block_when_full=*/true)
                     .build();
  return options;
}

std::vector<scaling::Job> mixed_jobs(std::size_t n, std::uint64_t seed) {
  runtime::SyntheticSpec spec;
  spec.jobs = n;
  spec.seed = seed;
  return runtime::synthetic_jobs(spec);
}

/// What the equivalence check compares: everything about a result that
/// does not depend on which chip served it or when.
struct Canonical {
  std::string status;
  std::map<std::string, std::vector<std::int64_t>> outputs;

  bool operator==(const Canonical& other) const {
    return status == other.status && outputs == other.outputs;
  }
};

Canonical canonical(const scaling::JobOutcome& o) {
  Canonical c;
  c.status = scaling::to_string(o.status);
  for (const auto& [port, words] : o.outputs) {
    auto& vals = c.outputs[port];
    vals.reserve(words.size());
    for (const auto& w : words) vals.push_back(w.i);
  }
  return c;
}

/// Reference run: the same jobs through one deterministic in-process
/// farm (the PR5 replay guarantee anchors on this mode).
std::map<std::string, Canonical> reference_outcomes(
    const std::vector<scaling::Job>& jobs) {
  runtime::FarmConfig cfg;
  cfg.deterministic = true;
  runtime::ChipFarm farm(cfg);
  for (const auto& job : jobs) farm.submit(job);
  farm.drain();
  std::map<std::string, Canonical> by_name;
  for (const auto& o : farm.outcome_log()) by_name[o.name] = canonical(o);
  return by_name;
}

TEST(Daemon, HubServesJobsAcrossTwoWorkers) {
  daemon::HubOptions hub_options;
  daemon::Hub hub(hub_options);
  ASSERT_TRUE(hub.start().ok());

  WorkerThread a(worker_options(hub.address(), "a"));
  WorkerThread b(worker_options(hub.address(), "b"));
  const StopOnExit stop_on_exit(hub, {&a, &b});
  ASSERT_TRUE(a.start().ok());
  ASSERT_TRUE(b.start().ok());

  const auto jobs = mixed_jobs(24, 11);
  auto client = net::HubClient::connect({hub.address(), "test"});
  ASSERT_TRUE(client.ok()) << client.status().message();
  for (const auto& job : jobs) ASSERT_TRUE(client->submit(job).ok());
  auto results = client->collect(jobs.size());
  ASSERT_TRUE(results.ok()) << results.status().message();
  EXPECT_EQ(results->size(), jobs.size());

  const auto reference = reference_outcomes(jobs);
  for (const auto& r : *results) {
    ASSERT_TRUE(reference.count(r.outcome.name)) << r.outcome.name;
    EXPECT_TRUE(canonical(r.outcome) == reference.at(r.outcome.name))
        << r.outcome.name;
  }

  ASSERT_TRUE(client->shutdown_hub().ok());
  hub.wait();
  hub.stop();
  a.join();
  b.join();
}

TEST(Daemon, WorkerKillMidRunLosesNoJob) {
  daemon::HubOptions hub_options;
  hub_options.heartbeat_timeout_ms = 500;
  daemon::Hub hub(hub_options);
  ASSERT_TRUE(hub.start().ok());

  auto victim_options = worker_options(hub.address(), "victim");
  // Die abruptly — no goodbye, no drain — on the 13th assignment, with
  // assignments still in flight: the deterministic stand-in for
  // `kill -9` mid-batch. Past the first assignment window (8), so the
  // victim has served some jobs; counted in assignments, so a victim
  // starved of CPU still gets there.
  victim_options.crash_after_jobs = 12;
  WorkerThread victim(std::move(victim_options));
  WorkerThread survivor(worker_options(hub.address(), "survivor"));
  const StopOnExit stop_on_exit(hub, {&victim, &survivor});
  ASSERT_TRUE(victim.start().ok());
  ASSERT_TRUE(survivor.start().ok());

  const auto jobs = mixed_jobs(200, 23);
  auto client = net::HubClient::connect({hub.address(), "test"});
  ASSERT_TRUE(client.ok());
  for (const auto& job : jobs) ASSERT_TRUE(client->submit(job).ok());
  auto results = client->collect(jobs.size());
  ASSERT_TRUE(results.ok()) << results.status().message();

  // Zero lost, zero duplicated: exactly one result per submitted seq.
  ASSERT_EQ(results->size(), jobs.size());
  std::vector<std::uint64_t> seqs;
  for (const auto& r : *results) seqs.push_back(r.id);
  std::sort(seqs.begin(), seqs.end());
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);

  const auto metrics = hub.metrics();
  EXPECT_EQ(counter(metrics, "hub.workers_dead"), 1u);
  EXPECT_GT(counter(metrics, "hub.jobs_requeued"), 0u);

  // Semantically identical to the single-process deterministic run.
  const auto reference = reference_outcomes(jobs);
  for (const auto& r : *results) {
    ASSERT_TRUE(reference.count(r.outcome.name)) << r.outcome.name;
    EXPECT_TRUE(canonical(r.outcome) == reference.at(r.outcome.name))
        << r.outcome.name;
  }

  ASSERT_TRUE(client->shutdown_hub().ok());
  hub.wait();
  hub.stop();
  victim.join();
  survivor.join();
  EXPECT_EQ(victim.exit, daemon::WorkerDaemon::Exit::kCrashed);
}

TEST(Daemon, DrainMigratesCheckpointByteIdentically) {
  daemon::HubOptions hub_options;
  hub_options.assign_window = 32;  // park plenty on the drainee
  daemon::Hub hub(hub_options);
  ASSERT_TRUE(hub.start().ok());

  auto drainee_options = worker_options(hub.address(), "drainee");
  // Pace the drainee like slow silicon so the drain lands while most
  // of its queue is still unserved (keeps the migration non-trivial
  // on fast hosts).
  drainee_options.farm.chip_hz = 50'000.0;
  WorkerThread drainee(std::move(drainee_options));
  WorkerThread peer(worker_options(hub.address(), "peer"));
  const StopOnExit stop_on_exit(hub, {&drainee, &peer});
  ASSERT_TRUE(drainee.start().ok());

  const auto jobs = mixed_jobs(40, 31);
  auto client = net::HubClient::connect({hub.address(), "test"});
  ASSERT_TRUE(client.ok());
  for (const auto& job : jobs) ASSERT_TRUE(client->submit(job).ok());
  auto first = client->collect(2);
  ASSERT_TRUE(first.ok());

  // Bring up the migration target only now, so every unserved job is
  // parked on the drainee when the drain lands.
  ASSERT_TRUE(peer.start().ok());
  ASSERT_TRUE(client->drain_worker(drainee.daemon.id()).ok());

  auto rest = client->collect(jobs.size() - first->size());
  ASSERT_TRUE(rest.ok()) << rest.status().message();
  EXPECT_EQ(first->size() + rest->size(), jobs.size());

  // The hub recorded the exact blob it forwarded to the peer. Serve
  // it locally: the peer's answers for the migrated ids must be
  // byte-identical to ours, encoding for encoding.
  const auto blob = hub.last_migration();
  ASSERT_FALSE(blob.empty()) << "no migration happened";
  snapshot::Snapshot carrier;
  carrier.bytes() = blob;
  net::CheckpointMsg checkpoint;
  {
    snapshot::Reader r(carrier);
    checkpoint.restore(r);
    EXPECT_EQ(r.bytes_remaining(), 0u);
  }
  ASSERT_FALSE(checkpoint.jobs.empty());

  // Serve the blob as the peer does: on a farm slot of the peer's own
  // FarmConfig.
  std::vector<scaling::Job> migrated;
  for (const auto& assign : checkpoint.jobs) migrated.push_back(assign.job);
  const auto replayed = runtime::replay_from(
      worker_options(hub.address(), "peer").farm, checkpoint.chip,
      checkpoint.checkpoint_tick, std::move(migrated));
  ASSERT_TRUE(replayed.ok()) << replayed.status().to_string();
  const auto& local = *replayed;
  ASSERT_EQ(local.size(), checkpoint.jobs.size());

  // Index the wire results by job name (names are unique here).
  std::map<std::string, scaling::JobOutcome> wire;
  for (const auto& r : *first) wire[r.outcome.name] = r.outcome;
  for (const auto& r : *rest) wire[r.outcome.name] = r.outcome;

  for (std::size_t k = 0; k < local.size(); ++k) {
    ASSERT_TRUE(wire.count(local[k].name)) << local[k].name;
    EXPECT_EQ(local[k].attempts, 1u);
    EXPECT_EQ(local[k].resumed_from_cycle, checkpoint.checkpoint_tick);
    scaling::JobOutcome mine = local[k];
    scaling::JobOutcome theirs = wire.at(local[k].name);
    // The transport stamps its own ids (global on the worker leg, the
    // client seq on the last hop); neutralise that one field and the
    // encodings must match byte for byte.
    mine.id = 0;
    theirs.id = 0;
    snapshot::Snapshot a, b;
    {
      snapshot::Writer w(a);
      runtime::save_outcome(w, mine);
    }
    {
      snapshot::Writer w(b);
      runtime::save_outcome(w, theirs);
    }
    EXPECT_EQ(a.bytes(), b.bytes()) << "outcome for " << local[k].name
                                    << " diverged from the local replay";
  }

  ASSERT_TRUE(client->shutdown_hub().ok());
  hub.wait();
  hub.stop();
  drainee.join();
  peer.join();
  EXPECT_EQ(drainee.exit, daemon::WorkerDaemon::Exit::kDrained);
}

TEST(Daemon, TruncatedSnapshotMigrationFallsBackWithZeroJobLoss) {
  // The hub cuts every forwarded chip snapshot in half (fault
  // injection): the receiving worker's restore must fail typed, and its
  // requeue-as-fresh fallback must still answer every migrated job —
  // degraded determinism, zero loss. Flat snapshots carry no content
  // hash, so truncation (not a bit flip) is the corruption that
  // restore is guaranteed to notice.
  daemon::HubOptions hub_options;
  hub_options.assign_window = 32;
  hub_options.truncate_migration_snapshot = true;
  daemon::Hub hub(hub_options);
  ASSERT_TRUE(hub.start().ok());

  auto drainee_options = worker_options(hub.address(), "drainee");
  drainee_options.farm.chip_hz = 50'000.0;
  drainee_options.farm.checkpoint_every_batches = 1;
  WorkerThread drainee(std::move(drainee_options));
  WorkerThread peer(worker_options(hub.address(), "peer"));
  const StopOnExit stop_on_exit(hub, {&drainee, &peer});
  ASSERT_TRUE(drainee.start().ok());

  const auto jobs = mixed_jobs(40, 59);
  auto client = net::HubClient::connect({hub.address(), "test"});
  ASSERT_TRUE(client.ok());
  for (const auto& job : jobs) ASSERT_TRUE(client->submit(job).ok());
  auto first = client->collect(2);
  ASSERT_TRUE(first.ok());

  ASSERT_TRUE(peer.start().ok());
  ASSERT_TRUE(client->drain_worker(drainee.daemon.id()).ok());

  auto rest = client->collect(jobs.size() - first->size());
  ASSERT_TRUE(rest.ok()) << rest.status().message();

  // Exactly one result per submitted seq: nothing lost, nothing
  // duplicated, even though the snapshot the peer received was cut.
  ASSERT_EQ(first->size() + rest->size(), jobs.size());
  std::vector<std::uint64_t> seqs;
  for (const auto& r : *first) seqs.push_back(r.id);
  for (const auto& r : *rest) seqs.push_back(r.id);
  std::sort(seqs.begin(), seqs.end());
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);

  const auto metrics = hub.metrics();
  EXPECT_GE(counter(metrics, "hub.migrations"), 1u);

  // The blob the peer received fails restore with a typed status.
  const auto blob = hub.last_migration();
  ASSERT_FALSE(blob.empty()) << "no migration happened";
  snapshot::Snapshot carrier;
  carrier.bytes() = blob;
  net::CheckpointMsg checkpoint;
  {
    snapshot::Reader r(carrier);
    checkpoint.restore(r);
  }
  ASSERT_FALSE(checkpoint.chip.empty());
  core::VlsiProcessor chip{core::ChipConfig{}};
  const Status restored = chip.restore(checkpoint.chip);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), StatusCode::kCorruptSnapshot);

  ASSERT_TRUE(client->shutdown_hub().ok());
  hub.wait();
  hub.stop();
  drainee.join();
  peer.join();
  EXPECT_EQ(drainee.exit, daemon::WorkerDaemon::Exit::kDrained);
}

TEST(Daemon, ClientWindowBoundsInFlightSubmissions) {
  // Regression for unbounded streaming: with max_in_flight set, the
  // client must never have more than that many unanswered submissions
  // — submit() blocks pumping results until the window frees up.
  daemon::Hub hub;
  ASSERT_TRUE(hub.start().ok());
  WorkerThread w(worker_options(hub.address(), "w"));
  const StopOnExit stop_on_exit(hub, {&w});
  ASSERT_TRUE(w.start().ok());

  net::HubClient::Options copts{hub.address(), "test"};
  copts.max_in_flight = 4;
  auto client = net::HubClient::connect(copts);
  ASSERT_TRUE(client.ok()) << client.status().message();

  const auto jobs = mixed_jobs(24, 61);
  for (const auto& job : jobs) {
    ASSERT_TRUE(client->submit(job).ok());
    EXPECT_LE(client->in_flight(), 4u);
  }
  auto results = client->collect(jobs.size());
  ASSERT_TRUE(results.ok()) << results.status().message();
  EXPECT_EQ(results->size(), jobs.size());
  EXPECT_EQ(client->in_flight(), 0u);

  ASSERT_TRUE(client->shutdown_hub().ok());
  hub.wait();
  hub.stop();
  w.join();
}

TEST(Daemon, FiveHundredJobSweepSurvivesWorkerLoss) {
  daemon::HubOptions hub_options;
  hub_options.heartbeat_timeout_ms = 500;
  daemon::Hub hub(hub_options);
  ASSERT_TRUE(hub.start().ok());

  auto victim_options = worker_options(hub.address(), "victim");
  victim_options.crash_after_jobs = 24;
  WorkerThread victim(std::move(victim_options));
  WorkerThread survivor(worker_options(hub.address(), "survivor"));
  const StopOnExit stop_on_exit(hub, {&victim, &survivor});
  ASSERT_TRUE(victim.start().ok());
  ASSERT_TRUE(survivor.start().ok());

  const auto jobs = mixed_jobs(500, 47);
  auto client = net::HubClient::connect({hub.address(), "test"});
  ASSERT_TRUE(client.ok());
  for (const auto& job : jobs) ASSERT_TRUE(client->submit(job).ok());
  auto results = client->collect(jobs.size());
  ASSERT_TRUE(results.ok()) << results.status().message();
  ASSERT_EQ(results->size(), jobs.size());

  std::size_t completed = 0;
  for (const auto& r : *results) {
    if (r.outcome.status == scaling::JobStatus::kCompleted) ++completed;
  }
  EXPECT_EQ(completed, jobs.size());

  const auto metrics = hub.metrics();
  EXPECT_EQ(counter(metrics, "hub.jobs_submitted"), 500u);
  EXPECT_EQ(counter(metrics, "hub.jobs_completed"), 500u);
  EXPECT_EQ(counter(metrics, "hub.workers_dead"), 1u);

  ASSERT_TRUE(client->shutdown_hub().ok());
  hub.wait();
  hub.stop();
  victim.join();
  survivor.join();
}

TEST(Daemon, HubRejectsThenSurvivesHostileClient) {
  daemon::Hub hub;
  ASSERT_TRUE(hub.start().ok());

  // A connection that opens with garbage instead of Hello is answered
  // with a typed error and dropped; the hub keeps serving.
  {
    auto sock = net::Socket::connect(hub.address());
    ASSERT_TRUE(sock.ok());
    std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF,
                                         0x01, 0x00, 0x01, 0x00,
                                         0x00, 0x00, 0x00, 0x00};
    ASSERT_TRUE(sock->send_all(garbage.data(), garbage.size()).ok());
    auto reply = net::read_frame(*sock);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, net::MsgType::kError);
    auto err = net::decode_payload<net::ErrorMsg>(*reply);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(static_cast<StatusCode>(err->code),
              StatusCode::kProtocolError);
  }

  // The hub still accepts a well-behaved session afterwards.
  auto client = net::HubClient::connect({hub.address(), "ok"});
  ASSERT_TRUE(client.ok()) << client.status().message();
  auto metrics = client->metrics_json();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("\"schema_version\""), std::string::npos);
  ASSERT_TRUE(client->shutdown_hub().ok());
  hub.wait();
  hub.stop();
}

TEST(Daemon, HubRejectsHelloAtAnotherProtoVersion) {
  daemon::Hub hub;
  ASSERT_TRUE(hub.start().ok());

  // A v2 peer: its frame header and its Hello both say version 2. No
  // codec branches on a negotiated version, so the hub must refuse the
  // session with a typed error instead of acking it.
  {
    auto sock = net::Socket::connect(hub.address());
    ASSERT_TRUE(sock.ok());
    net::HelloMsg hello;
    hello.role = net::Role::kWorker;
    hello.proto_version = net::kProtoVersion - 1;
    hello.name = "old-peer";
    std::vector<std::uint8_t> frame = net::encode(hello);
    frame[4] = static_cast<std::uint8_t>(net::kProtoVersion - 1);
    frame[5] = 0;
    ASSERT_TRUE(sock->send_all(frame.data(), frame.size()).ok());
    auto reply = net::read_frame(*sock);
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    EXPECT_EQ(reply->type, net::MsgType::kError);
    auto err = net::decode_payload<net::ErrorMsg>(*reply);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(static_cast<StatusCode>(err->code),
              StatusCode::kVersionMismatch);
  }

  // Nobody joined, and a current-version session still works.
  auto client = net::HubClient::connect({hub.address(), "ok"});
  ASSERT_TRUE(client.ok()) << client.status().message();
  EXPECT_EQ(client->proto_version(), net::kProtoVersion);
  const auto metrics = hub.metrics();
  EXPECT_EQ(metrics.counters().count("hub.workers_joined"), 0u);
  ASSERT_TRUE(client->shutdown_hub().ok());
  hub.wait();
  hub.stop();
}

TEST(Daemon, SilentPeerBlocksNeitherJoinsNorStop) {
  daemon::Hub hub;
  ASSERT_TRUE(hub.start().ok());

  // A peer that connects and never says Hello. Its handshake waits on
  // its own connection: later joins go ahead, and stop() shuts it down.
  auto silent = net::Socket::connect(hub.address());
  ASSERT_TRUE(silent.ok()) << silent.status().message();

  WorkerThread w(worker_options(hub.address(), "w"));
  const StopOnExit stop_on_exit(hub, {&w});
  ASSERT_TRUE(w.start().ok());
  auto client = net::HubClient::connect({hub.address(), "test"});
  ASSERT_TRUE(client.ok()) << client.status().message();
  ASSERT_TRUE(client->submit(mixed_jobs(1, 7).front()).ok());
  auto results = client->collect(1);
  ASSERT_TRUE(results.ok()) << results.status().message();
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ(results->front().outcome.status, scaling::JobStatus::kCompleted);

  hub.stop();  // returns although the silent peer is still connected
  w.join();
  EXPECT_EQ(hub.live_workers(), 0u);
}

TEST(Daemon, MetricsReportIsWellFormedJson) {
  daemon::Hub hub;
  ASSERT_TRUE(hub.start().ok());
  WorkerThread w(worker_options(hub.address(), "w"));
  const StopOnExit stop_on_exit(hub, {&w});
  ASSERT_TRUE(w.start().ok());

  auto client = net::HubClient::connect({hub.address(), "test"});
  ASSERT_TRUE(client.ok());
  auto doc = client->metrics_json();
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc->find("\"report\":\"hub-metrics\""), std::string::npos);
  EXPECT_NE(doc->find("\"workers\""), std::string::npos);
  EXPECT_NE(doc->find("\"hub.workers_joined\":1"), std::string::npos);

  ASSERT_TRUE(client->shutdown_hub().ok());
  hub.wait();
  hub.stop();
  w.join();
}

}  // namespace
}  // namespace vlsip

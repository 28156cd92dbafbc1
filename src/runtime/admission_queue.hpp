// Bounded thread-safe admission queue — the farm's front door.
//
// Producers submit PendingJobs; worker threads pop *batches* (grouping
// policy in runtime/batcher.*). The queue is bounded: when full, the
// caller chooses backpressure semantics per call — try_push() rejects
// with a reason (load shedding), push_wait() blocks until space frees
// (throttling). close() stops admission and lets workers drain what
// remains; pause() freezes consumption so tests can stage deterministic
// queue states.
//
// In-flight accounting (one count per popped batch, finished via
// finish_batch()) lets wait_idle() implement ChipFarm::drain() without
// a race between "queue looks empty" and "worker still running".
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/batcher.hpp"
#include "scaling/job.hpp"

namespace vlsip::runtime {

/// One admitted job waiting for a worker: the job itself plus its
/// completion plumbing (promise/callback) and admission bookkeeping.
struct PendingJob {
  std::uint64_t id = 0;
  scaling::Job job;
  /// Absolute farm tick after which the job is cancelled instead of
  /// started; 0 = no deadline.
  std::uint64_t deadline = 0;
  std::uint64_t queued_at = 0;
  /// Service attempts so far (fault-tolerance retries increment this).
  std::uint32_t attempts = 0;
  /// Earliest farm tick the job may be served at (retry backoff);
  /// 0 = immediately.
  std::uint64_t not_before = 0;
  std::promise<scaling::JobOutcome> promise;
  std::function<void(const scaling::JobOutcome&)> on_complete;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(std::size_t capacity);

  /// Non-blocking admission. Returns false (and fills `reason`, if
  /// given) when the queue is full or closed.
  bool try_push(PendingJob&& job, std::string* reason = nullptr);

  /// Blocking admission: waits until space frees. Returns false only
  /// when the queue is closed.
  bool push_wait(PendingJob&& job);

  /// Re-admits a job a worker could not serve (fault-tolerance retry).
  /// Ignores capacity and the closed flag — a retried job was already
  /// admitted once and its promise must still resolve, so it can never
  /// be shed or stranded by shutdown. Goes to the back of the queue.
  void requeue(PendingJob&& job);

  /// Pops the next batch under `policy` (blocks while empty or paused).
  /// An empty result means the queue is closed and fully drained — the
  /// worker should exit. A non-empty result counts as one in-flight
  /// batch until finish_batch().
  std::vector<PendingJob> pop_batch(const BatchPolicy& policy);

  /// Marks one popped batch complete (wakes wait_idle() when that
  /// leaves the queue empty with nothing in flight).
  void finish_batch();

  /// Removes a still-queued job and hands its PendingJob back to the
  /// caller (to fulfil the promise with a cancelled outcome). Returns
  /// false if the job already left the queue.
  bool cancel(std::uint64_t id, PendingJob& out);

  /// Freezes/unfreezes consumption; admission is unaffected.
  void set_paused(bool paused);

  /// Stops admission; pop_batch() drains the remainder then returns
  /// empty. Also unpauses, so close() always terminates workers.
  void close();

  /// Blocks until the queue is empty and no batch is in flight. Resume
  /// a paused queue first, or this waits forever on pending jobs.
  void wait_idle();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  bool closed() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::condition_variable idle_;
  std::deque<PendingJob> queue_;
  std::size_t in_flight_batches_ = 0;
  bool paused_ = false;
  bool closed_ = false;
};

}  // namespace vlsip::runtime

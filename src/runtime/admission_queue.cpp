#include "runtime/admission_queue.hpp"

#include "common/require.hpp"

namespace vlsip::runtime {

AdmissionQueue::AdmissionQueue(std::size_t capacity) : capacity_(capacity) {
  VLSIP_REQUIRE(capacity >= 1, "admission queue needs capacity >= 1");
}

// A push wakes a consumer only when it could pop: while paused no
// consumer can, and set_paused(false) / close() wake them all anyway.
bool AdmissionQueue::try_push(PendingJob&& job, std::string* reason) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      if (reason != nullptr) *reason = "queue closed";
      return false;
    }
    if (queue_.size() >= capacity_) {
      if (reason != nullptr) {
        *reason = "queue full (" + std::to_string(capacity_) + " pending)";
      }
      return false;
    }
    queue_.push_back(std::move(job));
    wake = !paused_;
  }
  if (wake) not_empty_.notify_one();
  return true;
}

bool AdmissionQueue::push_wait(PendingJob&& job) {
  bool wake = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock,
                   [&] { return closed_ || queue_.size() < capacity_; });
    if (closed_) return false;
    queue_.push_back(std::move(job));
    wake = !paused_;
  }
  if (wake) not_empty_.notify_one();
  return true;
}

void AdmissionQueue::requeue(PendingJob&& job) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
    wake = !paused_;
  }
  if (wake) not_empty_.notify_one();
}

std::vector<PendingJob> AdmissionQueue::pop_batch(const BatchPolicy& policy) {
  std::vector<PendingJob> batch;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] {
      return (!paused_ && !queue_.empty()) || (closed_ && queue_.empty());
    });
    if (queue_.empty()) return batch;  // closed and drained
    batch = take_batch(queue_, policy);
    ++in_flight_batches_;
  }
  // Space freed: wake every blocked producer that now fits.
  not_full_.notify_all();
  return batch;
}

// wait_idle() waits for an empty queue with nothing in flight, so
// finish_batch() and cancel() wake it only on that transition, not
// once per batch.
void AdmissionQueue::finish_batch() {
  bool idle = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    VLSIP_INVARIANT(in_flight_batches_ > 0,
                    "finish_batch without a popped batch");
    idle = --in_flight_batches_ == 0 && queue_.empty();
  }
  if (idle) idle_.notify_all();
}

bool AdmissionQueue::cancel(std::uint64_t id, PendingJob& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id == id) {
      out = std::move(*it);
      queue_.erase(it);
      not_full_.notify_one();
      if (queue_.empty() && in_flight_batches_ == 0) idle_.notify_all();
      return true;
    }
  }
  return false;
}

void AdmissionQueue::set_paused(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = paused;
  }
  if (!paused) not_empty_.notify_all();
}

void AdmissionQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    paused_ = false;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

void AdmissionQueue::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock,
             [&] { return queue_.empty() && in_flight_batches_ == 0; });
}

std::size_t AdmissionQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

bool AdmissionQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

}  // namespace vlsip::runtime

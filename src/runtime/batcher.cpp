#include "runtime/batcher.hpp"

#include <algorithm>
#include <iterator>

#include "common/require.hpp"
#include "runtime/admission_queue.hpp"

namespace vlsip::runtime {

std::vector<PendingJob> take_batch(std::deque<PendingJob>& queue,
                                   const BatchPolicy& policy) {
  VLSIP_REQUIRE(policy.max_jobs >= 1, "batches hold at least one job");
  std::vector<PendingJob> batch;
  if (queue.empty()) return batch;

  // One order-preserving pass: matches move into the batch and the
  // skipped jobs close up behind the taken head. The pass stops once the
  // batch is full, so one erase of the holes moves only the short front
  // part (max_jobs = 1 is a pop_front).
  batch.reserve(std::min(policy.max_jobs, queue.size()));
  batch.push_back(std::move(queue.front()));
  const std::size_t clusters = batch.front().job.requested_clusters;
  auto kept = queue.begin();
  auto it = std::next(queue.begin());
  for (; it != queue.end() && batch.size() < policy.max_jobs; ++it) {
    if (it->job.requested_clusters == clusters) {
      batch.push_back(std::move(*it));
    } else {
      *kept++ = std::move(*it);
    }
  }
  queue.erase(kept, it);
  return batch;
}

}  // namespace vlsip::runtime

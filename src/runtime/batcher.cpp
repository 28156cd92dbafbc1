#include "runtime/batcher.hpp"

#include "common/require.hpp"
#include "runtime/admission_queue.hpp"

namespace vlsip::runtime {

std::vector<PendingJob> take_batch(std::deque<PendingJob>& queue,
                                   const BatchPolicy& policy) {
  VLSIP_REQUIRE(policy.max_jobs >= 1, "batches hold at least one job");
  std::vector<PendingJob> batch;
  if (queue.empty()) return batch;

  batch.push_back(std::move(queue.front()));
  queue.pop_front();

  const std::size_t clusters = batch.front().job.requested_clusters;
  for (auto it = queue.begin();
       it != queue.end() && batch.size() < policy.max_jobs;) {
    if (it->job.requested_clusters == clusters) {
      batch.push_back(std::move(*it));
      it = queue.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

}  // namespace vlsip::runtime

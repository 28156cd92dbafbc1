// Batch formation policy — amortising configuration wormholes.
//
// Fusing a processor costs a wormhole-routed configuration worm per
// allocation (§3.3); running k same-sized jobs back-to-back on one
// fused processor pays that worm once instead of k times (the AP's
// configure() replaces the previous datapath in place, and resident
// objects even stay cached, §2.4). The batcher therefore groups queued
// jobs by requested_clusters: a worker takes the head job plus up to
// max_jobs-1 later jobs requesting the same cluster count, preserving
// FCFS order within the batch and among the jobs left behind.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

namespace vlsip::runtime {

struct PendingJob;

struct BatchPolicy {
  /// Ceiling on jobs per batch (>= 1); 1 is strict FCFS.
  std::size_t max_jobs = 8;
};

/// Forms the next batch from `queue` (which the caller must have
/// locked): always takes the head, then up to max_jobs-1 further jobs
/// with the head's requested_clusters. Taken jobs are removed from
/// `queue`.
std::vector<PendingJob> take_batch(std::deque<PendingJob>& queue,
                                   const BatchPolicy& policy);

}  // namespace vlsip::runtime

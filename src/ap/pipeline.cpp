#include "ap/pipeline.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::ap {

ChainSet::ChainSet(csd::DynamicCsdNetwork& network, const ObjectSpace& space)
    : network_(network), space_(space) {}

void ChainSet::add(arch::ObjectId source, arch::ObjectId sink, int operand) {
  VLSIP_REQUIRE(source != sink, "self-chains are meaningless");
  chains_.push_back(Chain{source, sink, operand, csd::kNoRoute});
  chains_dirty_ = true;
}

void ChainSet::remove_for(arch::ObjectId id) {
  for (const auto& c : chains_) {
    if ((c.source == id || c.sink == id) && holds_live_route(c)) {
      network_.release(c.route);
    }
  }
  std::erase_if(chains_,
                [id](const Chain& c) { return c.source == id || c.sink == id; });
  chains_dirty_ = true;
}

void ChainSet::clear() {
  for (const auto& c : chains_) {
    if (holds_live_route(c)) network_.release(c.route);
  }
  chains_.clear();
  chains_dirty_ = true;
}

void ChainSet::reset() {
  chains_.clear();
  rebuilds_ = 0;
  chains_dirty_ = true;
  seen_space_version_ = 0;
  seen_net_version_ = 0;
  last_failures_ = 0;
}

void ChainSet::shift_prefix(int k) {
  const auto torn = network_.shift_prefix(static_cast<csd::Position>(k));
  for (const csd::RouteId id : torn) {
    for (auto& c : chains_) {
      if (c.route == id) c.route = csd::kNoRoute;
    }
  }
}

std::size_t ChainSet::refresh() {
  // Nothing moved, no claims changed, no chains added or dropped: the
  // pass would release nothing and re-attempt exactly the failures of
  // last time. Return the cached count without touching the network.
  if (!chains_dirty_ && seen_space_version_ == space_.version() &&
      seen_net_version_ == network_.version()) {
    return last_failures_;
  }
  ++rebuilds_;
  // Pass 1: release routes that are stale (endpoint moved or swapped
  // out) so their channels are available for pass 2, and forget routes
  // the network already dropped.
  for (auto& c : chains_) {
    if (!c.routed()) continue;
    if (!holds_live_route(c)) {
      c.route = csd::kNoRoute;
      continue;
    }
    const auto src_pos = space_.find(c.source);
    const auto dst_pos = space_.find(c.sink);
    const auto& route = network_.routes()[c.route];
    const bool stale =
        !src_pos || !dst_pos ||
        route.source != static_cast<csd::Position>(*src_pos) ||
        route.sink != static_cast<csd::Position>(*dst_pos);
    if (stale) {
      network_.release(c.route);
      c.route = csd::kNoRoute;
    }
  }
  // Pass 2: route every resident, unrouted chain.
  std::size_t failures = 0;
  for (auto& c : chains_) {
    if (c.routed()) continue;
    const auto src_pos = space_.find(c.source);
    const auto dst_pos = space_.find(c.sink);
    if (!src_pos || !dst_pos) continue;  // dormant
    if (*src_pos == *dst_pos) continue;  // cannot happen; defensive
    const auto route =
        network_.establish(static_cast<csd::Position>(*src_pos),
                           static_cast<csd::Position>(*dst_pos));
    if (route) {
      c.route = *route;
    } else {
      ++failures;
    }
  }
  // Snapshot versions *after* the pass: releases/establishes above are
  // our own mutations, not new external state.
  chains_dirty_ = false;
  seen_space_version_ = space_.version();
  seen_net_version_ = network_.version();
  last_failures_ = failures;
  return failures;
}

std::size_t ChainSet::routed() const {
  return static_cast<std::size_t>(std::count_if(
      chains_.begin(), chains_.end(),
      [](const Chain& c) { return c.routed(); }));
}

std::size_t ChainSet::unrouted_resident() const {
  std::size_t n = 0;
  for (const auto& c : chains_) {
    if (!c.routed() && space_.contains(c.source) && space_.contains(c.sink)) {
      ++n;
    }
  }
  return n;
}

ConfigurationPipeline::ConfigurationPipeline(ObjectSpace& space, Wsrf& wsrf,
                                             ObjectLibrary& library,
                                             ChainSet& chains,
                                             ReplacementScheduler& scheduler,
                                             PipelineConfig config,
                                             obs::TraceSink* trace)
    : space_(space),
      wsrf_(wsrf),
      library_(library),
      chains_(chains),
      scheduler_(scheduler),
      config_(config),
      trace_(trace) {
  VLSIP_REQUIRE(config.cfb_entries >= 1, "need at least one CFB entry");
}

std::uint64_t ConfigurationPipeline::ensure_resident(
    const arch::Program& program, arch::ObjectId id, std::uint64_t now,
    ConfigStats& stats) {
  ++stats.object_requests;
  if (const auto pos = space_.find(id)) {
    // Hit. Central WSRF tag check; a retired tag forces an array search.
    ++stats.hits;
    if (wsrf_.lookup(id) == nullptr) {
      ++stats.array_searches;
      now += static_cast<std::uint64_t>(config_.array_search_penalty);
      wsrf_.insert(id);
    }
    // LRU re-sort: the hit object returns to the top of the stack, and
    // the claims of the span above it shift down with their objects.
    if (config_.promote_on_hit) {
      if (const int depth = space_.promote(id); depth != 0) {
        chains_.shift_prefix(depth);
        ++stats.promotes;
        now += 1;  // parallel stack shift of the span above it
      }
    }
    if (trace_) {
      trace_->event(now, obs::Layer::kAp, "pipeline", id,
                    "hit object " + std::to_string(id) + " (was depth " +
                        std::to_string(*pos) + ")");
    }
    return now;
  }

  // Miss: load from the library into a CFB entry, then stack-shift the
  // loaded object into the object space (§2.3).
  ++stats.misses;
  VLSIP_REQUIRE(library_.contains(id) ||
                    id < program.library.size(),
                "requested object exists nowhere");
  const std::uint64_t load_done =
      now + static_cast<std::uint64_t>(library_.load_latency());
  stats.miss_wait_cycles += library_.load_latency();

  std::uint64_t t = load_done;
  if (space_.full()) {
    const arch::ObjectId victim = space_.evict_bottom();
    ++stats.evictions;
    // Write-back policy (§2.5): the replaced object's logical state is
    // stored back to the library, through the scheduling table — the
    // pipeline proceeds as soon as a write-back port accepts the victim
    // and stalls only when every port is draining.
    const bool dirty = !dirty_probe_ || dirty_probe_(victim);
    if (dirty && library_.contains(victim)) {
      const std::uint64_t proceed =
          scheduler_.schedule_write_back(victim, t);
      stats.write_back_stalls += proceed - t;
      t = proceed;
      library_.write_back(victim);
      ++stats.write_backs;
    }
    wsrf_.erase(victim);
    // The victim's chains go *dormant* (their routes are released at the
    // next refresh); if the object later re-enters via a fault, the
    // network re-resolves them — §2.6.2's re-request behaviour.
    t += 1;
    if (trace_) {
      trace_->event(t, obs::Layer::kAp, "pipeline", victim,
                    "evicted object " + std::to_string(victim));
    }
  }
  chains_.shift_prefix(space_.size());
  space_.insert_top(id);
  ++stats.stack_inserts;
  t += 1;  // the stack shift entering the loaded object
  wsrf_.insert(id);
  if (trace_) {
    trace_->event(t, obs::Layer::kAp, "pipeline", id,
                  "entered object " + std::to_string(id));
  }
  return t;
}

ConfigStats ConfigurationPipeline::configure(const arch::Program& program) {
  ConfigStats stats;
  // Reservation-table pipeline: per-stage "free at" cycles. PU/RF/RE are
  // single-cycle pass-through stages; REQ and ACQ have variable
  // occupancy (miss handling, chaining handshake).
  std::uint64_t pu_free = 0;
  std::uint64_t rf_free = 0;
  std::uint64_t re_free = 0;
  std::uint64_t req_free = 0;
  std::uint64_t acq_free = 0;

  for (const auto& element : program.stream.elements()) {
    ++stats.elements;
    const std::uint64_t pu = pu_free;
    pu_free = pu + 1;
    const std::uint64_t rf = std::max(pu + 1, rf_free);
    rf_free = rf + 1;
    const std::uint64_t re = std::max(rf + 1, re_free);
    re_free = re + 1;

    // Request stage: sink first, then sources (§2.3: necessary resources
    // are searched; misses are inserted at this stage).
    std::uint64_t req = std::max(re + 1, req_free);
    // CFB concurrency: group the element's misses; up to cfb_entries
    // loads overlap, so charge ceil(misses / cfb) load rounds. We model
    // it by letting ensure_resident serialise and then discounting the
    // overlapped portion below.
    const std::uint64_t req_begin = req;
    int miss_count = 0;
    // The order ConfigElement::referenced() gives, without building it.
    const auto request = [&](arch::ObjectId id) {
      if (id == arch::kNoObject) return;
      if (!space_.contains(id)) ++miss_count;
      req = ensure_resident(program, id, req, stats);
    };
    request(element.sink);
    for (const auto src : element.sources) request(src);
    // Overlap discount: (misses beyond the first, within one CFB round)
    // hide their load latency behind the first load.
    if (miss_count > 1) {
      const int overlapped =
          std::min(miss_count, config_.cfb_entries) - 1;
      const auto discount = static_cast<std::uint64_t>(overlapped) *
                            static_cast<std::uint64_t>(
                                library_.load_latency());
      const std::uint64_t span = req - req_begin;
      req -= std::min(discount, span);
    }
    req_free = req;

    // Acquirement stage: add this element's chains, re-resolve routes,
    // charge the parallel CSD handshakes (channels operate
    // independently, so the slowest chain dominates).
    const std::uint64_t acq_start = std::max(req + 1, acq_free);
    std::uint64_t acq = acq_start;
    std::uint64_t worst_handshake = 0;
    for (int s = 0; s < arch::kMaxSources; ++s) {
      const arch::ObjectId src = element.sources[s];
      if (src == arch::kNoObject) continue;
      chains_.add(src, element.sink, s);
      const auto sp = space_.find(src);
      const auto dp = space_.find(element.sink);
      if (sp && dp && *sp != *dp) {
        worst_handshake = std::max(
            worst_handshake, csd::DynamicCsdNetwork::handshake_latency(
                                 static_cast<csd::Position>(*sp),
                                 static_cast<csd::Position>(*dp)));
      }
    }
    stats.route_failures += chains_.refresh();
    // Pin the chained objects' WSRF entries. Inserts can fail when every
    // register holds an active entry (a working set larger than the
    // WSRF); those objects fall back to array search on re-request —
    // already charged via array_search_penalty.
    if (wsrf_.insert(element.sink)) {
      wsrf_.set_active(element.sink, true);
    }
    for (int s = 0; s < arch::kMaxSources; ++s) {
      if (element.sources[s] == arch::kNoObject) continue;
      if (wsrf_.insert(element.sources[s])) {
        wsrf_.set_active(element.sources[s], true);
      }
    }
    acq += worst_handshake;
    stats.acquire_handshake_cycles += worst_handshake;
    acq_free = acq + 1;
    stats.cycles = acq + 1;

    if (config_.record_timeline) {
      stats.timeline.push_back(
          ElementTiming{pu, rf, re, req_begin, req, acq_start, acq + 1});
    }
  }
  return stats;
}

std::uint64_t ConfigurationPipeline::request_object(
    const arch::Program& program, arch::ObjectId id, ConfigStats& stats) {
  const std::uint64_t done = ensure_resident(program, id, 0, stats);
  stats.route_failures += chains_.refresh();
  return done;
}

void ChainSet::save(snapshot::Writer& w) const {
  w.section("ap.chain_set");
  w.u64(chains_.size());
  for (const auto& c : chains_) {
    w.u32(c.source);
    w.u32(c.sink);
    w.i32(c.operand);
    w.u32(c.route);
  }
  w.u64(rebuilds_);
  w.b(chains_dirty_);
  w.u64(seen_space_version_);
  w.u64(seen_net_version_);
  w.u64(last_failures_);
}

void ChainSet::restore(snapshot::Reader& r) {
  r.section("ap.chain_set");
  chains_.clear();
  const std::uint64_t n = r.count(16);
  chains_.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    Chain c;
    c.source = r.u32();
    c.sink = r.u32();
    c.operand = r.i32();
    c.route = r.u32();
    chains_.push_back(c);
  }
  rebuilds_ = r.u64();
  chains_dirty_ = r.b();
  seen_space_version_ = r.u64();
  seen_net_version_ = r.u64();
  last_failures_ = static_cast<std::size_t>(r.u64());
}

void save_config_stats(snapshot::Writer& w, const ConfigStats& stats) {
  w.section("ap.config_stats");
  w.u64(stats.cycles);
  w.u64(stats.elements);
  w.u64(stats.object_requests);
  w.u64(stats.hits);
  w.u64(stats.misses);
  w.u64(stats.array_searches);
  w.u64(stats.stack_inserts);
  w.u64(stats.promotes);
  w.u64(stats.evictions);
  w.u64(stats.write_backs);
  w.u64(stats.acquire_handshake_cycles);
  w.u64(stats.miss_wait_cycles);
  w.u64(stats.write_back_stalls);
  w.u64(stats.route_failures);
  w.u64(stats.stream_fetch_cycles);
  w.u64(stats.timeline.size());
  for (const auto& t : stats.timeline) {
    w.u64(t.pointer_update);
    w.u64(t.request_fetch);
    w.u64(t.request_evaluation);
    w.u64(t.request_start);
    w.u64(t.request_done);
    w.u64(t.acquire_start);
    w.u64(t.acquire_done);
  }
}

ConfigStats restore_config_stats(snapshot::Reader& r) {
  r.section("ap.config_stats");
  ConfigStats stats;
  stats.cycles = r.u64();
  stats.elements = r.u64();
  stats.object_requests = r.u64();
  stats.hits = r.u64();
  stats.misses = r.u64();
  stats.array_searches = r.u64();
  stats.stack_inserts = r.u64();
  stats.promotes = r.u64();
  stats.evictions = r.u64();
  stats.write_backs = r.u64();
  stats.acquire_handshake_cycles = r.u64();
  stats.miss_wait_cycles = r.u64();
  stats.write_back_stalls = r.u64();
  stats.route_failures = r.u64();
  stats.stream_fetch_cycles = r.u64();
  const std::uint64_t n = r.count(56);
  stats.timeline.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    ElementTiming t;
    t.pointer_update = r.u64();
    t.request_fetch = r.u64();
    t.request_evaluation = r.u64();
    t.request_start = r.u64();
    t.request_done = r.u64();
    t.acquire_start = r.u64();
    t.acquire_done = r.u64();
    stats.timeline.push_back(t);
  }
  return stats;
}

}  // namespace vlsip::ap

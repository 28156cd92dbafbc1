// TraceSink — the structured event store of the observability spine.
//
// Every layer of the simulator records *typed* events: a cycle stamp, a
// duration (0 = instant), the producing layer, a node/cluster/worker id
// and a category, plus a human-readable message. Recording is disabled
// by default and costs one branch per call when off — the discipline
// the executor hot path relies on. count()/contains()/first_cycle_of()/
// render() read only the category and message.
//
// A sink may be capacity-capped: set_capacity(N) turns it into a
// bounded ring that keeps only the N most recent events (oldest are
// evicted and counted in dropped()). Long-running services — the
// runtime/ chip farm in particular — enable this so tracing cannot grow
// memory without bound. Default is unlimited.
//
// Export: write_chrome_trace() renders the event buffer as a
// chrome://tracing "traceEvents" JSON document loadable in Perfetto:
// one track per layer (pid) and per id (tid), complete ("X") events for
// spans and instant ("i") events otherwise.
#pragma once

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>

namespace vlsip::obs {

/// The producing subsystem of an event — the chrome-trace "process".
enum class Layer : std::uint8_t {
  kOther = 0,  // events with no layer tag
  kAp,         // executor / configuration pipeline
  kCsd,        // dynamic channel segmentation network
  kNoc,        // router fabric
  kScaling,    // fuse/split/compaction, state machine
  kRuntime,    // chip farm: admission, batching, health
  kFault,      // injected faults and recoveries
  kCore,       // whole-chip facade
  kNet,        // distributed farm: hub/worker daemon, wire protocol
};

inline constexpr std::size_t kLayerCount = 9;

const char* to_string(Layer layer);

class TraceSink {
 public:
  struct Event {
    std::uint64_t cycle;
    std::string category;
    std::string message;
    /// Span length in cycles; 0 renders as an instant event.
    std::uint64_t dur = 0;
    Layer layer = Layer::kOther;
    /// Node / cluster / worker id; -1 = not tied to one.
    std::int64_t id = -1;
  };

  /// A disabled sink records nothing.
  explicit TraceSink(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Returns to the constructed state: no events, no cap, dropped() 0.
  void reset(bool enabled) {
    enabled_ = enabled;
    capacity_ = 0;
    dropped_ = 0;
    entries_.clear();
  }

  /// Caps the sink at `max_entries` (0 = unlimited, the default).
  /// When full, recording evicts the oldest event. Shrinking below the
  /// current size evicts immediately.
  void set_capacity(std::size_t max_entries);
  std::size_t capacity() const { return capacity_; }

  /// Events evicted by the capacity cap over the sink's lifetime.
  std::uint64_t dropped() const { return dropped_; }

  /// Records one event.
  void event(std::uint64_t cycle, Layer layer, std::string category,
             std::int64_t id, std::string message, std::uint64_t dur = 0);

  const std::deque<Event>& entries() const { return entries_; }

  /// Empties the event buffer. dropped() is a *lifetime* counter and is
  /// deliberately NOT reset: it measures how much history the capacity
  /// cap has cost since construction, so periodic clear()-and-inspect
  /// consumers (the farm's trace scraping, long-soak tests) can still
  /// detect that eviction ever happened. Events discarded by clear()
  /// itself are not counted as dropped — they were surrendered, not
  /// evicted.
  void clear() { entries_.clear(); }

  /// Number of events whose category equals `category`.
  std::size_t count(const std::string& category) const;

  /// True if any event's message contains `needle`.
  bool contains(const std::string& needle) const;

  /// Cycle of the first event whose message contains `needle`;
  /// returns false if none.
  bool first_cycle_of(const std::string& needle,
                      std::uint64_t& cycle_out) const;

  /// Renders "cycle  category  message" lines.
  std::string render() const;

 private:
  bool enabled_;
  std::size_t capacity_ = 0;
  std::uint64_t dropped_ = 0;
  std::deque<Event> entries_;
};

/// Writes the sink's events as a chrome://tracing JSON document
/// (loadable in Perfetto / chrome://tracing). One "process" per layer,
/// one "thread" per event id; events with dur > 0 become complete ("X")
/// events, instants become "i" events. Timestamps are simulator cycles
/// reported as microseconds (1 cycle = 1 us in the viewer).
void write_chrome_trace(const TraceSink& sink, std::ostream& out);

}  // namespace vlsip::obs

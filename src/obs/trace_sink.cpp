#include "obs/trace_sink.hpp"

#include <sstream>

#include "obs/json.hpp"

namespace vlsip::obs {

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kOther: return "other";
    case Layer::kAp: return "ap";
    case Layer::kCsd: return "csd";
    case Layer::kNoc: return "noc";
    case Layer::kScaling: return "scaling";
    case Layer::kRuntime: return "runtime";
    case Layer::kFault: return "fault";
    case Layer::kCore: return "core";
    case Layer::kNet: return "net";
  }
  return "other";
}

void TraceSink::set_capacity(std::size_t max_entries) {
  capacity_ = max_entries;
  while (capacity_ != 0 && entries_.size() > capacity_) {
    entries_.pop_front();
    ++dropped_;
  }
}

void TraceSink::event(std::uint64_t cycle, Layer layer,
                      std::string category, std::int64_t id,
                      std::string message, std::uint64_t dur) {
  if (!enabled_) return;
  if (capacity_ != 0 && entries_.size() == capacity_) {
    entries_.pop_front();
    ++dropped_;
  }
  entries_.push_back(
      Event{cycle, std::move(category), std::move(message), dur, layer, id});
}

std::size_t TraceSink::count(const std::string& category) const {
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (e.category == category) ++n;
  }
  return n;
}

bool TraceSink::contains(const std::string& needle) const {
  for (const auto& e : entries_) {
    if (e.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

bool TraceSink::first_cycle_of(const std::string& needle,
                               std::uint64_t& cycle_out) const {
  for (const auto& e : entries_) {
    if (e.message.find(needle) != std::string::npos) {
      cycle_out = e.cycle;
      return true;
    }
  }
  return false;
}

std::string TraceSink::render() const {
  std::ostringstream out;
  for (const auto& e : entries_) {
    out << e.cycle << "\t" << e.category << "\t" << e.message << "\n";
  }
  return out.str();
}

void write_chrome_trace(const TraceSink& sink, std::ostream& out) {
  JsonWriter w(out);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  // Name each layer's track so Perfetto shows "ap", "csd", ... instead
  // of bare pids.
  bool layer_seen[kLayerCount] = {};
  for (const auto& e : sink.entries()) {
    layer_seen[static_cast<std::size_t>(e.layer)] = true;
  }
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    if (!layer_seen[l]) continue;
    w.begin_object();
    w.field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", l);
    w.key("args");
    w.begin_object();
    w.field("name", to_string(static_cast<Layer>(l)));
    w.end_object();
    w.end_object();
  }
  for (const auto& e : sink.entries()) {
    w.begin_object();
    w.field("name", e.category);
    w.field("cat", to_string(e.layer));
    w.field("ph", e.dur > 0 ? "X" : "i");
    w.field("ts", e.cycle);
    if (e.dur > 0) {
      w.field("dur", e.dur);
    } else {
      w.field("s", "t");  // instant scope: thread
    }
    w.field("pid", static_cast<std::uint64_t>(e.layer));
    w.field("tid", e.id < 0 ? std::int64_t{0} : e.id);
    if (!e.message.empty()) {
      w.key("args");
      w.begin_object();
      w.field("message", e.message);
      if (e.id >= 0) w.field("id", e.id);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.key("otherData");
  w.begin_object();
  w.field("schema_version", kJsonSchemaVersion);
  w.end_object();
  w.end_object();
  out << "\n";
}

}  // namespace vlsip::obs

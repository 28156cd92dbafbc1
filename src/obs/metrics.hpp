// MetricRegistry + QuantileSketch — the named-metric half of the
// observability spine.
//
// A MetricRegistry holds named counters, gauges, fixed-bucket
// histograms (vlsip::Histogram) and quantile sketches. Names are
// dot-separated ("ap.csd.grants", "farm.latency") and interned once in a
// process-wide table; the registry stores values by the dense MetricId.
// Registries merge exactly (parallel reduction across farm workers) and
// export deterministically (names sorted at export), so the same run
// always produces the same JSON.
//
// QuantileSketch replaces the runtime layer's bespoke
// keep-every-sample percentile store: a bounded reservoir backed by a
// base-2 log histogram. Below the reservoir capacity every sample is
// kept and quantiles are *exact* — the regime every test operates in,
// so p50/p95/p99 are unchanged to the last bit. Past capacity the
// reservoir downsamples deterministically (seeded splitmix64, no
// global RNG) and quantiles come from the log histogram with linear
// interpolation inside the bucket, bounding memory for
// million-job serving runs where the old store grew without limit.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace vlsip::obs {

class JsonWriter;

class QuantileSketch {
 public:
  /// `capacity` bounds the reservoir (and the exact regime).
  explicit QuantileSketch(std::size_t capacity = 4096);

  void add(double x);

  /// Deterministic reduction of another sketch into this one. Exact
  /// when the combined count fits the reservoir; a bounded-memory
  /// approximation past it.
  void merge(const QuantileSketch& other);

  std::uint64_t count() const { return n_; }
  /// True while every sample is still held (quantiles are exact).
  bool exact() const { return n_ <= reservoir_.size(); }
  double min() const { return summary_.min(); }
  double max() const { return summary_.max(); }
  double mean() const { return summary_.mean(); }
  const RunningStats& summary() const { return summary_; }

  /// q in [0,1]; 0 for an empty sketch. Exact order statistics while
  /// exact(), log-histogram interpolation afterwards.
  double quantile(double q) const;

 private:
  void reservoir_add(double x);
  std::size_t log_bucket(double x) const;

  std::size_t capacity_;
  std::uint64_t n_ = 0;
  std::vector<double> reservoir_;
  RunningStats summary_;
  /// Base-2 log histogram over |x|: bucket b covers [2^(b-1), 2^b) for
  /// b >= 1, bucket 0 covers [0, 1). Negative samples clamp to 0 —
  /// latencies and cycle counts are non-negative.
  std::vector<std::uint64_t> log_counts_;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;  // deterministic splitmix64
};

/// Dense process-wide id of a metric name; see metric_id().
enum class MetricId : std::uint32_t {};

/// Interns `name` in the process-wide name table and returns its id.
/// The table is append-only and thread-safe: a name keeps its id for
/// the life of the process, and ids are dense from 0 in first-intern
/// order. Exporters resolve their fixed name sets once (function-local
/// static tables) and publish by id, so no string is built or compared
/// per publish.
MetricId metric_id(std::string_view name);

/// The name `id` was interned from. The reference stays valid for the
/// life of the process.
const std::string& metric_name(MetricId id);

/// Named counters / gauges / histograms / sketches, stored by MetricId.
/// Names stay the interface: the string overloads intern and then
/// index, and export sorts by name. Lookup returns a stable reference
/// (values never move, later inserts included), so hot paths may
/// resolve a metric once and bump the reference.
class MetricRegistry {
 public:
  /// Monotonic event count. Created at zero on first lookup.
  std::uint64_t& counter(MetricId id) { return counters_.get(id); }
  std::uint64_t& counter(const std::string& name) {
    return counter(metric_id(name));
  }

  /// Point-in-time value. Created at zero on first lookup.
  double& gauge(MetricId id) { return gauges_.get(id); }
  double& gauge(const std::string& name) { return gauge(metric_id(name)); }

  /// Fixed-bucket histogram; the shape is fixed by the first lookup
  /// (later lookups ignore lo/hi/buckets).
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t buckets);

  /// Quantile sketch (latency-style distributions).
  QuantileSketch& sketch(const std::string& name);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() &&
           sketches_.empty();
  }

  /// Exchanges contents without touching the heap (std::swap would
  /// move-construct a temporary, and a moved-from deque allocates).
  void swap(MetricRegistry& other) noexcept {
    counters_.swap(other.counters_);
    gauges_.swap(other.gauges_);
    histograms_.swap(other.histograms_);
    sketches_.swap(other.sketches_);
  }

  /// Exact parallel reduction: counters add, gauges take the other's
  /// value (last writer wins), histograms and sketches merge.
  void merge(const MetricRegistry& other);

  /// Writes {"counters":{...},"gauges":{...},"histograms":{...},
  /// "sketches":{...}} as one JSON object, names sorted.
  void write_json(JsonWriter& w) const;

  /// Name-sorted copies (tests and reports look metrics up by name).
  std::map<std::string, std::uint64_t> counters() const;
  std::map<std::string, double> gauges() const;

 private:
  /// Values of one metric kind by id. ids_ and values_ are parallel in
  /// insertion order; slot_ maps an id to 1 + its position (0 = absent).
  /// A deque never moves its elements on push_back, which is what keeps
  /// returned references valid.
  template <typename T>
  class Table {
   public:
    T* find(MetricId id) {
      const auto i = static_cast<std::size_t>(id);
      if (i >= slot_.size() || slot_[i] == 0) return nullptr;
      return &values_[slot_[i] - 1];
    }
    template <typename... Args>
    T& get(MetricId id, Args&&... args) {
      if (T* v = find(id)) return *v;
      const auto i = static_cast<std::size_t>(id);
      if (i >= slot_.size()) slot_.resize(i + 1, 0);
      values_.emplace_back(std::forward<Args>(args)...);
      ids_.push_back(id);
      slot_[i] = static_cast<std::uint32_t>(values_.size());
      return values_.back();
    }
    bool empty() const { return ids_.empty(); }
    std::size_t size() const { return ids_.size(); }
    MetricId id_at(std::size_t k) const { return ids_[k]; }
    const T& value_at(std::size_t k) const { return values_[k]; }
    void swap(Table& other) noexcept {
      slot_.swap(other.slot_);
      ids_.swap(other.ids_);
      values_.swap(other.values_);
    }

   private:
    std::vector<std::uint32_t> slot_;
    std::vector<MetricId> ids_;
    std::deque<T> values_;
  };

  Table<std::uint64_t> counters_;
  Table<double> gauges_;
  Table<Histogram> histograms_;
  Table<QuantileSketch> sketches_;
};

}  // namespace vlsip::obs

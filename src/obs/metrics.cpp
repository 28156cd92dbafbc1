#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "obs/json.hpp"

namespace vlsip::obs {

namespace {

/// splitmix64 — deterministic, seedless-per-process, good enough for
/// reservoir downsampling.
std::uint64_t next_rand(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

QuantileSketch::QuantileSketch(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), log_counts_(64, 0) {
  reservoir_.reserve(std::min<std::size_t>(capacity_, 64));
}

std::size_t QuantileSketch::log_bucket(double x) const {
  if (!(x > 0.0)) return 0;
  int exp = 0;
  std::frexp(x, &exp);  // x = m * 2^exp, m in [0.5, 1)
  if (exp <= 0) return 0;
  return std::min<std::size_t>(static_cast<std::size_t>(exp),
                               log_counts_.size() - 1);
}

void QuantileSketch::reservoir_add(double x) {
  if (reservoir_.size() < capacity_) {
    reservoir_.push_back(x);
    return;
  }
  // Algorithm R: element n (1-based) survives with probability cap/n.
  const std::uint64_t j = next_rand(rng_) % n_;
  if (j < capacity_) reservoir_[static_cast<std::size_t>(j)] = x;
}

void QuantileSketch::add(double x) {
  ++n_;
  summary_.add(x);
  ++log_counts_[log_bucket(x)];
  reservoir_add(x);
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.n_ == 0) return;
  summary_.merge(other.summary_);
  for (std::size_t i = 0; i < log_counts_.size(); ++i) {
    log_counts_[i] += other.log_counts_[i];
  }
  if (other.exact() && n_ + other.n_ <= capacity_) {
    // Both sides still hold every sample: concatenation stays exact.
    reservoir_.insert(reservoir_.end(), other.reservoir_.begin(),
                      other.reservoir_.end());
    n_ += other.n_;
    return;
  }
  // Approximate: stream the other reservoir through algorithm R. Each
  // retained sample stands for other.n_ / other.reservoir_.size()
  // originals, so bump n_ accordingly between inserts.
  const std::uint64_t per_sample =
      other.n_ / static_cast<std::uint64_t>(other.reservoir_.size());
  for (const double x : other.reservoir_) {
    n_ += std::max<std::uint64_t>(1, per_sample);
    reservoir_add(x);
  }
  // Account for the remainder lost to integer division.
  const std::uint64_t streamed =
      std::max<std::uint64_t>(1, per_sample) *
      static_cast<std::uint64_t>(other.reservoir_.size());
  if (other.n_ > streamed) n_ += other.n_ - streamed;
}

double QuantileSketch::quantile(double q) const {
  if (n_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (exact() || !reservoir_.empty()) {
    // Exact regime keeps every sample; past it the reservoir is still
    // the better estimator for mid-range quantiles, but tails are
    // cross-checked against the log histogram below.
    std::vector<double> sorted(reservoir_);
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    const double est = sorted[lo] + frac * (sorted[hi] - sorted[lo]);
    if (exact()) return est;
    // Clamp the reservoir estimate into the log-histogram bucket that
    // actually contains the q-th sample, so a sparse reservoir cannot
    // wander outside the true distribution's support.
    const double target = q * static_cast<double>(n_);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < log_counts_.size(); ++b) {
      cum += log_counts_[b];
      if (static_cast<double>(cum) >= target) {
        const double b_lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
        const double b_hi = std::ldexp(1.0, static_cast<int>(b));
        return std::clamp(est, b_lo, b_hi);
      }
    }
    return est;
  }
  return summary_.max();
}

namespace {

/// The process-wide name table behind metric_id(). Names live in a
/// deque (stable addresses), and the index keys views into it.
struct NameTable {
  std::shared_mutex mutex;
  std::deque<std::string> names;
  std::unordered_map<std::string_view, MetricId> ids;
};

NameTable& name_table() {
  static NameTable table;
  return table;
}

/// Positions of `table`'s entries, ordered by metric name.
template <typename Table>
std::vector<std::size_t> by_name(const Table& table) {
  std::vector<std::pair<const std::string*, std::size_t>> named;
  named.reserve(table.size());
  for (std::size_t k = 0; k < table.size(); ++k) {
    named.emplace_back(&metric_name(table.id_at(k)), k);
  }
  std::sort(named.begin(), named.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  std::vector<std::size_t> order;
  order.reserve(named.size());
  for (const auto& entry : named) order.push_back(entry.second);
  return order;
}

}  // namespace

MetricId metric_id(std::string_view name) {
  NameTable& table = name_table();
  {
    std::shared_lock<std::shared_mutex> lock(table.mutex);
    const auto it = table.ids.find(name);
    if (it != table.ids.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(table.mutex);
  const auto it = table.ids.find(name);
  if (it != table.ids.end()) return it->second;  // raced another interner
  const auto id = static_cast<MetricId>(table.names.size());
  table.names.emplace_back(name);
  table.ids.emplace(table.names.back(), id);
  return id;
}

const std::string& metric_name(MetricId id) {
  NameTable& table = name_table();
  std::shared_lock<std::shared_mutex> lock(table.mutex);
  return table.names.at(static_cast<std::size_t>(id));
}

Histogram& MetricRegistry::histogram(const std::string& name, double lo,
                                     double hi, std::size_t buckets) {
  return histograms_.get(metric_id(name), lo, hi, buckets);
}

QuantileSketch& MetricRegistry::sketch(const std::string& name) {
  return sketches_.get(metric_id(name));
}

void MetricRegistry::merge(const MetricRegistry& other) {
  for (std::size_t k = 0; k < other.counters_.size(); ++k) {
    counters_.get(other.counters_.id_at(k)) += other.counters_.value_at(k);
  }
  for (std::size_t k = 0; k < other.gauges_.size(); ++k) {
    gauges_.get(other.gauges_.id_at(k)) = other.gauges_.value_at(k);
  }
  for (std::size_t k = 0; k < other.histograms_.size(); ++k) {
    const MetricId id = other.histograms_.id_at(k);
    const Histogram& h = other.histograms_.value_at(k);
    if (Histogram* mine = histograms_.find(id)) {
      mine->merge(h);
    } else {
      histograms_.get(id, h);
    }
  }
  for (std::size_t k = 0; k < other.sketches_.size(); ++k) {
    const MetricId id = other.sketches_.id_at(k);
    const QuantileSketch& s = other.sketches_.value_at(k);
    if (QuantileSketch* mine = sketches_.find(id)) {
      mine->merge(s);
    } else {
      sketches_.get(id, s);
    }
  }
}

std::map<std::string, std::uint64_t> MetricRegistry::counters() const {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t k = 0; k < counters_.size(); ++k) {
    out.emplace(metric_name(counters_.id_at(k)), counters_.value_at(k));
  }
  return out;
}

std::map<std::string, double> MetricRegistry::gauges() const {
  std::map<std::string, double> out;
  for (std::size_t k = 0; k < gauges_.size(); ++k) {
    out.emplace(metric_name(gauges_.id_at(k)), gauges_.value_at(k));
  }
  return out;
}

void MetricRegistry::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const std::size_t k : by_name(counters_)) {
    w.field(metric_name(counters_.id_at(k)), counters_.value_at(k));
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const std::size_t k : by_name(gauges_)) {
    w.field(metric_name(gauges_.id_at(k)), gauges_.value_at(k));
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const std::size_t k : by_name(histograms_)) {
    const Histogram& h = histograms_.value_at(k);
    w.key(metric_name(histograms_.id_at(k)));
    w.begin_object();
    w.field("lo", h.bucket_lo(0));
    w.field("hi", h.bucket_hi(h.bucket_count() - 1));
    w.field("total", h.total());
    w.key("counts");
    w.begin_array();
    for (std::size_t i = 0; i < h.bucket_count(); ++i) w.value(h.bucket(i));
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.key("sketches");
  w.begin_object();
  for (const std::size_t k : by_name(sketches_)) {
    const QuantileSketch& s = sketches_.value_at(k);
    w.key(metric_name(sketches_.id_at(k)));
    w.begin_object();
    w.field("count", s.count());
    w.field("exact", s.exact());
    w.field("min", s.count() ? s.min() : 0.0);
    w.field("max", s.count() ? s.max() : 0.0);
    w.field("mean", s.mean());
    w.field("p50", s.quantile(0.50));
    w.field("p95", s.quantile(0.95));
    w.field("p99", s.quantile(0.99));
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace vlsip::obs

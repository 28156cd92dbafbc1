// Tests for the observability spine: the streaming JSON writer, the
// metric registry + quantile sketch, the structured trace sink with its
// chrome-trace exporter, and the ObsSnapshot bundle.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/require.hpp"
#include "common/stats.hpp"
#include "obs/farm_metrics.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace_sink.hpp"
#include "scaling/job.hpp"

namespace vlsip::obs {
namespace {

// ---- JsonWriter --------------------------------------------------------

TEST(JsonWriter, ObjectsArraysAndCommas) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.field("a", 1);
  w.field("b", std::string("x"));
  w.key("list");
  w.begin_array();
  w.value(std::uint64_t{10});
  w.value(std::int64_t{-3});
  w.value(true);
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.depth(), 0u);
  EXPECT_EQ(out.str(), "{\"a\":1,\"b\":\"x\",\"list\":[10,-3,true],"
                       "\"nested\":{}}");
}

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.field("k\"ey", "v\nal");
  w.end_object();
  EXPECT_EQ(out.str(), "{\"k\\\"ey\":\"v\\nal\"}");
}

TEST(JsonWriter, DoubleUsesStreamDefaultFormatting) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_array();
  w.value(0.5);
  w.value(160.0);
  w.end_array();
  EXPECT_EQ(out.str(), "[0.5,160]");
}

TEST(JsonWriter, RawSplicesVerbatim) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.key("pre");
  w.raw("{\"rendered\":true}");
  w.field("post", 2);
  w.end_object();
  EXPECT_EQ(out.str(), "{\"pre\":{\"rendered\":true},\"post\":2}");
}

TEST(JsonWriter, MisuseThrows) {
  std::ostringstream out;
  JsonWriter w(out);
  EXPECT_THROW(w.end_object(), PreconditionError);
  w.begin_object();
  w.key("a");
  EXPECT_THROW(w.key("b"), PreconditionError);   // two keys in a row
  EXPECT_THROW(w.end_object(), PreconditionError);  // dangling key
}

// ---- QuantileSketch ----------------------------------------------------

TEST(QuantileSketch, ExactBelowCapacity) {
  QuantileSketch s(128);
  std::vector<double> samples;
  for (int i = 100; i > 0; --i) {
    s.add(static_cast<double>(i));
    samples.push_back(static_cast<double>(i));
  }
  ASSERT_TRUE(s.exact());
  for (const double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(s.quantile(q), percentile(samples, q)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(QuantileSketch, EmptyIsZero) {
  QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

TEST(QuantileSketch, DeterministicPastCapacity) {
  QuantileSketch a(64), b(64);
  for (int i = 0; i < 10000; ++i) {
    const double x = static_cast<double>((i * 37) % 1000);
    a.add(x);
    b.add(x);
  }
  EXPECT_FALSE(a.exact());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
    // Past capacity the estimate must still land inside the data range.
    EXPECT_GE(a.quantile(q), 0.0);
    EXPECT_LE(a.quantile(q), 1000.0);
  }
}

TEST(QuantileSketch, MergeExactUnderCapacity) {
  QuantileSketch a(256), b(256);
  std::vector<double> all;
  for (int i = 0; i < 50; ++i) {
    const double x = static_cast<double>(i * 3 + 1);
    (i % 2 ? a : b).add(x);
    all.push_back(x);
  }
  a.merge(b);
  ASSERT_TRUE(a.exact());
  EXPECT_EQ(a.count(), 50u);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), percentile(all, 0.5));
  EXPECT_DOUBLE_EQ(a.quantile(0.95), percentile(all, 0.95));
}

// ---- MetricRegistry ----------------------------------------------------

TEST(MetricRegistry, StableReferencesAccumulate) {
  MetricRegistry r;
  std::uint64_t& hits = r.counter("csd.grants");
  hits += 3;
  r.counter("csd.grants") += 2;
  EXPECT_EQ(r.counters().at("csd.grants"), 5u);
  r.gauge("noc.queued") = 7.5;
  EXPECT_DOUBLE_EQ(r.gauges().at("noc.queued"), 7.5);
}

TEST(MetricRegistry, MergeSemantics) {
  MetricRegistry a, b;
  a.counter("x") = 2;
  b.counter("x") = 3;
  b.counter("only_b") = 1;
  a.gauge("g") = 1.0;
  b.gauge("g") = 9.0;
  a.sketch("lat").add(10.0);
  b.sketch("lat").add(20.0);
  a.merge(b);
  EXPECT_EQ(a.counters().at("x"), 5u);       // counters add
  EXPECT_EQ(a.counters().at("only_b"), 1u);  // missing keys created
  EXPECT_DOUBLE_EQ(a.gauges().at("g"), 9.0);  // gauges: last writer wins
  EXPECT_EQ(a.sketch("lat").count(), 2u);     // sketches merge
  EXPECT_DOUBLE_EQ(a.sketch("lat").quantile(1.0), 20.0);
}

TEST(MetricRegistry, JsonIsSortedAndDeterministic) {
  MetricRegistry r;
  r.counter("zeta") = 1;
  r.counter("alpha") = 2;
  r.gauge("mid") = 0.5;
  std::ostringstream out;
  JsonWriter w(out);
  r.write_json(w);
  const auto json = out.str();
  EXPECT_NE(json.find("\"counters\":{\"alpha\":2,\"zeta\":1}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gauges\":{\"mid\":0.5}"), std::string::npos);
  // Same registry renders byte-identically.
  std::ostringstream again;
  JsonWriter w2(again);
  r.write_json(w2);
  EXPECT_EQ(json, again.str());
}

TEST(MetricRegistry, NameTableIsDenseAndStable) {
  const MetricId a = metric_id("test.name_table.a");
  const MetricId b = metric_id("test.name_table.b");
  EXPECT_EQ(static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(a) + 1);
  EXPECT_EQ(metric_id("test.name_table.a"), a);
  EXPECT_EQ(metric_name(a), "test.name_table.a");
  MetricRegistry r;
  r.counter(a) += 4;
  r.counter("test.name_table.a") += 1;  // string and id reach one value
  EXPECT_EQ(r.counters().at("test.name_table.a"), 5u);
}

/// The registry as it was before ids: four string-keyed maps. The
/// property test drives it and the id-keyed registry with the same
/// random operations.
struct MapRegistry {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;
  std::map<std::string, QuantileSketch> sketches;

  void merge(const MapRegistry& other) {
    for (const auto& [name, v] : other.counters) counters[name] += v;
    for (const auto& [name, v] : other.gauges) gauges[name] = v;
    for (const auto& [name, h] : other.histograms) {
      const auto it = histograms.find(name);
      if (it == histograms.end()) {
        histograms.emplace(name, h);
      } else {
        it->second.merge(h);
      }
    }
    for (const auto& [name, q] : other.sketches) {
      const auto it = sketches.find(name);
      if (it == sketches.end()) {
        sketches.emplace(name, q);
      } else {
        it->second.merge(q);
      }
    }
  }

  std::string json() const {
    std::ostringstream out;
    JsonWriter w(out);
    w.begin_object();
    w.key("counters");
    w.begin_object();
    for (const auto& [name, v] : counters) w.field(name, v);
    w.end_object();
    w.key("gauges");
    w.begin_object();
    for (const auto& [name, v] : gauges) w.field(name, v);
    w.end_object();
    w.key("histograms");
    w.begin_object();
    for (const auto& [name, h] : histograms) {
      w.key(name);
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
    for (const auto& [name, q] : sketches) {
      w.key(name);
      w.begin_object();
      w.field("count", q.count());
      w.field("exact", q.exact());
      w.field("min", q.count() ? q.min() : 0.0);
      w.field("max", q.count() ? q.max() : 0.0);
      w.field("mean", q.mean());
      w.field("p50", q.quantile(0.50));
      w.field("p95", q.quantile(0.95));
      w.field("p99", q.quantile(0.99));
      w.end_object();
    }
    w.end_object();
    w.end_object();
    return out.str();
  }
};

std::string registry_json(const MetricRegistry& r) {
  std::ostringstream out;
  JsonWriter w(out);
  r.write_json(w);
  return out.str();
}

TEST(MetricRegistry, MatchesStringKeyedReferenceUnderRandomOps) {
  std::uint64_t rng = 0x5EEDu;
  const auto next = [&rng](std::uint64_t bound) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % bound;
  };
  // Names unique to this test, interned in first-use (random) order so
  // id order and name order disagree, plus names the chip exporters use.
  std::vector<std::string> names;
  for (int i = 0; i < 24; ++i) names.push_back("prop." + std::to_string(i));
  names.push_back("ap.exec.cycles");
  names.push_back("scaling.live_processors");
  names.push_back("csd.grants");

  for (int seed = 0; seed < 20; ++seed) {
    MetricRegistry reg[2];
    MapRegistry ref[2];
    // References taken before any other insert must survive all later
    // inserts and merges.
    std::uint64_t& early_counter = reg[0].counter("prop.early.counter");
    double& early_gauge = reg[0].gauge(metric_id("prop.early.gauge"));
    QuantileSketch& early_sketch = reg[0].sketch("prop.early.sketch");
    ref[0].counters["prop.early.counter"];
    ref[0].gauges["prop.early.gauge"];
    ref[0].sketches.emplace("prop.early.sketch", QuantileSketch());

    for (int op = 0; op < 400; ++op) {
      const std::size_t side = next(2);
      const std::string& name = names[next(names.size())];
      const bool by_id = next(2) == 0;
      switch (next(8)) {
        case 0:
        case 1: {
          const std::uint64_t v = next(1000);
          (by_id ? reg[side].counter(metric_id(name))
                 : reg[side].counter(name)) += v;
          ref[side].counters[name] += v;
          break;
        }
        case 2: {
          const double v = static_cast<double>(next(1 << 20)) / 64.0;
          (by_id ? reg[side].gauge(metric_id(name)) : reg[side].gauge(name)) =
              v;
          ref[side].gauges[name] = v;
          break;
        }
        case 3: {
          const double x = static_cast<double>(next(120));
          reg[side].histogram(name, 0.0, 100.0, 10).add(x);
          ref[side]
              .histograms.try_emplace(name, Histogram(0.0, 100.0, 10))
              .first->second.add(x);
          break;
        }
        case 4: {
          const double x = static_cast<double>(next(5000));
          reg[side].sketch(name).add(x);
          ref[side].sketches.try_emplace(name).first->second.add(x);
          break;
        }
        case 5: {
          const std::uint64_t v = next(50);
          early_counter += v;
          ref[0].counters["prop.early.counter"] += v;
          early_gauge = static_cast<double>(op);
          ref[0].gauges["prop.early.gauge"] = static_cast<double>(op);
          early_sketch.add(static_cast<double>(v));
          ref[0].sketches.at("prop.early.sketch").add(static_cast<double>(v));
          break;
        }
        case 6:
          if (next(4) == 0) {
            reg[side].merge(reg[1 - side]);
            ref[side].merge(ref[1 - side]);
          }
          break;
        default:
          if (next(8) == 0) {
            // A fresh registry on side 1 (side 0 holds the early refs).
            reg[1] = MetricRegistry();
            ref[1] = MapRegistry();
          }
          break;
      }
    }
    EXPECT_EQ(&reg[0].counter("prop.early.counter"), &early_counter);
    EXPECT_EQ(&reg[0].gauge("prop.early.gauge"), &early_gauge);
    EXPECT_EQ(&reg[0].sketch("prop.early.sketch"), &early_sketch);
    for (int side = 0; side < 2; ++side) {
      EXPECT_EQ(registry_json(reg[side]), ref[side].json())
          << "seed " << seed << " side " << side;
      EXPECT_EQ(reg[side].counters(), ref[side].counters);
      EXPECT_EQ(reg[side].gauges(), ref[side].gauges);
    }
  }
}

// ---- TraceSink ---------------------------------------------------------

TEST(TraceSink, DisabledRecordsNothing) {
  TraceSink sink(false);
  sink.event(1, Layer::kAp, "exec", 0, "fired");
  sink.event(2, Layer::kOther, "exec", -1, "untyped");
  EXPECT_TRUE(sink.entries().empty());
}

TEST(TraceSink, StructuredAndLegacyEvents) {
  TraceSink sink(true);
  sink.event(10, Layer::kCsd, "route", 4, "grant", 3);
  sink.event(11, Layer::kOther, "exec", -1, "fired");
  ASSERT_EQ(sink.entries().size(), 2u);
  const TraceSink::Event& e = sink.entries().front();
  EXPECT_EQ(e.cycle, 10u);
  EXPECT_EQ(e.layer, Layer::kCsd);
  EXPECT_EQ(e.id, 4);
  EXPECT_EQ(e.dur, 3u);
  // An untyped instant: no layer, no id, no duration.
  EXPECT_EQ(sink.entries().back().layer, Layer::kOther);
  EXPECT_EQ(sink.entries().back().id, -1);
  EXPECT_EQ(sink.entries().back().dur, 0u);
  EXPECT_EQ(sink.count("route"), 1u);
  EXPECT_TRUE(sink.contains("grant"));
  std::uint64_t cycle = 0;
  EXPECT_TRUE(sink.first_cycle_of("fired", cycle));
  EXPECT_EQ(cycle, 11u);
  EXPECT_NE(sink.render().find("grant"), std::string::npos);
}

TEST(TraceSink, CapacityRingAndLifetimeDropCounter) {
  TraceSink sink(true);
  sink.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    sink.event(static_cast<std::uint64_t>(i), Layer::kOther, "c", -1,
               std::to_string(i));
  }
  ASSERT_EQ(sink.entries().size(), 3u);
  EXPECT_EQ(sink.entries().front().message, "2");  // oldest evicted
  EXPECT_EQ(sink.dropped(), 2u);
  sink.clear();
  EXPECT_TRUE(sink.entries().empty());
  // dropped() is a lifetime counter: clear() must not reset it.
  EXPECT_EQ(sink.dropped(), 2u);
}

TEST(TraceSink, ChromeTraceRendersSpansAndInstants) {
  TraceSink sink(true);
  sink.event(100, Layer::kRuntime, "job", 2, "job 1 completed", 40);
  sink.event(150, Layer::kFault, "inject", -1, "cluster kill");
  std::ostringstream out;
  write_chrome_trace(sink, out);
  const auto json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"dur\":40"), std::string::npos);
  EXPECT_NE(json.find("\"runtime\""), std::string::npos);
  EXPECT_NE(json.find("\"fault\""), std::string::npos);
  // Balanced document: ends as an object (plus trailing newline), no
  // dangling comma.
  const auto last = json.find_last_not_of(" \n");
  ASSERT_NE(last, std::string::npos);
  EXPECT_EQ(json[last], '}');
}

TEST(TraceSink, ChromeTraceOfEmptySinkIsValid) {
  TraceSink sink(false);
  std::ostringstream out;
  write_chrome_trace(sink, out);
  EXPECT_NE(out.str().find("\"traceEvents\":["), std::string::npos);
}

// ---- ObsSnapshot -------------------------------------------------------

TEST(ObsSnapshot, JsonBundlesInfoMetricsAndTrace) {
  ObsSnapshot snap;
  snap.add_info("verb", "test");
  snap.add_info("seed", "42");
  snap.metrics.counter("farm.completed") = 7;
  TraceSink sink(true);
  sink.event(1, Layer::kCore, "boot", -1, "chip up");
  snap.trace = &sink;
  const auto json = snap.to_json();
  EXPECT_NE(json.find("\"info\":{\"verb\":\"test\",\"seed\":\"42\"}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"farm.completed\":7"), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
}

TEST(ObsSnapshot, WritesFiles) {
  ObsSnapshot snap;
  snap.add_info("verb", "test");
  snap.metrics.counter("c") = 1;
  TraceSink sink(true);
  sink.event(5, Layer::kAp, "exec", 0, "fired", 2);
  snap.trace = &sink;
  const std::string obs_path = "test_obs_snapshot.json";
  const std::string trace_path = "test_obs_trace.json";
  ASSERT_TRUE(snap.write_json_file(obs_path));
  ASSERT_TRUE(snap.write_chrome_trace_file(trace_path));
  std::ifstream obs_in(obs_path);
  std::stringstream obs_body;
  obs_body << obs_in.rdbuf();
  EXPECT_NE(obs_body.str().find("\"metrics\""), std::string::npos);
  std::ifstream trace_in(trace_path);
  std::stringstream trace_body;
  trace_body << trace_in.rdbuf();
  EXPECT_NE(trace_body.str().find("\"traceEvents\""), std::string::npos);
  std::remove(obs_path.c_str());
  std::remove(trace_path.c_str());
  EXPECT_FALSE(snap.write_json_file("no/such/dir/x.json"));
}

// ---- FarmMetrics bridge ------------------------------------------------

TEST(FarmMetrics, ExportIntoRegistryUsesFarmNames) {
  FarmMetrics m;
  scaling::JobOutcome o;
  o.status = scaling::JobStatus::kCompleted;
  o.queued_at = 0;
  o.started_at = 10;
  o.finished_at = 110;
  m.submitted = 1;
  m.admitted = 1;
  m.record(o);
  MetricRegistry r;
  m.export_into(r);
  EXPECT_EQ(r.counters().at("farm.submitted"), 1u);
  EXPECT_EQ(r.counters().at("farm.completed"), 1u);
  EXPECT_EQ(r.sketch("farm.latency").count(), 1u);
  EXPECT_DOUBLE_EQ(r.sketch("farm.latency").quantile(0.5), 110.0);
}

}  // namespace
}  // namespace vlsip::obs

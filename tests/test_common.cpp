// Tests for the common utilities: RNG, statistics, tables, events, trace.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/activity_set.hpp"
#include "common/simd.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "obs/trace_sink.hpp"

namespace vlsip {
namespace {

// ---- RNG ------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInBound) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, UniformCoversRange) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformBoundZeroThrows) {
  Xoshiro256 rng(1);
  EXPECT_THROW(rng.uniform(0), PreconditionError);
}

TEST(Rng, UniformRangeInclusive) {
  Xoshiro256 rng(3);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo_seen |= (v == -3);
    hi_seen |= (v == 3);
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Xoshiro256 rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, GeometricMeanMatchesTheory) {
  Xoshiro256 rng(19);
  const double p = 0.25;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric(p));
  // mean = (1-p)/p = 3
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, GeometricPOneIsZero) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, GeometricRejectsBadP) {
  Xoshiro256 rng(29);
  EXPECT_THROW(rng.geometric(0.0), PreconditionError);
  EXPECT_THROW(rng.geometric(1.5), PreconditionError);
}

TEST(Rng, ShufflePreservesElements) {
  Xoshiro256 rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::multiset<int> a(v.begin(), v.end()), b(w.begin(), w.end());
  EXPECT_EQ(a, b);
}

// ---- RunningStats -----------------------------------------------------------

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MeanMinMax) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStats, VarianceMatchesDefinition) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_NEAR(s.variance(), 4.0, 1e-12);  // classic example
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(5.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(RunningStats, MergeBothEmpty) {
  RunningStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(RunningStats, MergeEmptyPreservesMoments) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  a.add(3.0);
  const double mean = a.mean();
  const double var = a.variance();
  a.merge(empty);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  EXPECT_DOUBLE_EQ(a.variance(), var);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

// ---- Histogram ---------------------------------------------------------------

TEST(Histogram, CountsFall) {
  Histogram h(0, 10, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(5.6);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(5), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, OutOfRangeClamped) {
  Histogram h(0, 10, 10);
  h.add(-5);
  h.add(100);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
}

TEST(Histogram, QuantileMedian) {
  Histogram h(0, 100, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
}

TEST(Histogram, EmptyQuantileIsLo) {
  Histogram h(3, 10, 7);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  // The endpoints too: an empty histogram has no mass to bracket.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
}

TEST(Histogram, QuantileEndpointsAndClampedQ) {
  Histogram h(0, 100, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  // q=0 is the range floor; q=1 is the top of the last occupied bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  // Out-of-range q clamps to [0, 1] rather than extrapolating.
  EXPECT_DOUBLE_EQ(h.quantile(-3.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(7.0), h.quantile(1.0));
}

TEST(Histogram, QuantileSingleBucket) {
  // One bucket: every quantile interpolates linearly across [lo, hi).
  Histogram h(0, 10, 1);
  h.add(2.0);
  h.add(7.0);
  h.add(9.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(Histogram, QuantileAllMassClamped) {
  // All samples below lo: clamped into bucket 0, quantiles stay inside
  // that first bucket instead of reporting the (out-of-range) samples.
  Histogram low(0, 10, 10);
  for (int i = 0; i < 4; ++i) low.add(-50.0);
  EXPECT_DOUBLE_EQ(low.quantile(0.5), 0.5);
  EXPECT_DOUBLE_EQ(low.quantile(1.0), 1.0);
  // All samples above hi: clamped into the last bucket.
  Histogram high(0, 10, 10);
  high.add(1e9);
  high.add(1e9);
  EXPECT_DOUBLE_EQ(high.quantile(0.5), 9.5);
  EXPECT_DOUBLE_EQ(high.quantile(1.0), 10.0);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(5, 5, 10), PreconditionError);
  EXPECT_THROW(Histogram(0, 10, 0), PreconditionError);
}

TEST(Histogram, RenderMentionsCounts) {
  Histogram h(0, 2, 2);
  h.add(0.5);
  const auto s = h.render();
  EXPECT_NE(s.find("#"), std::string::npos);
}

// ---- AsciiTable ----------------------------------------------------------------

TEST(AsciiTable, AlignsColumns) {
  AsciiTable t({"a", "longheader"});
  t.add_row({"xxxx", "y"});
  const auto s = t.render();
  EXPECT_NE(s.find("| a    |"), std::string::npos);
  EXPECT_NE(s.find("| xxxx |"), std::string::npos);
}

TEST(AsciiTable, RejectsMismatchedRow) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), PreconditionError);
}

TEST(AsciiTable, SeparatorRendered) {
  AsciiTable t({"a"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const auto s = t.render();
  // header rule + explicit separator = at least two rule lines
  std::size_t rules = 0, pos = 0;
  while ((pos = s.find("|--", pos)) != std::string::npos) {
    ++rules;
    pos += 3;
  }
  EXPECT_GE(rules, 2u);
}

TEST(Format, Pow10Basic) {
  EXPECT_EQ(format_pow10(5.32e8), "5.32 x 10^8");
  EXPECT_EQ(format_pow10(0.0), "0");
  EXPECT_EQ(format_pow10(-1.5e3), "-1.50 x 10^3");
}

TEST(Format, Pow10DecadeBoundary) {
  // 9.999e2 with 1 digit rounds to 10.0 -> must carry to 1.0 x 10^3.
  EXPECT_EQ(format_pow10(9.99e2, 1), "1.0 x 10^3");
}

TEST(Format, SigDigits) {
  EXPECT_EQ(format_sig(3.14159, 3), "3.14");
  EXPECT_EQ(format_sig(1234.5, 2), "1.2e+03");
}

// ---- TraceSink ------------------------------------------------------------------

TEST(Trace, DisabledRecordsNothing) {
  obs::TraceSink t(false);
  t.event(1, obs::Layer::kOther, "cat", -1, "message");
  EXPECT_TRUE(t.entries().empty());
}

TEST(Trace, EnabledRecordsAndCounts) {
  obs::TraceSink t(true);
  t.event(1, obs::Layer::kOther, "a", -1, "first");
  t.event(2, obs::Layer::kOther, "b", -1, "second");
  t.event(3, obs::Layer::kOther, "a", -1, "third");
  EXPECT_EQ(t.count("a"), 2u);
  EXPECT_TRUE(t.contains("second"));
  std::uint64_t cycle = 0;
  EXPECT_TRUE(t.first_cycle_of("third", cycle));
  EXPECT_EQ(cycle, 3u);
  EXPECT_FALSE(t.first_cycle_of("missing", cycle));
}

TEST(Trace, RenderContainsFields) {
  obs::TraceSink t(true);
  t.event(7, obs::Layer::kOther, "cat", -1, "msg");
  const auto s = t.render();
  EXPECT_NE(s.find("7"), std::string::npos);
  EXPECT_NE(s.find("cat"), std::string::npos);
  EXPECT_NE(s.find("msg"), std::string::npos);
}

TEST(Trace, CapacityCapEvictsOldest) {
  obs::TraceSink t(true);
  t.set_capacity(3);
  for (std::uint64_t c = 0; c < 5; ++c) {
    t.event(c, obs::Layer::kOther, "cat", -1, "m" + std::to_string(c));
  }
  ASSERT_EQ(t.entries().size(), 3u);
  EXPECT_EQ(t.dropped(), 2u);
  // The oldest two entries are gone; the newest three survive in order.
  EXPECT_FALSE(t.contains("m0"));
  EXPECT_FALSE(t.contains("m1"));
  EXPECT_EQ(t.entries().front().message, "m2");
  EXPECT_EQ(t.entries().back().message, "m4");
}

TEST(Trace, ShrinkingCapacityEvictsImmediately) {
  obs::TraceSink t(true);
  for (std::uint64_t c = 0; c < 4; ++c) t.event(c, obs::Layer::kOther, "cat", -1, "msg");
  t.set_capacity(2);
  EXPECT_EQ(t.entries().size(), 2u);
  EXPECT_EQ(t.dropped(), 2u);
  EXPECT_EQ(t.entries().front().cycle, 2u);
}

TEST(Trace, ClearEmptiesEntriesButKeepsLifetimeDropCount) {
  // Pinned semantics (see obs/trace_sink.hpp): dropped() counts capacity-cap
  // evictions over the trace's *lifetime*. clear() surrenders the
  // buffered entries without touching that counter — so a consumer
  // that periodically drains the trace can still tell eviction ever
  // happened — and the cleared entries themselves are not "dropped".
  obs::TraceSink t(true);
  t.set_capacity(3);
  for (std::uint64_t c = 0; c < 5; ++c) t.event(c, obs::Layer::kOther, "cat", -1, "msg");
  ASSERT_EQ(t.entries().size(), 3u);
  ASSERT_EQ(t.dropped(), 2u);

  t.clear();
  EXPECT_TRUE(t.entries().empty());
  EXPECT_EQ(t.dropped(), 2u);  // lifetime value survives the clear

  // Recording resumes normally and further evictions keep accumulating
  // on top of the pre-clear count.
  for (std::uint64_t c = 0; c < 4; ++c) t.event(c, obs::Layer::kOther, "cat", -1, "again");
  EXPECT_EQ(t.entries().size(), 3u);
  EXPECT_EQ(t.dropped(), 3u);
}

TEST(Trace, UnlimitedByDefault) {
  obs::TraceSink t(true);
  EXPECT_EQ(t.capacity(), 0u);
  for (std::uint64_t c = 0; c < 100; ++c) t.event(c, obs::Layer::kOther, "cat", -1, "msg");
  EXPECT_EQ(t.entries().size(), 100u);
  EXPECT_EQ(t.dropped(), 0u);
}

// ---- percentile / histogram merge -----------------------------------------------

TEST(Percentile, InterpolatesOrderStatistics) {
  std::vector<double> s{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(s, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(s, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(s, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  // Input order must not matter.
  EXPECT_DOUBLE_EQ(percentile({40.0, 10.0, 30.0, 20.0}, 0.5), 25.0);
}

TEST(Histogram, MergeSumsBuckets) {
  Histogram a(0.0, 10.0, 5);
  Histogram b(0.0, 10.0, 5);
  a.add(1.0);
  a.add(9.0);
  b.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.bucket(0), 2u);
  EXPECT_EQ(a.bucket(4), 1u);
  Histogram mismatched(0.0, 5.0, 5);
  EXPECT_THROW(a.merge(mismatched), PreconditionError);
}

// ---- ActivitySet / WakeQueue ----------------------------------------------

TEST(ActivitySet, InsertEraseDeduplicate) {
  ActivitySet set(100);
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.insert(7));
  EXPECT_FALSE(set.insert(7));  // already present
  EXPECT_TRUE(set.insert(64));  // second word
  EXPECT_EQ(set.count(), 2u);
  EXPECT_TRUE(set.contains(7));
  EXPECT_FALSE(set.contains(8));
  EXPECT_TRUE(set.erase(7));
  EXPECT_FALSE(set.erase(7));
  EXPECT_EQ(set.count(), 1u);
  set.clear();
  EXPECT_TRUE(set.empty());
}

TEST(ActivitySet, FillRespectsNonWordAlignedSize) {
  ActivitySet set(70);  // 64 + 6: tail word must be masked
  set.fill();
  EXPECT_EQ(set.count(), 70u);
  EXPECT_TRUE(set.contains(69));
  std::vector<std::uint32_t> ids;
  set.drain_to(ids);
  ASSERT_EQ(ids.size(), 70u);
  for (std::uint32_t i = 0; i < 70; ++i) EXPECT_EQ(ids[i], i);
  EXPECT_TRUE(set.empty());
}

TEST(ActivitySet, DrainVisitsAscendingAndClears) {
  ActivitySet set(200);
  for (const std::uint32_t id : {190u, 3u, 64u, 63u, 65u}) set.insert(id);
  std::vector<std::uint32_t> seen;
  set.drain_in_order([&](std::uint32_t id) { seen.push_back(id); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{3, 63, 64, 65, 190}));
  EXPECT_TRUE(set.empty());
}

TEST(ActivitySet, DrainSeesInsertsAheadOfCursorOnly) {
  // The dense-scan property: an id inserted mid-drain is visited in the
  // same drain iff it lies strictly ahead of the cursor.
  ActivitySet set(200);
  set.insert(10);
  std::vector<std::uint32_t> seen;
  set.drain_in_order([&](std::uint32_t id) {
    seen.push_back(id);
    if (id == 10) {
      set.insert(5);    // behind: next drain
      set.insert(10);   // at cursor: next drain
      set.insert(11);   // ahead, same word: this drain
      set.insert(130);  // ahead, later word: this drain
    }
  });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{10, 11, 130}));
  EXPECT_EQ(set.count(), 2u);  // {5, 10} carried to the next drain
  seen.clear();
  set.drain_in_order([&](std::uint32_t id) { seen.push_back(id); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{5, 10}));
}

TEST(ActivitySet, BoundaryIdsAcrossWordAndSummaryEdges) {
  // n straddles a summary-word boundary (4096 = 64 bitwords), so the
  // interesting ids sit at every level's edge: bit 0/63 of a word, the
  // first bit of the next word, and the first id covered by the second
  // summary word.
  const std::size_t n = 4100;
  ActivitySet set(n);
  const std::vector<std::uint32_t> edges = {0,    63,   64,   65,
                                            4095, 4096, 4099 /* n-1 */};
  for (const auto id : edges) EXPECT_TRUE(set.insert(id));
  for (const auto id : edges) EXPECT_TRUE(set.contains(id));
  EXPECT_FALSE(set.contains(1));
  EXPECT_FALSE(set.contains(4097));
  std::vector<std::uint32_t> seen;
  set.drain_to(seen);
  EXPECT_EQ(seen, edges);  // ascending, all levels crossed
  EXPECT_TRUE(set.empty());
  // Erase down through the word-empty and summary-empty transitions.
  for (const auto id : edges) set.insert(id);
  for (const auto id : edges) EXPECT_TRUE(set.erase(id));
  EXPECT_TRUE(set.empty());
  set.drain_to(seen);
  EXPECT_TRUE(seen.empty());
}

TEST(ActivitySet, InsertDuringDrainAtWordBoundaries) {
  // Same dense-scan property as above, but with the mid-drain inserts
  // landing exactly on word and summary-word edges, where the cursor
  // hand-off between the bit loop and the summary walk happens.
  ActivitySet set(8192);
  set.insert(63);
  set.insert(4096);
  std::vector<std::uint32_t> seen;
  set.drain_in_order([&](std::uint32_t id) {
    seen.push_back(id);
    if (id == 63) {
      set.insert(64);    // ahead: first bit of the next word, this drain
      set.insert(63);    // at cursor on the last bit of a word: next drain
      set.insert(0);     // behind, word 0: next drain
      set.insert(4095);  // ahead: last id of the first summary word
    }
    if (id == 4096) {
      set.insert(4097);  // ahead within the second summary word
      set.insert(8191);  // ahead: the very last id
    }
  });
  EXPECT_EQ(seen,
            (std::vector<std::uint32_t>{63, 64, 4095, 4096, 4097, 8191}));
  seen.clear();
  set.drain_in_order([&](std::uint32_t id) { seen.push_back(id); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 63}));
}

TEST(ActivitySet, EmptyAndFullSets) {
  ActivitySet empty_set(0);
  EXPECT_EQ(empty_set.size(), 0u);
  empty_set.fill();  // no words: must be a no-op
  EXPECT_TRUE(empty_set.empty());
  empty_set.drain_in_order([](std::uint32_t) { FAIL(); });

  // Full sets at word-aligned and summary-aligned sizes: fill() must
  // not leak bits past size, and the drain visits every id once.
  for (const std::size_t n : {64u, 128u, 4096u, 4100u}) {
    ActivitySet set(n);
    set.fill();
    EXPECT_EQ(set.count(), n);
    std::vector<std::uint32_t> seen;
    set.drain_to(seen);
    ASSERT_EQ(seen.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(seen[i], static_cast<std::uint32_t>(i));
    }
    EXPECT_TRUE(set.empty());
  }
}

TEST(ActivitySet, SparseDrainSkipsQuiescentRegions) {
  // 1024-cluster-scale id space with a handful of active ids: the
  // summary walk (and its SIMD sweep) must land on exactly the right
  // words, including the last id.
  const std::size_t n = 100000;
  ActivitySet set(n);
  const std::vector<std::uint32_t> ids = {2,     4095,  4096, 50000,
                                          65535, 65536, 99999};
  for (const auto id : ids) set.insert(id);
  std::vector<std::uint32_t> seen;
  set.drain_to(seen);
  EXPECT_EQ(seen, ids);
}

// ---- SIMD kernels ---------------------------------------------------------

// Every dispatched kernel must agree with its scalar reference on
// random buffers — including awkward lengths around the vector width.
TEST(SimdKernels, DispatchedKernelsMatchScalarReference) {
  (void)simd::level_name();  // callable on every build
  Xoshiro256 gen(20260808);
  for (const std::size_t n :
       {0u, 1u, 3u, 4u, 5u, 7u, 8u, 15u, 16u, 17u, 31u, 32u, 63u, 64u,
        65u, 100u}) {
    // Mostly-zero buffers so first_nonzero has real work to do.
    std::vector<std::uint64_t> words(n, 0);
    std::vector<std::uint8_t> bytes(n, 0);
    std::vector<std::uint16_t> lanes(std::min<std::size_t>(n, 32), 0);
    std::vector<std::uint32_t> u32s(n, 0);
    for (int trial = 0; trial < 50; ++trial) {
      for (auto& w : words) w = (gen.uniform(4) == 0) ? gen.next() : 0;
      for (auto& b : bytes) {
        b = static_cast<std::uint8_t>(gen.uniform(4) == 0 ? 1 : 0);
      }
      for (auto& l : lanes) l = static_cast<std::uint16_t>(gen.uniform(8));
      for (auto& u : u32s) u = gen.uniform(3);
      EXPECT_EQ(simd::first_nonzero_word(words.data(), n),
                simd::scalar::first_nonzero_word(words.data(), n));
      EXPECT_EQ(simd::first_nonzero_byte(bytes.data(), n),
                simd::scalar::first_nonzero_byte(bytes.data(), n));
      EXPECT_EQ(simd::nonzero_mask_u16(lanes.data(), lanes.size()),
                simd::scalar::nonzero_mask_u16(lanes.data(), lanes.size()));
      EXPECT_EQ(simd::lt_mask_u16(lanes.data(), lanes.size(), 4),
                simd::scalar::lt_mask_u16(lanes.data(), lanes.size(), 4));
      EXPECT_EQ(simd::count_nonzero_u32(u32s.data(), n),
                simd::scalar::count_nonzero_u32(u32s.data(), n));
      EXPECT_EQ(simd::popcount_words(words.data(), n),
                simd::scalar::popcount_words(words.data(), n));
      EXPECT_EQ(simd::max_u64(words.data(), n),
                simd::scalar::max_u64(words.data(), n));
    }
  }
}

TEST(SimdKernels, ForceScalarRoutesDispatchToReference) {
  std::vector<std::uint64_t> words(70, 0);
  words[68] = 0x10;
  simd::set_force_scalar(true);
  EXPECT_EQ(simd::first_nonzero_word(words.data(), words.size()), 68u);
  simd::set_force_scalar(false);
  EXPECT_EQ(simd::first_nonzero_word(words.data(), words.size()), 68u);
}

TEST(WakeQueue, PopDueDeliversIntoSet) {
  WakeQueue wake;
  ActivitySet set(64);
  wake.schedule(10, 1);
  wake.schedule(5, 2);
  wake.schedule(10, 3);
  wake.schedule(5, 2);  // duplicate: deduplicated by the set
  EXPECT_EQ(wake.next_time(), 5u);
  wake.pop_due(4, set);
  EXPECT_TRUE(set.empty());  // nothing due yet
  wake.pop_due(5, set);
  EXPECT_EQ(set.count(), 1u);
  EXPECT_TRUE(set.contains(2));
  EXPECT_EQ(wake.next_time(), 10u);
  wake.pop_due(100, set);
  EXPECT_EQ(set.count(), 3u);
  EXPECT_TRUE(wake.empty());
}

}  // namespace
}  // namespace vlsip

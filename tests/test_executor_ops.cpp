// Table-driven semantics tests: every arithmetic/logic opcode executed
// through a minimal datapath on the AP, checked against the host's
// arithmetic.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "ap/adaptive_processor.hpp"
#include "arch/datapath.hpp"

namespace vlsip::ap {
namespace {

using arch::DatapathBuilder;
using arch::Opcode;
using arch::Word;

/// Runs `op(a, b)` on a fresh AP and returns the single output word.
Word run_binary(Opcode op, Word a, Word b) {
  DatapathBuilder bld;
  const auto x = bld.input("a");
  const auto y = bld.input("b");
  bld.output("r", bld.op(op, x, y));
  auto p = std::move(bld).build();
  AdaptiveProcessor ap{ApConfig{}};
  ap.configure(p);
  ap.feed("a", a);
  ap.feed("b", b);
  const auto exec = ap.run(1, 10000);
  EXPECT_TRUE(exec.completed) << arch::op_name(op);
  return ap.output("r")[0];
}

Word run_unary(Opcode op, Word a) {
  DatapathBuilder bld;
  const auto x = bld.input("a");
  bld.output("r", bld.op(op, x));
  auto p = std::move(bld).build();
  AdaptiveProcessor ap{ApConfig{}};
  ap.configure(p);
  ap.feed("a", a);
  const auto exec = ap.run(1, 10000);
  EXPECT_TRUE(exec.completed) << arch::op_name(op);
  return ap.output("r")[0];
}

// gtest names each case after a hex dump of the whole object, so a case
// must hold no padding: the bytes after the 1-byte opcode are a zeroed
// member, not whatever the stack held, and the names are the same in
// every build and run.
struct IntCase {
  IntCase(Opcode op, std::int64_t a, std::int64_t b, std::int64_t expect)
      : op{op}, a{a}, b{b}, expect{expect} {}
  Opcode op;
  std::array<std::uint8_t, 7> pad{};
  std::int64_t a;
  std::int64_t b;
  std::int64_t expect;
};
static_assert(std::has_unique_object_representations_v<IntCase>);

class IntBinaryOps : public ::testing::TestWithParam<IntCase> {};

TEST_P(IntBinaryOps, Computes) {
  const auto c = GetParam();
  EXPECT_EQ(run_binary(c.op, arch::make_word_i(c.a),
                       arch::make_word_i(c.b))
                .i,
            c.expect)
      << arch::op_name(c.op) << "(" << c.a << ", " << c.b << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IntBinaryOps,
    ::testing::Values(
        IntCase{Opcode::kIAdd, 7, 5, 12},
        IntCase{Opcode::kIAdd, -7, 5, -2},
        IntCase{Opcode::kISub, 7, 5, 2},
        IntCase{Opcode::kISub, 5, 7, -2},
        IntCase{Opcode::kIMul, -3, 9, -27},
        IntCase{Opcode::kIDiv, 17, 5, 3},
        IntCase{Opcode::kIDiv, -17, 5, -3},
        IntCase{Opcode::kIDiv, 17, 0, 0},   // defined-zero divide
        IntCase{Opcode::kIRem, 17, 5, 2},
        IntCase{Opcode::kIRem, 17, 0, 0},
        // INT64_MIN / -1 overflows; the datapath wraps instead of
        // trapping like the host.
        IntCase{Opcode::kIDiv, std::numeric_limits<std::int64_t>::min(), -1,
                std::numeric_limits<std::int64_t>::min()},
        IntCase{Opcode::kIRem, std::numeric_limits<std::int64_t>::min(), -1,
                0},
        IntCase{Opcode::kCmpGt, 3, 2, 1},
        IntCase{Opcode::kCmpGt, 2, 3, 0},
        IntCase{Opcode::kCmpLt, 2, 3, 1},
        IntCase{Opcode::kCmpEq, 5, 5, 1},
        IntCase{Opcode::kCmpEq, 5, 6, 0}));

struct BitCase {
  BitCase(Opcode op, std::uint64_t a, std::uint64_t b, std::uint64_t expect)
      : op{op}, a{a}, b{b}, expect{expect} {}
  Opcode op;
  std::array<std::uint8_t, 7> pad{};  // as in IntCase
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t expect;
};
static_assert(std::has_unique_object_representations_v<BitCase>);

class BitOps : public ::testing::TestWithParam<BitCase> {};

TEST_P(BitOps, Computes) {
  const auto c = GetParam();
  EXPECT_EQ(run_binary(c.op, arch::make_word_u(c.a),
                       arch::make_word_u(c.b))
                .u,
            c.expect)
      << arch::op_name(c.op);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BitOps,
    ::testing::Values(
        BitCase{Opcode::kIAnd, 0xF0F0, 0xFF00, 0xF000},
        BitCase{Opcode::kIOr, 0xF0F0, 0x0F00, 0xFFF0},
        BitCase{Opcode::kIXor, 0xFFFF, 0x0F0F, 0xF0F0},
        BitCase{Opcode::kIShl, 1, 12, 4096},
        BitCase{Opcode::kIShl, 1, 64, 1},   // shift masked to 6 bits
        BitCase{Opcode::kIShr, 4096, 12, 1},
        BitCase{Opcode::kIShr, 0x8000000000000000ull, 63, 1}));

struct FloatCase {
  FloatCase(Opcode op, double a, double b, double expect)
      : op{op}, a{a}, b{b}, expect{expect} {}
  Opcode op;
  std::array<std::uint8_t, 7> pad{};  // as in IntCase
  double a;
  double b;
  double expect;
};
static_assert(sizeof(FloatCase) == 32);  // no padding left

class FloatBinaryOps : public ::testing::TestWithParam<FloatCase> {};

TEST_P(FloatBinaryOps, Computes) {
  const auto c = GetParam();
  EXPECT_DOUBLE_EQ(run_binary(c.op, arch::make_word_f(c.a),
                              arch::make_word_f(c.b))
                       .f,
                   c.expect)
      << arch::op_name(c.op);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FloatBinaryOps,
    ::testing::Values(FloatCase{Opcode::kFAdd, 1.5, 2.25, 3.75},
                      FloatCase{Opcode::kFSub, 1.5, 2.25, -0.75},
                      FloatCase{Opcode::kFMul, 1.5, -2.0, -3.0},
                      FloatCase{Opcode::kFDiv, 7.0, 2.0, 3.5},
                      FloatCase{Opcode::kFDiv, 1.0, 0.0,
                                std::numeric_limits<double>::infinity()}));

TEST(UnaryOps, Negations) {
  EXPECT_EQ(run_unary(Opcode::kINeg, arch::make_word_i(5)).i, -5);
  EXPECT_EQ(run_unary(Opcode::kINeg, arch::make_word_i(-5)).i, 5);
  EXPECT_DOUBLE_EQ(run_unary(Opcode::kFNeg, arch::make_word_f(2.5)).f,
                   -2.5);
  EXPECT_EQ(run_unary(Opcode::kBuff, arch::make_word_u(0xDEAD)).u,
            0xDEADu);
}

TEST(SelectOp, PicksByCondition) {
  DatapathBuilder bld;
  const auto c = bld.input("c");
  const auto t = bld.input("t");
  const auto f = bld.input("f");
  bld.output("r", bld.op(Opcode::kSelect, c, t, f));
  auto p = std::move(bld).build();
  AdaptiveProcessor ap{ApConfig{}};
  ap.configure(p);
  ap.feed("c", arch::make_word_u(1));
  ap.feed("t", arch::make_word_i(10));
  ap.feed("f", arch::make_word_i(20));
  ap.feed("c", arch::make_word_u(0));
  ap.feed("t", arch::make_word_i(11));
  ap.feed("f", arch::make_word_i(21));
  const auto exec = ap.run(2, 10000);
  ASSERT_TRUE(exec.completed);
  EXPECT_EQ(ap.output("r")[0].i, 10);
  EXPECT_EQ(ap.output("r")[1].i, 21);
}

TEST(GateOps, ConsumeBothForwardConditionally) {
  DatapathBuilder bld;
  const auto c = bld.input("c");
  const auto v = bld.input("v");
  bld.output("g", bld.op(Opcode::kGate, c, v));
  auto p = std::move(bld).build();
  AdaptiveProcessor ap{ApConfig{}};
  ap.configure(p);
  // Three waves; only waves with c!=0 pass.
  for (auto [cond, val] : {std::pair{1, 100}, {0, 200}, {1, 300}}) {
    ap.feed("c", arch::make_word_u(static_cast<std::uint64_t>(cond)));
    ap.feed("v", arch::make_word_i(val));
  }
  const auto exec = ap.run(2, 10000);
  ASSERT_TRUE(exec.completed);
  ASSERT_EQ(ap.output("g").size(), 2u);
  EXPECT_EQ(ap.output("g")[0].i, 100);
  EXPECT_EQ(ap.output("g")[1].i, 300);
}

TEST(ConstOp, StreamsImmediate) {
  DatapathBuilder bld;
  const auto x = bld.input("x");
  bld.output("r", bld.op(Opcode::kIAdd, x, bld.constant_i(1000)));
  auto p = std::move(bld).build();
  AdaptiveProcessor ap{ApConfig{}};
  ap.configure(p);
  for (int i = 0; i < 5; ++i) ap.feed("x", arch::make_word_i(i));
  const auto exec = ap.run(5, 10000);
  ASSERT_TRUE(exec.completed);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ap.output("r")[static_cast<std::size_t>(i)].i, 1000 + i);
  }
}

TEST(Timeline, RecordedWhenEnabled) {
  ApConfig cfg;
  cfg.pipeline.record_timeline = true;
  AdaptiveProcessor ap(cfg);
  const auto program = arch::linear_pipeline_program(3);
  const auto stats = ap.configure(program);
  ASSERT_EQ(stats.timeline.size(), program.stream.size());
  for (std::size_t i = 0; i < stats.timeline.size(); ++i) {
    const auto& t = stats.timeline[i];
    EXPECT_EQ(t.pointer_update, i);  // one issue per cycle
    EXPECT_LT(t.pointer_update, t.request_fetch);
    EXPECT_LT(t.request_fetch, t.request_evaluation);
    EXPECT_LT(t.request_evaluation, t.request_start);
    EXPECT_LE(t.request_start, t.request_done);
    EXPECT_LT(t.request_done, t.acquire_start);
    EXPECT_LT(t.acquire_start, t.acquire_done);
  }
  // Off by default.
  AdaptiveProcessor plain{ApConfig{}};
  EXPECT_TRUE(plain.configure(program).timeline.empty());
}

}  // namespace
}  // namespace vlsip::ap

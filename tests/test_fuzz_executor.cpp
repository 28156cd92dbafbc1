// Differential fuzzing: random dataflow DAGs executed on the cycle-level
// AP versus a direct host-side interpretation of the same semantics.
// Any divergence in any output on any wave is a simulator bug.
#include <gtest/gtest.h>

#include <vector>

#include "ap/adaptive_processor.hpp"
#include "arch/datapath.hpp"
#include "common/rng.hpp"

namespace vlsip {
namespace {

using arch::Opcode;
using arch::Word;

/// Opcodes the fuzzer draws from (pure integer ops with total semantics).
const Opcode kFuzzOps[] = {
    Opcode::kIAdd, Opcode::kISub, Opcode::kIMul, Opcode::kIDiv,
    Opcode::kIRem, Opcode::kIShl, Opcode::kIShr, Opcode::kIAnd,
    Opcode::kIOr,  Opcode::kIXor, Opcode::kCmpGt, Opcode::kCmpLt,
    Opcode::kCmpEq,
};

/// Host-side reference semantics (must match executor.cpp's compute()).
/// Add/sub/mul and INT64_MIN / -1 wrap like the two's-complement
/// datapath, so they are computed in unsigned: signed overflow is
/// undefined on the host.
std::int64_t reference(Opcode op, std::int64_t a, std::int64_t b) {
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  switch (op) {
    case Opcode::kIAdd: return static_cast<std::int64_t>(ua + ub);
    case Opcode::kISub: return static_cast<std::int64_t>(ua - ub);
    case Opcode::kIMul: return static_cast<std::int64_t>(ua * ub);
    case Opcode::kIDiv:
      if (b == 0) return 0;
      return b == -1 ? static_cast<std::int64_t>(0 - ua) : a / b;
    case Opcode::kIRem: return b == 0 || b == -1 ? 0 : a % b;
    case Opcode::kIShl: return static_cast<std::int64_t>(ua << (ub & 63));
    case Opcode::kIShr: return static_cast<std::int64_t>(ua >> (ub & 63));
    case Opcode::kIAnd: return static_cast<std::int64_t>(ua & ub);
    case Opcode::kIOr: return static_cast<std::int64_t>(ua | ub);
    case Opcode::kIXor: return static_cast<std::int64_t>(ua ^ ub);
    case Opcode::kCmpGt: return a > b ? 1 : 0;
    case Opcode::kCmpLt: return a < b ? 1 : 0;
    case Opcode::kCmpEq: return a == b ? 1 : 0;
    default: ADD_FAILURE() << "op outside fuzz set"; return 0;
  }
}

struct FuzzDag {
  arch::Program program;
  // node recipe for the reference interpreter:
  struct Node {
    bool is_input = false;
    std::size_t input_index = 0;  // into the inputs vector
    bool is_const = false;
    std::int64_t const_value = 0;
    Opcode op = Opcode::kNop;
    std::size_t lhs = 0;  // indices into recipe order
    std::size_t rhs = 0;
  };
  std::vector<Node> recipe;
  std::vector<std::size_t> output_nodes;  // recipe indices
  std::size_t n_inputs = 0;
};

FuzzDag make_dag(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  FuzzDag dag;
  arch::DatapathBuilder b;
  std::vector<arch::ObjectId> ids;

  dag.n_inputs = 1 + rng.uniform(3);
  for (std::size_t i = 0; i < dag.n_inputs; ++i) {
    ids.push_back(b.input("in" + std::to_string(i)));
    FuzzDag::Node n;
    n.is_input = true;
    n.input_index = i;
    dag.recipe.push_back(n);
  }
  const std::size_t n_consts = 1 + rng.uniform(3);
  for (std::size_t i = 0; i < n_consts; ++i) {
    const auto v = rng.uniform_range(-7, 7);
    ids.push_back(b.constant_i(v));
    FuzzDag::Node n;
    n.is_const = true;
    n.const_value = v;
    dag.recipe.push_back(n);
  }
  const std::size_t n_ops = 4 + rng.uniform(20);
  for (std::size_t i = 0; i < n_ops; ++i) {
    const auto op = kFuzzOps[rng.uniform(std::size(kFuzzOps))];
    const auto lhs = static_cast<std::size_t>(rng.uniform(ids.size()));
    const auto rhs = static_cast<std::size_t>(rng.uniform(ids.size()));
    ids.push_back(b.op(op, ids[lhs], ids[rhs]));
    FuzzDag::Node n;
    n.op = op;
    n.lhs = lhs;
    n.rhs = rhs;
    dag.recipe.push_back(n);
  }
  // 1-3 outputs over the op nodes (never bare inputs — keeps waves
  // aligned even if an input also feeds nothing else).
  const std::size_t n_outputs = 1 + rng.uniform(3);
  for (std::size_t i = 0; i < n_outputs; ++i) {
    const auto node =
        dag.n_inputs + n_consts + rng.uniform(n_ops);
    b.output("out" + std::to_string(i), ids[node]);
    dag.output_nodes.push_back(node);
  }
  dag.program = std::move(b).build();
  return dag;
}

/// Reference: evaluate one wave of input values through the recipe.
std::vector<std::int64_t> reference_wave(
    const FuzzDag& dag, const std::vector<std::int64_t>& inputs) {
  std::vector<std::int64_t> values(dag.recipe.size(), 0);
  for (std::size_t i = 0; i < dag.recipe.size(); ++i) {
    const auto& n = dag.recipe[i];
    if (n.is_input) {
      values[i] = inputs[n.input_index];
    } else if (n.is_const) {
      values[i] = n.const_value;
    } else {
      values[i] = reference(n.op, values[n.lhs], values[n.rhs]);
    }
  }
  std::vector<std::int64_t> out;
  out.reserve(dag.output_nodes.size());
  for (const auto node : dag.output_nodes) out.push_back(values[node]);
  return out;
}

/// Token ring depths the sweeps cover: a single slot, the default
/// double buffer, and odd sizes whose rings wrap mid-stream.
constexpr int kEdgeCapacities[] = {1, 2, 3, 5};

/// Feeds `waves` random input waves into `dag` on an AP with the given
/// object-space and edge capacities, runs it to completion and checks
/// every output of every wave against reference_wave.
void expect_matches_reference(const FuzzDag& dag, std::uint64_t input_seed,
                              int capacity, int edge_capacity,
                              std::size_t waves) {
  ap::ApConfig cfg;
  cfg.capacity = capacity;
  cfg.memory_blocks = 4;
  cfg.exec.edge_capacity = edge_capacity;
  ap::AdaptiveProcessor ap(cfg);
  ap.configure(dag.program);

  Xoshiro256 rng(input_seed);
  std::vector<std::vector<std::int64_t>> wave_inputs(waves);
  for (auto& wave : wave_inputs) {
    for (std::size_t i = 0; i < dag.n_inputs; ++i) {
      wave.push_back(rng.uniform_range(-100, 100));
    }
  }
  for (const auto& wave : wave_inputs) {
    for (std::size_t i = 0; i < dag.n_inputs; ++i) {
      ap.feed("in" + std::to_string(i), arch::make_word_i(wave[i]));
    }
  }
  const auto exec = ap.run(waves, 2000000);
  ASSERT_TRUE(exec.completed)
      << "capacity " << capacity << " edge capacity " << edge_capacity;

  for (std::size_t w = 0; w < waves; ++w) {
    const auto expected = reference_wave(dag, wave_inputs[w]);
    for (std::size_t o = 0; o < dag.output_nodes.size(); ++o) {
      const auto& got = ap.output("out" + std::to_string(o));
      ASSERT_GT(got.size(), w);
      EXPECT_EQ(got[w].i, expected[o])
          << "capacity " << capacity << " edge capacity " << edge_capacity
          << " wave " << w << " output " << o;
    }
  }
}

class ExecutorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecutorFuzz, MatchesReferenceOverWaves) {
  const auto seed = GetParam();
  const auto dag = make_dag(seed);
  for (const int capacity : {64, 6}) {
    for (const int edge_capacity : kEdgeCapacities) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      expect_matches_reference(dag, seed ^ 0xABCDEF, capacity, edge_capacity,
                               4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExecutorFuzz,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(ExecutorFuzz, TinyCapacityStillMatches) {
  // The same DAGs squeezed through a 6-slot object space: virtual
  // hardware must not change any value, at any ring depth.
  for (std::uint64_t seed : {3ull, 7ull, 11ull}) {
    const auto dag = make_dag(seed);
    for (const int edge_capacity : kEdgeCapacities) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      expect_matches_reference(dag, seed * 99, 6, edge_capacity, 1);
    }
  }
}

}  // namespace
}  // namespace vlsip

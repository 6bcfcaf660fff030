// Iterative GEP kernels (A/B/C/D) validated against the literal Fig.-1
// reference, across all four specs and a sweep of sizes — including sizes
// that force padding in the blocked harness.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace {

using namespace gs;
using testutil::blocked_solve;
using testutil::random_input;
using testutil::reference_solution;

// ---------------------------------------------------------------- A alone

template <typename Spec>
void expect_a_matches_reference(std::size_t n, std::uint64_t seed) {
  auto input = random_input<Spec>(n, seed);
  auto expected = reference_solution<Spec>(input);
  auto got = input;
  iter_a<Spec>(got.span());
  EXPECT_EQ(max_abs_diff(got, expected), 0.0) << "n=" << n;
}

TEST(IterA, FloydWarshallMatchesFig1) {
  for (std::size_t n : {1u, 2u, 3u, 8u, 17u, 40u}) {
    expect_a_matches_reference<FloydWarshallSpec>(n, n);
  }
}

TEST(IterA, GaussianEliminationMatchesFig1) {
  for (std::size_t n : {1u, 2u, 3u, 8u, 17u, 40u}) {
    expect_a_matches_reference<GaussianEliminationSpec>(n, n);
  }
}

TEST(IterA, TransitiveClosureMatchesFig1) {
  for (std::size_t n : {1u, 2u, 8u, 33u}) {
    expect_a_matches_reference<TransitiveClosureSpec>(n, n);
  }
}

TEST(IterA, WidestPathMatchesFig1) {
  for (std::size_t n : {2u, 8u, 33u}) {
    expect_a_matches_reference<WidestPathSpec>(n, n);
  }
}

// ------------------------------------------- full blocked pipeline (BCD)

// Running the blocked schedule with iterative kernels must equal the flat
// reference for every spec; this exercises B, C, and D with real data
// dependencies between tiles.
template <typename Spec>
void expect_blocked_matches(std::size_t n, std::size_t block,
                            std::uint64_t seed) {
  auto input = random_input<Spec>(n, seed);
  auto expected = reference_solution<Spec>(input);
  auto got = blocked_solve<Spec>(input, block, KernelConfig::iterative());
  if constexpr (std::is_same_v<typename Spec::value_type, double>) {
    EXPECT_LE(max_abs_diff(got, expected), 1e-9) << "n=" << n << " b=" << block;
  } else {
    EXPECT_EQ(max_abs_diff(got, expected), 0.0) << "n=" << n << " b=" << block;
  }
}

struct BlockedCase {
  std::size_t n;
  std::size_t block;
};

class IterBlocked : public ::testing::TestWithParam<BlockedCase> {};

TEST_P(IterBlocked, FloydWarshall) {
  expect_blocked_matches<FloydWarshallSpec>(GetParam().n, GetParam().block, 3);
}
TEST_P(IterBlocked, GaussianElimination) {
  expect_blocked_matches<GaussianEliminationSpec>(GetParam().n,
                                                  GetParam().block, 4);
}
TEST_P(IterBlocked, TransitiveClosure) {
  expect_blocked_matches<TransitiveClosureSpec>(GetParam().n, GetParam().block,
                                                5);
}
TEST_P(IterBlocked, WidestPath) {
  expect_blocked_matches<WidestPathSpec>(GetParam().n, GetParam().block, 6);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBlocks, IterBlocked,
    ::testing::Values(BlockedCase{8, 8},    // single tile
                      BlockedCase{16, 8},   // 2×2 grid
                      BlockedCase{24, 8},   // 3×3 grid (odd grid side)
                      BlockedCase{30, 8},   // padding: 30 → 32
                      BlockedCase{33, 8},   // padding: 33 → 40
                      BlockedCase{40, 8},   // 5×5 grid
                      BlockedCase{37, 16},  // padding with bigger tile
                      BlockedCase{64, 16},  // 4×4 grid
                      BlockedCase{7, 16},   // whole problem inside padding
                      BlockedCase{49, 7}),  // non-power-of-two block
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_b" +
             std::to_string(info.param.block);
    });

// ---------------------------------------------------------------- B/C/D

// Direct single-kernel checks: construct the 2×2 blocked problem, run A on
// the pivot, then verify B, C, D tile-by-tile against the reference.
template <typename Spec>
void expect_single_kernels_match(std::size_t n, std::uint64_t seed) {
  using T = typename Spec::value_type;
  const std::size_t b = n / 2;
  auto input = random_input<Spec>(n, seed);

  // Reference: one outer iteration (k over the first tile's range) of the
  // global GEP, computed by the blocked harness at r=2 equals the reference
  // overall — covered above. Here we check the *first iteration* pieces.
  TileGrid<T> g(input, b, Spec::pad_diag(), Spec::pad_off());
  GepKernels<Spec> kern(KernelConfig::iterative());

  // After A(0,0), B(0,1), C(1,0), D(1,1), the partial table must match the
  // flat Fig.-1 loop run only for k in [0, b).
  auto expected = input;
  {
    auto c = expected.span();
    for (std::size_t k = 0; k < b; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (!Spec::kStrictSigma || (i > k && j > k)) {
            c(i, j) = Spec::update(c(i, j), c(i, k), c(k, j), c(k, k));
          }
        }
      }
    }
  }

  g.set(0, 0, apply_tile_kernel<Spec>(kern, KernelKind::A, g.at(0, 0).get(),
                                      nullptr, nullptr, nullptr));
  const auto diag = g.at(0, 0);
  const Tile<T>* w = Spec::kUsesW ? diag.get() : nullptr;
  g.set(0, 1, apply_tile_kernel<Spec>(kern, KernelKind::B, g.at(0, 1).get(),
                                      diag.get(), nullptr, w));
  g.set(1, 0, apply_tile_kernel<Spec>(kern, KernelKind::C, g.at(1, 0).get(),
                                      nullptr, diag.get(), w));
  g.set(1, 1, apply_tile_kernel<Spec>(kern, KernelKind::D, g.at(1, 1).get(),
                                      g.at(1, 0).get(), g.at(0, 1).get(), w));
  auto got = g.gather();
  if constexpr (std::is_same_v<T, double>) {
    EXPECT_LE(max_abs_diff(got, expected), 1e-9);
  } else {
    EXPECT_EQ(max_abs_diff(got, expected), 0.0);
  }
}

TEST(IterSingleKernels, FloydWarshallFirstIteration) {
  expect_single_kernels_match<FloydWarshallSpec>(16, 7);
  expect_single_kernels_match<FloydWarshallSpec>(32, 8);
}
TEST(IterSingleKernels, GaussianEliminationFirstIteration) {
  expect_single_kernels_match<GaussianEliminationSpec>(16, 9);
  expect_single_kernels_match<GaussianEliminationSpec>(32, 10);
}
TEST(IterSingleKernels, TransitiveClosureFirstIteration) {
  expect_single_kernels_match<TransitiveClosureSpec>(16, 11);
}

// ---------------------------------------------------------------- guards

TEST(TileOps, KernelAInputValidation) {
  GepKernels<FloydWarshallSpec> kern(KernelConfig::iterative());
  auto t = make_tile<double>(4, 4, 1.0);
  EXPECT_DEATH(apply_tile_kernel<FloydWarshallSpec>(kern, KernelKind::A,
                                                    t.get(), t.get(), nullptr,
                                                    nullptr),
               "kernel A takes no external inputs");
}

TEST(TileOps, KernelDRequiresInputs) {
  GepKernels<FloydWarshallSpec> kern(KernelConfig::iterative());
  auto t = make_tile<double>(4, 4, 1.0);
  EXPECT_DEATH(apply_tile_kernel<FloydWarshallSpec>(kern, KernelKind::D,
                                                    t.get(), nullptr, nullptr,
                                                    nullptr),
               "kernel D needs u and v");
}

TEST(TileOps, MissingWForGeDies) {
  GepKernels<GaussianEliminationSpec> kern(KernelConfig::iterative());
  auto t = make_tile<double>(4, 4, 1.0);
  EXPECT_DEATH(apply_tile_kernel<GaussianEliminationSpec>(
                   kern, KernelKind::D, t.get(), t.get(), t.get(), nullptr),
               "spec reads c\\[k,k\\]");
}

TEST(TileOps, MissingWForFwIsFine) {
  GepKernels<FloydWarshallSpec> kern(KernelConfig::iterative());
  auto t = make_tile<double>(4, 4, 1.0);
  auto out = apply_tile_kernel<FloydWarshallSpec>(kern, KernelKind::D, t.get(),
                                                  t.get(), t.get(), nullptr);
  EXPECT_NE(out, nullptr);
}

TEST(KernelKindNames, AreStable) {
  EXPECT_STREQ(kernel_kind_name(KernelKind::A), "A");
  EXPECT_STREQ(kernel_kind_name(KernelKind::D), "D");
}

}  // namespace

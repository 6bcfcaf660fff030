// Parenthesis-family tests: kernels and the wavefront plan against the
// textbook reference, known closed-form cases, and structural properties.
// The all-modes / chaos / checker coverage of ParenPlan lives in
// test_nested_workloads.cpp with the other wavefront plans.
#include <gtest/gtest.h>

#include <numeric>

#include "nested/nested_driver.hpp"
#include "paren/paren_plan.hpp"
#include "support/rng.hpp"

namespace {

using namespace paren;

template <ParenSpecType Spec>
gs::Matrix<double> reference_table(const Spec& spec,
                                   const std::vector<double>& leafs) {
  return paren::reference_table(ParenProblem<Spec>{spec, leafs});
}

std::vector<double> zero_leafs(std::size_t n) {
  return std::vector<double>(n - 1, 0.0);
}

/// A CB solve at lookahead 0 (the default kBarrier schedule): one stage
/// per wave.
template <ParenSpecType Spec>
gepspark::SolveOutcome<double> solve(sparklet::SparkContext& sc,
                                     const Spec& spec,
                                     const std::vector<double>& leafs,
                                     std::size_t block) {
  gepspark::SolverOptions opt;
  opt.block_size = block;
  opt.strategy = gepspark::Strategy::kCollectBroadcast;
  return nested::nested_solve(
      sc, ParenPlan<Spec>(ParenProblem<Spec>{spec, leafs}, block), opt);
}

// ------------------------------------------------------------ reference

TEST(ParenReference, ClrsMatrixChainExample) {
  // CLRS 15.2: dims <30,35,15,5,10,20,25> → 15125 scalar multiplications,
  // optimal parenthesization ((A1(A2A3))((A4A5)A6)) → top split at post 3.
  MatrixChainSpec spec({30, 35, 15, 5, 10, 20, 25});
  auto ref = reference_table(spec, zero_leafs(7));
  EXPECT_DOUBLE_EQ(ref(0, 6), 15125.0);
  EXPECT_EQ(best_split(spec, ref, 0, 6), 3u);
}

TEST(ParenReference, TwoMatricesHaveOneOption) {
  MatrixChainSpec spec({10, 20, 30});
  auto ref = reference_table(spec, zero_leafs(3));
  EXPECT_DOUBLE_EQ(ref(0, 2), 10.0 * 20.0 * 30.0);
}

TEST(ParenReference, SquareTriangulationPicksEitherDiagonal) {
  // Unit square: both triangulations cost the same (symmetric).
  PolygonTriangulationSpec spec(
      {{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  auto ref = reference_table(spec, zero_leafs(4));
  // One triangle pair: w(0,1,3) + w(1,2,3) or w(0,1,2) + w(0,2,3).
  const double opt = ref(0, 3);
  EXPECT_NEAR(opt, std::min(spec.weight(0, 1, 3) + spec.weight(1, 2, 3),
                            spec.weight(0, 2, 3) + spec.weight(0, 1, 2)),
              1e-12);
}

TEST(ParenReference, SimpleParenIsHuffmanLikeMerge) {
  // Uniform leaves, zero weight → any parenthesization sums the leaves...
  // with w ≡ 0 the cost of (i,j) is just the sum of leaf costs in between?
  // No: C[i][j] = C[i][k] + C[k][j]; leaves partition the interval, so the
  // optimum equals the plain sum — a closed form worth pinning down.
  SimpleParenSpec spec(12);
  std::vector<double> leafs(11);
  gs::Rng rng(3);
  for (auto& l : leafs) l = rng.uniform(1.0, 5.0);
  auto ref = reference_table(spec, leafs);
  const double sum = std::accumulate(leafs.begin(), leafs.end(), 0.0);
  EXPECT_NEAR(ref(0, 11), sum, 1e-9);
}

// ------------------------------------------------------------ kernels

TEST(ParenKernelsTest, DiagMatchesReferenceOnWholeProblem) {
  MatrixChainSpec spec({4, 8, 3, 7, 2, 9, 5, 6});
  auto ref = reference_table(spec, zero_leafs(8));
  gs::Matrix<double> table(8, 8, kParenInf);
  for (std::size_t t = 0; t < 8; ++t) table(t, t) = 0.0;
  for (std::size_t t = 0; t + 1 < 8; ++t) table(t, t + 1) = 0.0;
  ParenKernels<MatrixChainSpec> kern(spec);
  kern.diag(table.span(), 0);  // whole table as one "diagonal tile"
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i; j < 8; ++j) {
      EXPECT_DOUBLE_EQ(table(i, j), ref(i, j)) << i << "," << j;
    }
  }
}

TEST(ParenKernelsTest, AccumulateIsMinPlusProductWithWeight) {
  MatrixChainSpec spec(std::vector<double>(16, 2.0));  // weight ≡ 8
  ParenKernels<MatrixChainSpec> kern(spec);
  gs::Matrix<double> x(2, 2, kParenInf), u(2, 2), v(2, 2);
  u(0, 0) = 1; u(0, 1) = 2; u(1, 0) = 3; u(1, 1) = 4;
  v(0, 0) = 10; v(0, 1) = 20; v(1, 0) = 30; v(1, 1) = 40;
  kern.accumulate(x.span(), u.span(), v.span(), 0, 4, 8);
  // x(0,0) = min(1+10, 2+30) + 8 = 19; x(1,1) = min(3+20+8, 4+40+8) = 31.
  EXPECT_DOUBLE_EQ(x(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(x(1, 1), 31.0);
}

TEST(ParenKernelsTest, AccumulateSkipsInfiniteRows) {
  SimpleParenSpec spec(32);
  ParenKernels<SimpleParenSpec> kern(spec);
  gs::Matrix<double> x(2, 2, 5.0), u(2, 2, kParenInf), v(2, 2, 1.0);
  kern.accumulate(x.span(), u.span(), v.span(), 0, 2, 4);
  EXPECT_DOUBLE_EQ(x(0, 0), 5.0);  // no finite candidates
}

// ------------------------------------------------------------ driver

struct ParenCase {
  std::size_t n;
  std::size_t block;
};

class ParenSolver : public ::testing::TestWithParam<ParenCase> {
 protected:
  ParenSolver() : sc_(sparklet::ClusterConfig::local(3, 2)) {}
  sparklet::SparkContext sc_;
};

TEST_P(ParenSolver, MatrixChainMatchesReference) {
  const auto& p = GetParam();
  std::vector<double> dims(p.n);
  gs::Rng rng(p.n);
  for (auto& d : dims) d = std::floor(rng.uniform(1.0, 40.0));
  MatrixChainSpec spec(dims);
  auto ref = reference_table(spec, zero_leafs(p.n));
  auto got = solve(sc_, spec, zero_leafs(p.n), p.block).matrix;
  EXPECT_TRUE(got == ref) << "max diff " << gs::max_abs_diff(got, ref);
}

TEST_P(ParenSolver, SimpleParenMatchesReference) {
  const auto& p = GetParam();
  SimpleParenSpec spec(p.n);
  std::vector<double> leafs(p.n - 1);
  gs::Rng rng(p.n + 1);
  for (auto& l : leafs) l = rng.uniform(0.5, 9.0);
  auto ref = reference_table(spec, leafs);
  auto got = solve(sc_, spec, leafs, p.block).matrix;
  EXPECT_TRUE(got == ref) << "max diff " << gs::max_abs_diff(got, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParenSolver,
    ::testing::Values(ParenCase{7, 8},    // single tile (n < block)
                      ParenCase{8, 4},    // exact 2×2 grid
                      ParenCase{16, 4},   // 4×4 grid
                      ParenCase{21, 4},   // padding 21 → 24
                      ParenCase{33, 8},   // padding 33 → 40
                      ParenCase{40, 5},   // 8×8 grid, odd block
                      ParenCase{26, 13}), // two big tiles
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_b" +
             std::to_string(info.param.block);
    });

TEST(ParenDriver, WaveCountAndStats) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  MatrixChainSpec spec(std::vector<double>(24, 3.0));
  const auto res = solve(sc, spec, zero_leafs(24), /*block=*/6);  // r = 4
  EXPECT_EQ(res.profile.grid_r, 4);
  EXPECT_EQ(res.profile.stages, 4);  // one CB stage per wave: diagonal + 3
  // Each of the 10 upper-triangle tiles is 6·6·8 + 64 = 352 B. CB charges a
  // collect for every wave's tiles (10 × 352 B) and then for the final
  // gather of the table (10 × 352 B again): 7040 B.
  EXPECT_EQ(res.profile.collect_bytes, 7040u);
  EXPECT_GT(res.profile.broadcast_bytes, 0u);
  EXPECT_GT(res.profile.tasks, 0);
  EXPECT_GT(res.profile.virtual_seconds, 0.0);
}

TEST(ParenDriver, PolygonTriangulationEndToEnd) {
  // Regular octagon: compare blocked vs reference.
  std::vector<PolygonTriangulationSpec::Point> pts;
  for (int v = 0; v < 8; ++v) {
    const double a = 2.0 * 3.14159265358979 * v / 8.0;
    pts.push_back({std::cos(a), std::sin(a)});
  }
  PolygonTriangulationSpec spec(pts);
  auto ref = reference_table(spec, zero_leafs(8));
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto got = solve(sc, spec, zero_leafs(8), 3).matrix;
  EXPECT_TRUE(got == ref);
  EXPECT_NEAR(got(0, 7), ref(0, 7), 1e-9);
}

TEST(ParenDriver, RejectsBadInputs) {
  MatrixChainSpec spec({2, 3, 4});
  using Plan = ParenPlan<MatrixChainSpec>;
  using Problem = ParenProblem<MatrixChainSpec>;
  EXPECT_THROW(Plan(Problem{spec, {0.0, 0.0, 0.0}}, 4), gs::ConfigError);
  EXPECT_THROW(Plan(Problem{spec, {0.0, 0.0}}, 0), gs::ConfigError);
  EXPECT_NO_THROW(Plan(Problem{spec, {0.0, 0.0}}, 4));
  EXPECT_THROW(MatrixChainSpec({5.0}), gs::ConfigError);
  EXPECT_THROW(PolygonTriangulationSpec({{0, 0}, {1, 1}}), gs::ConfigError);
}

TEST(ParenDriver, BestSplitReconstructsOptimalTree) {
  MatrixChainSpec spec({30, 35, 15, 5, 10, 20, 25});
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto table = solve(sc, spec, zero_leafs(7), 3).matrix;
  EXPECT_EQ(best_split(spec, table, 0, 6), 3u);   // CLRS: ((A1A2A3)(A4A5A6))
  EXPECT_EQ(best_split(spec, table, 0, 3), 1u);   // (A1(A2A3))
  EXPECT_EQ(best_split(spec, table, 3, 6), 5u);   // ((A4A5)A6)
}

TEST(ParenDriver, SurvivesFaultInjection) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  sc.set_chaos_plan({.task_failure_prob = 0.2, .max_task_attempts = 10, .seed = 2});
  MatrixChainSpec spec({30, 35, 15, 5, 10, 20, 25});
  auto table = solve(sc, spec, zero_leafs(7), 2).matrix;
  EXPECT_DOUBLE_EQ(table(0, 6), 15125.0);
}

}  // namespace

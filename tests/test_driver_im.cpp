// In-Memory driver (paper Listing 1): correctness across specs × blocks ×
// kernels, plus structural assertions — stage counts per iteration, shuffle
// volumes matching the analytic move counts, and the copy-plan formulas.
#include <gtest/gtest.h>

#include "gepspark/solver.hpp"
#include "simtime/gep_job_sim.hpp"
#include "test_util.hpp"

namespace {

using namespace gs;
using gepspark::GridRanges;
using gepspark::SolverOptions;
using gepspark::Strategy;
using testutil::random_input;
using testutil::reference_solution;

SolverOptions im_options(std::size_t block, KernelConfig kernel) {
  SolverOptions opt;
  opt.block_size = block;
  opt.strategy = Strategy::kInMemory;
  opt.kernel = kernel;
  return opt;
}

// ------------------------------------------------------------ correctness

struct ImCase {
  std::size_t n;
  std::size_t block;
  bool recursive;
};

class ImSolver : public ::testing::TestWithParam<ImCase> {
 protected:
  ImSolver() : sc_(sparklet::ClusterConfig::local(4, 2)) {}
  sparklet::SparkContext sc_;
};

TEST_P(ImSolver, FloydWarshall) {
  const auto& p = GetParam();
  auto input = random_input<FloydWarshallSpec>(p.n, 51);
  auto expected = reference_solution<FloydWarshallSpec>(input);
  auto opt = im_options(p.block, p.recursive ? KernelConfig::recursive(2, 2, 8)
                                             : KernelConfig::iterative());
  auto got = gepspark::spark_floyd_warshall(sc_, input, opt).matrix;
  EXPECT_LE(max_abs_diff(got, expected), 1e-9);
}

TEST_P(ImSolver, GaussianElimination) {
  const auto& p = GetParam();
  auto input = random_input<GaussianEliminationSpec>(p.n, 52);
  auto expected = reference_solution<GaussianEliminationSpec>(input);
  auto opt = im_options(p.block, p.recursive ? KernelConfig::recursive(4, 1, 4)
                                             : KernelConfig::iterative());
  auto got = gepspark::spark_gaussian_elimination(sc_, input, opt).matrix;
  EXPECT_LE(max_abs_diff(got, expected), 1e-9);
}

TEST_P(ImSolver, TransitiveClosure) {
  const auto& p = GetParam();
  auto input = random_input<TransitiveClosureSpec>(p.n, 53);
  auto expected = reference_solution<TransitiveClosureSpec>(input);
  auto opt = im_options(p.block, p.recursive ? KernelConfig::recursive(2, 1, 4)
                                             : KernelConfig::iterative());
  auto got = gepspark::spark_transitive_closure(sc_, input, opt).matrix;
  EXPECT_EQ(max_abs_diff(got, expected), 0.0);
}

TEST_P(ImSolver, WidestPath) {
  const auto& p = GetParam();
  auto input = random_input<WidestPathSpec>(p.n, 54);
  auto expected = reference_solution<WidestPathSpec>(input);
  auto opt = im_options(p.block, p.recursive ? KernelConfig::recursive(2, 1, 4)
                                             : KernelConfig::iterative());
  auto got = gepspark::spark_widest_path(sc_, input, opt).matrix;
  EXPECT_EQ(max_abs_diff(got, expected), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ImSolver,
    ::testing::Values(ImCase{16, 16, false},  // single tile (r = 1)
                      ImCase{32, 16, false},  // r = 2
                      ImCase{48, 16, false},  // r = 3
                      ImCase{40, 16, false},  // padding 40 → 48
                      ImCase{64, 16, true},   // r = 4, recursive kernels
                      ImCase{33, 8, true},    // r = 5 with padding
                      ImCase{30, 32, true}),  // block > n
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_b" +
             std::to_string(info.param.block) +
             (info.param.recursive ? "_rec" : "_iter");
    });

// ----------------------------------------------------------- structure

TEST(ImStructure, ThreeStagesPerFullIteration) {
  // With partitioner-aware unions and preserves-partitioning maps, one IM
  // iteration runs exactly three stages (A | BC | D) — Listing 1's shape.
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto input = random_input<FloydWarshallSpec>(48, 55);  // r = 3
  gepspark::spark_floyd_warshall(sc, input, im_options(16, KernelConfig::iterative()));
  // jobs: per iteration one checkpoint job of 3 stages, plus the final
  // gather job (cached → 0 new stages beyond what checkpoint ran).
  const int r = 3;
  EXPECT_EQ(sc.metrics().num_stages(), 3 * r);
}

TEST(ImStructure, LastStrictIterationRunsOnlyA) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto input = random_input<GaussianEliminationSpec>(32, 56);  // r = 2
  gepspark::spark_gaussian_elimination(
      sc, input, im_options(16, KernelConfig::iterative()));
  // k=0: 3 stages; k=1 (strict, no trailing tiles): A's chain + the
  // post-partitionByA reunion stage = 2 stages.
  EXPECT_EQ(sc.metrics().num_stages(), 5);
}

TEST(ImStructure, ShuffleBytesMatchMoveCountFormulas) {
  // The simulator's analytic tile-move counts must price exactly what the
  // real driver shuffles — cross-validation of model vs implementation.
  for (bool strict_spec : {false, true}) {
    sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
    const std::size_t n = 64, block = 16;
    const int r = 4;
    obs::JobProfile stats;
    std::size_t tagged_bytes;
    if (strict_spec) {
      auto input = random_input<GaussianEliminationSpec>(n, 57);
      stats = gepspark::spark_gaussian_elimination(
                  sc, input, im_options(block, KernelConfig::iterative()))
                  .profile;
      tagged_bytes = 0;
    } else {
      auto input = random_input<FloydWarshallSpec>(n, 57);
      stats = gepspark::spark_floyd_warshall(
                  sc, input, im_options(block, KernelConfig::iterative()))
                  .profile;
      tagged_bytes = 0;
    }
    // One shuffled record: pair<TileKey, TaggedTile> = 8 + (payload+64) + 1.
    const std::size_t item =
        sizeof(gs::TileKey) + block * block * sizeof(double) + 64 + 1;
    GridRanges ranges(r, strict_spec);
    std::size_t expected_moves = 0;
    for (int k = 0; k < r; ++k) {
      expected_moves +=
          simtime::im_tile_moves(ranges, k, /*uses_w=*/strict_spec).total();
    }
    EXPECT_EQ(stats.shuffle_bytes, expected_moves * item)
        << "strict=" << strict_spec;
    (void)tagged_bytes;
  }
}

TEST(ImStructure, NoCollectNoBroadcastDuringIterations) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto input = random_input<FloydWarshallSpec>(48, 58);
    const auto stats = gepspark::spark_floyd_warshall(sc, input,
                                 im_options(16, KernelConfig::iterative())).profile;
  EXPECT_EQ(stats.broadcast_bytes, 0u);
  // Only the final gather collects.
  const std::size_t grid_bytes =
      9u * (sizeof(gs::TileKey) + 16 * 16 * sizeof(double) + 64);
  EXPECT_EQ(stats.collect_bytes, grid_bytes);
}

TEST(ImStructure, GridPartitionerVariantIsCorrectAndBalanced) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto input = random_input<FloydWarshallSpec>(64, 59);
  auto expected = reference_solution<FloydWarshallSpec>(input);
  auto opt = im_options(16, KernelConfig::iterative());
  opt.use_grid_partitioner = true;
  auto got = gepspark::spark_floyd_warshall(sc, input, opt).matrix;
  EXPECT_LE(max_abs_diff(got, expected), 1e-9);
}

TEST(ImStructure, ExplicitPartitionCountIsRespected) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto input = random_input<FloydWarshallSpec>(32, 60);
  auto opt = im_options(16, KernelConfig::iterative());
  opt.num_partitions = 3;
  auto got = gepspark::spark_floyd_warshall(sc, input, opt);
  auto expected = reference_solution<FloydWarshallSpec>(input);
  EXPECT_LE(max_abs_diff(got.matrix, expected), 1e-9);
  for (const auto& s : sc.metrics().stages()) {
    EXPECT_EQ(s.num_tasks, 3) << s.name;
  }
}

// ----------------------------------------------------------- copy plan

TEST(CopyPlan, RangesClassifyEveryTileExactlyOnce) {
  for (bool strict : {false, true}) {
    const int r = 5;
    GridRanges g(r, strict);
    for (int k = 0; k < r; ++k) {
      int a = 0, b = 0, c = 0, d = 0, untouched = 0;
      for (int i = 0; i < r; ++i) {
        for (int j = 0; j < r; ++j) {
          const gs::TileKey key{i, j};
          const int cls = g.is_a(key, k) + g.is_b(key, k) + g.is_c(key, k) +
                          g.is_d(key, k);
          EXPECT_LE(cls, 1);  // classes are disjoint
          a += g.is_a(key, k);
          b += g.is_b(key, k);
          c += g.is_c(key, k);
          d += g.is_d(key, k);
          untouched += !g.is_touched(key, k);
        }
      }
      EXPECT_EQ(a, 1);
      EXPECT_EQ(b, g.num_b(k));
      EXPECT_EQ(c, g.num_c(k));
      EXPECT_EQ(d, g.num_d(k));
      EXPECT_EQ(a + b + c + d + untouched, r * r);
      EXPECT_EQ(std::size_t(a + b + c + d), g.touched_count(k));
    }
  }
}

TEST(CopyPlan, DiagCopyCountsMatchPaperFormula) {
  // Paper §IV-C: ARecGE makes 2(r−k−1) + (r−k−1)² copies for GE.
  const int r = 8;
  GridRanges g(r, /*strict=*/true);
  for (int k = 0; k < r; ++k) {
    const std::size_t m = std::size_t(r - k - 1);
    EXPECT_EQ(g.diag_copy_count(k, /*uses_w=*/true), 2 * m + m * m);
    EXPECT_EQ(g.diag_copy_count(k, /*uses_w=*/false), 2 * m);
  }
}

TEST(CopyPlan, KeyListsMatchPredicates) {
  GridRanges g(6, false);
  for (int k = 0; k < 6; ++k) {
    for (auto key : g.b_keys(k)) EXPECT_TRUE(g.is_b(key, k));
    for (auto key : g.c_keys(k)) EXPECT_TRUE(g.is_c(key, k));
    for (auto key : g.d_keys(k)) EXPECT_TRUE(g.is_d(key, k));
    EXPECT_EQ(g.b_keys(k).size(), std::size_t(g.num_b(k)));
    EXPECT_EQ(g.d_keys(k).size(), std::size_t(g.num_d(k)));
  }
}

}  // namespace

// End-to-end solver properties: invariance of results across every
// execution knob (strategy, kernels, partitioner, cluster shape, block
// size), and cross-validation against algorithm-diverse baselines.
#include <gtest/gtest.h>

#include "baseline/zola_fw.hpp"
#include "gepspark/solver.hpp"
#include "test_util.hpp"

namespace {

using namespace gs;
using gepspark::SolverOptions;
using gepspark::Strategy;
using testutil::random_input;
using testutil::reference_solution;

// ------------------------------------------------ result invariance

TEST(SolverInvariance, ResultIndependentOfBlockSize) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto input = random_input<FloydWarshallSpec>(60, 71);
  auto expected = reference_solution<FloydWarshallSpec>(input);
  for (std::size_t block : {8u, 12u, 16u, 20u, 30u, 60u, 64u}) {
    SolverOptions opt;
    opt.block_size = block;
    auto got = gepspark::spark_floyd_warshall(sc, input, opt).matrix;
    EXPECT_LE(max_abs_diff(got, expected), 1e-9) << "block=" << block;
  }
}

TEST(SolverInvariance, ResultIndependentOfClusterShape) {
  auto input = random_input<GaussianEliminationSpec>(48, 72);
  Matrix<double> first;
  for (auto [nodes, cores] : {std::pair{1, 1}, {2, 2}, {4, 1}, {3, 4}}) {
    sparklet::SparkContext sc(sparklet::ClusterConfig::local(nodes, cores));
    SolverOptions opt;
    opt.block_size = 16;
    auto got = gepspark::spark_gaussian_elimination(sc, input, opt).matrix;
    if (first.empty()) {
      first = got;
    } else {
      EXPECT_TRUE(got == first) << nodes << "x" << cores;
    }
  }
}

TEST(SolverInvariance, ResultIndependentOfKernelFlavour) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto input = random_input<GaussianEliminationSpec>(64, 73);
  SolverOptions opt;
  opt.block_size = 16;
  auto iter = gepspark::spark_gaussian_elimination(sc, input, opt).matrix;
  for (std::size_t rs : {2u, 4u, 8u}) {
    for (int omp : {1, 3}) {
      opt.kernel = KernelConfig::recursive(rs, omp, 4);
      auto rec = gepspark::spark_gaussian_elimination(sc, input, opt).matrix;
      EXPECT_TRUE(rec == iter) << "rs=" << rs << " omp=" << omp;
    }
  }
}

TEST(SolverInvariance, ResultIndependentOfPartitioner) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto input = random_input<FloydWarshallSpec>(48, 74);
  SolverOptions hash_opt;
  hash_opt.block_size = 16;
  SolverOptions grid_opt = hash_opt;
  grid_opt.use_grid_partitioner = true;
  auto a = gepspark::spark_floyd_warshall(sc, input, hash_opt).matrix;
  auto b = gepspark::spark_floyd_warshall(sc, input, grid_opt).matrix;
  EXPECT_TRUE(a == b);
}

TEST(SolverInvariance, ImEqualsCbForEverySpec) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  SolverOptions im, cb;
  im.block_size = cb.block_size = 16;
  im.strategy = Strategy::kInMemory;
  cb.strategy = Strategy::kCollectBroadcast;

  {
    auto in = random_input<FloydWarshallSpec>(48, 75);
    EXPECT_TRUE(gepspark::spark_floyd_warshall(sc, in, im).matrix ==
                gepspark::spark_floyd_warshall(sc, in, cb).matrix);
  }
  {
    auto in = random_input<TransitiveClosureSpec>(48, 76);
    EXPECT_TRUE(gepspark::spark_transitive_closure(sc, in, im).matrix ==
                gepspark::spark_transitive_closure(sc, in, cb).matrix);
  }
  {
    auto in = random_input<WidestPathSpec>(48, 77);
    EXPECT_TRUE(gepspark::spark_widest_path(sc, in, im).matrix ==
                gepspark::spark_widest_path(sc, in, cb).matrix);
  }
}

// ------------------------------------------------ cross-validation

TEST(CrossValidation, SolverMatchesZolaBaseline) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto input = random_input<FloydWarshallSpec>(56, 78);
  SolverOptions opt;
  opt.block_size = 16;
  auto ours = gepspark::spark_floyd_warshall(sc, input, opt).matrix;
  auto zola = baseline::zola_blocked_fw(sc, input, 16);
  EXPECT_LE(max_abs_diff(ours, zola), 1e-9);
}

TEST(CrossValidation, ZolaBaselineMatchesReference) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  for (std::size_t n : {17u, 32u, 45u}) {
    auto input = random_input<FloydWarshallSpec>(n, 79 + n);
    auto expected = reference_solution<FloydWarshallSpec>(input);
    auto zola = baseline::zola_blocked_fw(sc, input, 16);
    EXPECT_LE(max_abs_diff(zola, expected), 1e-9) << n;
  }
}

TEST(CrossValidation, SolverMatchesDijkstra) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto input = workload::random_digraph(
      {.n = 50, .edge_prob = 0.3, .min_weight = 1.0, .max_weight = 9.0,
       .seed = 80});
  SolverOptions opt;
  opt.block_size = 16;
  opt.kernel = KernelConfig::recursive(4, 2, 4);
  auto ours = gepspark::spark_floyd_warshall(sc, input, opt).matrix;
  auto dij = baseline::dijkstra_apsp(input);
  EXPECT_LE(max_abs_diff(ours, dij), 1e-9);
}

TEST(CrossValidation, LinearSystemSolvedThroughCluster) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto a = random_input<GaussianEliminationSpec>(40, 81);
  SolverOptions opt;
  opt.block_size = 16;
  opt.strategy = Strategy::kCollectBroadcast;
  auto elim = gepspark::spark_gaussian_elimination(sc, a, opt).matrix;
  EXPECT_LE(baseline::lu_residual(a, elim), 1e-9);
}

// ------------------------------------------------ edge cases

TEST(SolverEdges, OneByOneProblem) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(1, 1));
  Matrix<double> one(1, 1, 0.0);
  SolverOptions opt;
  opt.block_size = 4;
  auto out = gepspark::spark_floyd_warshall(sc, one, opt).matrix;
  EXPECT_EQ(out(0, 0), 0.0);
}

TEST(SolverEdges, BlockSizeOne) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto input = random_input<FloydWarshallSpec>(9, 82);
  auto expected = reference_solution<FloydWarshallSpec>(input);
  SolverOptions opt;
  opt.block_size = 1;  // r = 9: every cell its own tile
  auto got = gepspark::spark_floyd_warshall(sc, input, opt).matrix;
  EXPECT_LE(max_abs_diff(got, expected), 1e-9);
}

TEST(SolverEdges, InvalidOptionsRejected) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(1, 1));
  Matrix<double> m(4, 4, 0.0);
  SolverOptions opt;
  opt.block_size = 0;
  EXPECT_THROW(gepspark::spark_floyd_warshall(sc, m, opt), ConfigError);
  opt.block_size = 2;
  opt.num_partitions = -1;
  EXPECT_THROW(gepspark::spark_floyd_warshall(sc, m, opt), ConfigError);
  opt.num_partitions = 0;
  opt.kernel = KernelConfig::recursive(4, 2);
  opt.kernel.r_shared = 0;
  EXPECT_THROW(gepspark::spark_floyd_warshall(sc, m, opt), ConfigError);
}

TEST(SolverEdges, StatsArePopulated) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto input = random_input<FloydWarshallSpec>(48, 83);
  SolverOptions opt;
  opt.block_size = 16;
    const auto stats = gepspark::spark_floyd_warshall(sc, input, opt).profile;
  EXPECT_EQ(stats.grid_r, 3);
  EXPECT_GT(stats.stages, 0);
  EXPECT_GT(stats.tasks, 0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.virtual_seconds, 0.0);
  EXPECT_GT(stats.shuffle_bytes, 0u);
}

TEST(SolverEdges, SequentialReuseOfOneContext) {
  // Several solves through one SparkContext must not interfere.
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  SolverOptions opt;
  opt.block_size = 16;
  auto g1 = random_input<FloydWarshallSpec>(32, 84);
  auto g2 = random_input<FloydWarshallSpec>(32, 85);
  auto d1 = gepspark::spark_floyd_warshall(sc, g1, opt).matrix;
  auto d2 = gepspark::spark_floyd_warshall(sc, g2, opt).matrix;
  auto d1_again = gepspark::spark_floyd_warshall(sc, g1, opt).matrix;
  EXPECT_TRUE(d1 == d1_again);
  EXPECT_FALSE(d1 == d2);
}

TEST(SolverEdges, OptionsDescribeIsInformative) {
  SolverOptions opt;
  opt.block_size = 512;
  opt.strategy = Strategy::kCollectBroadcast;
  opt.kernel = KernelConfig::recursive(4, 8);
  const auto d = opt.describe();
  EXPECT_NE(d.find("CB"), std::string::npos);
  EXPECT_NE(d.find("512"), std::string::npos);
  EXPECT_NE(d.find("r_shared=4"), std::string::npos);
}

}  // namespace

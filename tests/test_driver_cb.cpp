// Collect-Broadcast driver (paper Listing 2): correctness across specs ×
// blocks × kernels, plus CB-specific structure — collect/broadcast volumes,
// the single per-iteration repartition shuffle, and stage counts.
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

SolverOptions cb_options(std::size_t block, KernelConfig kernel) {
  SolverOptions opt;
  opt.block_size = block;
  opt.strategy = Strategy::kCollectBroadcast;
  opt.kernel = kernel;
  return opt;
}

struct CbCase {
  std::size_t n;
  std::size_t block;
  bool recursive;
};

class CbSolver : public ::testing::TestWithParam<CbCase> {
 protected:
  CbSolver() : sc_(sparklet::ClusterConfig::local(4, 2)) {}
  sparklet::SparkContext sc_;
};

TEST_P(CbSolver, FloydWarshall) {
  const auto& p = GetParam();
  auto input = random_input<FloydWarshallSpec>(p.n, 61);
  auto expected = reference_solution<FloydWarshallSpec>(input);
  auto opt = cb_options(p.block, p.recursive ? KernelConfig::recursive(2, 2, 8)
                                             : KernelConfig::iterative());
  auto got = gepspark::spark_floyd_warshall(sc_, input, opt).matrix;
  EXPECT_LE(max_abs_diff(got, expected), 1e-9);
}

TEST_P(CbSolver, GaussianElimination) {
  const auto& p = GetParam();
  auto input = random_input<GaussianEliminationSpec>(p.n, 62);
  auto expected = reference_solution<GaussianEliminationSpec>(input);
  auto opt = cb_options(p.block, p.recursive ? KernelConfig::recursive(4, 1, 4)
                                             : KernelConfig::iterative());
  auto got = gepspark::spark_gaussian_elimination(sc_, input, opt).matrix;
  EXPECT_LE(max_abs_diff(got, expected), 1e-9);
}

TEST_P(CbSolver, TransitiveClosure) {
  const auto& p = GetParam();
  auto input = random_input<TransitiveClosureSpec>(p.n, 63);
  auto expected = reference_solution<TransitiveClosureSpec>(input);
  auto opt = cb_options(p.block, p.recursive ? KernelConfig::recursive(2, 1, 4)
                                             : KernelConfig::iterative());
  auto got = gepspark::spark_transitive_closure(sc_, input, opt).matrix;
  EXPECT_EQ(max_abs_diff(got, expected), 0.0);
}

TEST_P(CbSolver, WidestPath) {
  const auto& p = GetParam();
  auto input = random_input<WidestPathSpec>(p.n, 64);
  auto expected = reference_solution<WidestPathSpec>(input);
  auto opt = cb_options(p.block, p.recursive ? KernelConfig::recursive(2, 1, 4)
                                             : KernelConfig::iterative());
  auto got = gepspark::spark_widest_path(sc_, input, opt).matrix;
  EXPECT_EQ(max_abs_diff(got, expected), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CbSolver,
    ::testing::Values(CbCase{16, 16, false},  // single tile
                      CbCase{32, 16, false},  // r = 2
                      CbCase{48, 16, false},  // r = 3
                      CbCase{40, 16, false},  // padding 40 → 48
                      CbCase{64, 16, true},   // r = 4, recursive kernels
                      CbCase{33, 8, true}),   // r = 5 with padding
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_b" +
             std::to_string(info.param.block) +
             (info.param.recursive ? "_rec" : "_iter");
    });

// ----------------------------------------------------------- structure

TEST(CbStructure, CollectBytesMatchMoveFormulas) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  const std::size_t n = 64, block = 16;
  const int r = 4;
  auto input = random_input<FloydWarshallSpec>(n, 65);
    const auto stats = gepspark::spark_floyd_warshall(sc, input,
                                 cb_options(block, KernelConfig::iterative())).profile;
  const std::size_t tile_item =
      sizeof(gs::TileKey) + block * block * sizeof(double) + 64;
  GridRanges ranges(r, false);
  std::size_t expected_collect = 0;
  for (int k = 0; k < r; ++k) {
    expected_collect += simtime::cb_tile_moves(ranges, k).collect_tiles;
  }
  // + the final gather of the whole grid.
  expected_collect += std::size_t(r) * r;
  EXPECT_EQ(stats.collect_bytes, expected_collect * tile_item);
}

TEST(CbStructure, RepartitionShufflesWholeGridEachIteration) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  const std::size_t n = 48, block = 16;
  const int r = 3;
  auto input = random_input<FloydWarshallSpec>(n, 66);
    const auto stats = gepspark::spark_floyd_warshall(sc, input,
                                 cb_options(block, KernelConfig::iterative())).profile;
  const std::size_t tile_item =
      sizeof(gs::TileKey) + block * block * sizeof(double) + 64;
  // Listing 2's maps drop the partitioner → every iteration's final
  // partitionBy moves all r² tiles.
  EXPECT_EQ(stats.shuffle_bytes, std::size_t(r) * r * r * tile_item);
}

TEST(CbStructure, BroadcastVolumesScaleWithExecutors) {
  auto run = [&](int nodes) {
    sparklet::SparkContext sc(sparklet::ClusterConfig::local(nodes, 1));
    auto input = random_input<FloydWarshallSpec>(48, 67);
        const auto stats = gepspark::spark_floyd_warshall(
        sc, input, cb_options(16, KernelConfig::iterative())).profile;
    return stats.broadcast_bytes;
  };
  const auto two = run(2);
  const auto four = run(4);
  EXPECT_EQ(two * 2, four);  // broadcast cost = payload × executors
  EXPECT_GT(two, 0u);
}

TEST(CbStructure, StrictLastIterationSkipsBroadcastOfRowCol) {
  // GE r = 2: k=1 has no trailing tiles → only the pivot tile is collected
  // and broadcast in that iteration.
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto input = random_input<GaussianEliminationSpec>(32, 68);
    const auto stats = gepspark::spark_gaussian_elimination(
      sc, input, cb_options(16, KernelConfig::iterative())).profile;
  GridRanges ranges(2, true);
  std::size_t tiles = 0;
  for (int k = 0; k < 2; ++k) {
    tiles += 1;                                    // pivot collect
    tiles += 2 * std::size_t(ranges.num_b(k));     // row/col collect
  }
  tiles += 4;  // final gather
  const std::size_t tile_item =
      sizeof(gs::TileKey) + 16 * 16 * sizeof(double) + 64;
  EXPECT_EQ(stats.collect_bytes, tiles * tile_item);
}

TEST(CbStructure, ImAndCbProduceBitwiseIdenticalResults) {
  // The two strategies execute the same tile updates in the same global
  // order — results must be identical to the last bit.
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(3, 2));
  auto input = random_input<GaussianEliminationSpec>(64, 69);
  auto im = gepspark::spark_gaussian_elimination(
      sc, input, {.block_size = 16, .strategy = Strategy::kInMemory}).matrix;
  auto cb = gepspark::spark_gaussian_elimination(
      sc, input, {.block_size = 16, .strategy = Strategy::kCollectBroadcast}).matrix;
  EXPECT_TRUE(im == cb);
}

TEST(CbStructure, FourStagesPerFullIteration) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto input = random_input<FloydWarshallSpec>(48, 70);  // r = 3, full Σ
  gepspark::spark_floyd_warshall(sc, input,
                                 cb_options(16, KernelConfig::iterative()));
  // Per iteration: collectA job (1) + collectBC job (1) + checkpoint job
  // (D chain + repartition = 2 stages) = 4 stages.
  EXPECT_EQ(sc.metrics().num_stages(), 4 * 3);
}

}  // namespace

// Sequence-alignment tests: the tile kernel and the wavefront plan against
// the full-table reference, textbook cases, and alignment properties. The
// all-modes / chaos / checker coverage of AlignPlan lives in
// test_nested_workloads.cpp with the other wavefront plans.
#include <gtest/gtest.h>

#include "align/align_plan.hpp"
#include "nested/nested_driver.hpp"
#include "support/rng.hpp"

namespace {

using namespace align;
using gepspark::ScheduleMode;
using gepspark::Strategy;

std::string random_dna(std::size_t n, std::uint64_t seed) {
  static const char* kAlphabet = "ACGT";
  gs::Rng rng(seed);
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(kAlphabet[rng.uniform_u64(4)]);
  }
  return s;
}

struct Mode {
  Strategy strategy = Strategy::kCollectBroadcast;
  ScheduleMode schedule = ScheduleMode::kBarrier;
};

constexpr Mode kAllModes[] = {
    {Strategy::kCollectBroadcast, ScheduleMode::kBarrier},
    {Strategy::kInMemory, ScheduleMode::kBarrier},
    {Strategy::kCollectBroadcast, ScheduleMode::kDataflow},
    {Strategy::kInMemory, ScheduleMode::kDataflow},
};

/// One solve, barrier CB (one stage per wave) unless `mode` says otherwise.
gepspark::SolveOutcome<double> solve(sparklet::SparkContext& sc,
                                     const AlignProblem& prob,
                                     std::size_t block, Mode mode = {}) {
  gepspark::SolverOptions opt;
  opt.block_size = block;
  opt.strategy = mode.strategy;
  opt.schedule = mode.schedule;
  return nested::nested_solve(sc, AlignPlan(prob, block), opt);
}

AlignResult solve_result(sparklet::SparkContext& sc, const AlignProblem& prob,
                         std::size_t block, Mode mode = {}) {
  return AlignResult::from_table(solve(sc, prob, block, mode).matrix);
}

// ------------------------------------------------------------ reference

TEST(AlignReference, WikipediaNeedlemanWunsch) {
  // GATTACA vs GCATGCU with match 1 / mismatch −1 / gap −1 scores 0.
  ScoringScheme s{1.0, -1.0, -1.0};
  auto ref = reference_align("GATTACA", "GCATGCU", s, AlignMode::kGlobal);
  EXPECT_DOUBLE_EQ(ref.score, 0.0);
}

TEST(AlignReference, IdenticalSequencesScorePerfect) {
  const std::string s = random_dna(64, 1);
  ScoringScheme sch;
  auto ref = reference_align(s, s, sch, AlignMode::kGlobal);
  EXPECT_DOUBLE_EQ(ref.score, sch.match * 64);
}

TEST(AlignReference, GlobalAgainstEmptyIsAllGaps) {
  ScoringScheme sch;
  auto ref = reference_align("ACGT", "A", sch, AlignMode::kGlobal);
  // Best: match the A, gap the remaining 3.
  EXPECT_DOUBLE_EQ(ref.score, sch.match + 3 * sch.gap);
}

TEST(AlignReference, LocalFindsEmbeddedMotif) {
  // A perfect 10-mer of `a` embedded in unrelated junk of `b`.
  const std::string motif = "ACGTACGTAC";
  const std::string a = "TTTTTTTT" + motif + "GGGGGGGG";
  const std::string b = "CCCC" + motif + "AAAAAAA";
  ScoringScheme sch;
  auto ref = reference_align(a, b, sch, AlignMode::kLocal);
  EXPECT_GE(ref.score, sch.match * 10);
  auto pair = traceback(ref, a, b, sch, AlignMode::kLocal);
  EXPECT_NE(pair.a.find("ACGTACGTAC"), std::string::npos);
}

TEST(AlignReference, LocalScoresAreNonNegative) {
  auto ref = reference_align(random_dna(40, 2), random_dna(40, 3), {},
                             AlignMode::kLocal);
  for (std::size_t i = 0; i <= 40; ++i) {
    for (std::size_t j = 0; j <= 40; ++j) {
      EXPECT_GE(ref.h(i, j), 0.0);
    }
  }
}

TEST(AlignReference, TracebackReconstructsScore) {
  const auto a = random_dna(30, 4), b = random_dna(26, 5);
  ScoringScheme sch;
  auto ref = reference_align(a, b, sch, AlignMode::kGlobal);
  auto pair = traceback(ref, a, b, sch, AlignMode::kGlobal);
  ASSERT_EQ(pair.a.size(), pair.b.size());
  double rescored = 0.0;
  for (std::size_t t = 0; t < pair.a.size(); ++t) {
    if (pair.a[t] == '-' || pair.b[t] == '-') {
      rescored += sch.gap;
    } else {
      rescored += sch.score(pair.a[t], pair.b[t]);
    }
  }
  EXPECT_DOUBLE_EQ(rescored, ref.score);
}

// ------------------------------------------------------------ kernel

TEST(AlignKernel, SingleTileEqualsReference) {
  const auto a = random_dna(24, 6), b = random_dna(17, 7);
  ScoringScheme sch;
  auto ref = reference_align(a, b, sch, AlignMode::kGlobal);

  std::vector<double> top(b.size() + 1), left(a.size());
  for (std::size_t j = 0; j <= b.size(); ++j) top[j] = double(j) * sch.gap;
  for (std::size_t i = 0; i < a.size(); ++i) {
    left[i] = double(i + 1) * sch.gap;
  }
  auto boundary = align_tile(a, b, top, left, sch, AlignMode::kGlobal, 1, 1);
  EXPECT_DOUBLE_EQ(boundary.right.back(), ref.score);
  for (std::size_t j = 0; j < b.size(); ++j) {
    EXPECT_DOUBLE_EQ(boundary.bottom[j], ref.h(a.size(), j + 1));
  }
}

TEST(AlignKernel, BoundaryShapeValidation) {
  EXPECT_DEATH(align_tile("AC", "GT", {0.0}, {0.0, 0.0}, {}, AlignMode::kGlobal,
                          1, 1),
               "top boundary");
  EXPECT_DEATH(align_tile("AC", "GT", {0.0, 0.0, 0.0}, {0.0}, {},
                          AlignMode::kGlobal, 1, 1),
               "left boundary");
}

// ------------------------------------------------------------ driver

struct AlignCase {
  std::size_t m;
  std::size_t n;
  std::size_t block;
};

class AlignSolver : public ::testing::TestWithParam<AlignCase> {
 protected:
  AlignSolver() : sc_(sparklet::ClusterConfig::local(3, 2)) {}
  sparklet::SparkContext sc_;
};

TEST_P(AlignSolver, GlobalMatchesReference) {
  const auto& p = GetParam();
  const AlignProblem prob{random_dna(p.m, p.m), random_dna(p.n, p.n + 1), {},
                          AlignMode::kGlobal};
  auto ref = reference_align(prob.a, prob.b, prob.scheme, prob.mode);
  auto res = solve_result(sc_, prob, p.block);
  EXPECT_DOUBLE_EQ(res.score, ref.score);
  EXPECT_EQ(res.end_i, p.m);
  EXPECT_EQ(res.end_j, p.n);
}

TEST_P(AlignSolver, LocalMatchesReference) {
  const auto& p = GetParam();
  const AlignProblem prob{random_dna(p.m, p.m + 2), random_dna(p.n, p.n + 3),
                          {}, AlignMode::kLocal};
  auto ref = reference_align(prob.a, prob.b, prob.scheme, prob.mode);
  auto res = solve_result(sc_, prob, p.block);
  EXPECT_DOUBLE_EQ(res.score, ref.score);
  EXPECT_EQ(res.end_i, ref.end_i);
  EXPECT_EQ(res.end_j, ref.end_j);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AlignSolver,
    ::testing::Values(AlignCase{40, 40, 64},   // single tile
                      AlignCase{64, 64, 16},   // square grid
                      AlignCase{100, 60, 32},  // rectangular, ragged edge
                      AlignCase{33, 97, 16},   // very asymmetric
                      AlignCase{65, 64, 64},   // one extra row of tiles
                      AlignCase{7, 5, 3}),     // tiny everything
    [](const auto& info) {
      return "m" + std::to_string(info.param.m) + "_n" +
             std::to_string(info.param.n) + "_b" +
             std::to_string(info.param.block);
    });

TEST(AlignDriver, WaveAndStageStructure) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  const AlignProblem prob{random_dna(64, 8), random_dna(48, 9), {},
                          AlignMode::kGlobal};
  const AlignPlan plan(prob, 16);
  // Grid 4×3 → waves 0..5; one barrier CB stage per wave.
  EXPECT_EQ(plan.grid_rows(), 4);
  EXPECT_EQ(plan.grid_cols(), 3);
  EXPECT_EQ(plan.waves(), 6);
  auto res = solve(sc, prob, 16);
  EXPECT_EQ(res.profile.stages, 6);
  EXPECT_GT(res.profile.broadcast_bytes, 0u);
  EXPECT_GT(res.profile.tasks, 0);
}

TEST(AlignDriver, LocalEndCoordinatesMatchReference) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  const AlignProblem prob{random_dna(90, 10), random_dna(80, 11), {},
                          AlignMode::kLocal};
  auto ref = reference_align(prob.a, prob.b, prob.scheme, prob.mode);
  for (const Mode& mode : kAllModes) {
    auto res = solve_result(sc, prob, 25, mode);
    EXPECT_EQ(res.end_i, ref.end_i);
    EXPECT_EQ(res.end_j, ref.end_j);
  }
}

TEST(AlignDriver, LocalTiesResolveToTheReferenceEndCell) {
  // The best local score is reached in several tiles here. The reference
  // reports the first maximum in row-major order, (60,67); taking the first
  // maximum in wave or collect order instead reports (67,35). A single tile
  // (b=67) sees every cell in row-major order itself.
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  const AlignProblem prob{random_dna(67, 330), random_dna(67, 616), {},
                          AlignMode::kLocal};
  auto ref = reference_align(prob.a, prob.b, prob.scheme, prob.mode);
  ASSERT_EQ(ref.end_i, 60u);
  ASSERT_EQ(ref.end_j, 67u);
  for (std::size_t block : {8u, 16u, 25u, 67u}) {
    for (const Mode& mode : kAllModes) {
      auto res = solve_result(sc, prob, block, mode);
      EXPECT_DOUBLE_EQ(res.score, ref.score);
      EXPECT_EQ(res.end_i, ref.end_i)
          << "b=" << block << " " << gepspark::strategy_name(mode.strategy)
          << " " << gepspark::schedule_name(mode.schedule);
      EXPECT_EQ(res.end_j, ref.end_j)
          << "b=" << block << " " << gepspark::strategy_name(mode.strategy)
          << " " << gepspark::schedule_name(mode.schedule);
    }
  }
}

TEST(AlignDriver, RejectsBadInput) {
  EXPECT_THROW(AlignPlan({"", "ACGT", {}, AlignMode::kGlobal}, 4),
               gs::ConfigError);
  ScoringScheme bad;
  bad.gap = 1.0;
  EXPECT_THROW(AlignPlan({"AC", "GT", bad, AlignMode::kGlobal}, 4),
               gs::ConfigError);
  EXPECT_THROW(AlignPlan({"AC", "GT", {}, AlignMode::kGlobal}, 0),
               gs::ConfigError);
  EXPECT_THROW(AlignResult::from_table(gs::Matrix<double>(2, 3, 0.0)),
               gs::ConfigError);
}

TEST(AlignDriver, SurvivesFaultInjection) {
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  sc.set_chaos_plan({.task_failure_prob = 0.2, .max_task_attempts = 10, .seed = 4});
  const AlignProblem prob{random_dna(60, 12), random_dna(60, 13), {},
                          AlignMode::kGlobal};
  auto ref = reference_align(prob.a, prob.b, prob.scheme, prob.mode);
  EXPECT_DOUBLE_EQ(solve_result(sc, prob, 16).score, ref.score);
}

TEST(AlignDriver, RecordsCarryOnlyBoundaries) {
  // A tile ships its bottom row, right column and best cell: O(b), not
  // O(b²). Interior 16x16 tiles hold 16 + 16 + 3 doubles; the 64x40 grid's
  // last column is 8 wide.
  const AlignPlan plan({random_dna(64, 14), random_dna(40, 15), {},
                        AlignMode::kLocal},
                       16);
  EXPECT_EQ(plan.tile_bytes({0, 0}), (16u + 16u + 3u) * 8u + 64u);
  EXPECT_EQ(plan.tile_bytes({3, 2}), (16u + 8u + 3u) * 8u + 64u);
}

}  // namespace

// Pipeline differential suite (ISSUE 4 acceptance): the dataflow scheduler
// must be bit-identical to the barrier reference for every workload (FW / GE
// / TC), both strategies (IM / CB), every lookahead depth, several seeds,
// with and without heavy chaos — and the JobProfile time buckets must keep
// attributing >=95% of the virtual makespan in every mode.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gepspark/driver.hpp"
#include "gepspark/solver.hpp"
#include "sparklet/context.hpp"
#include "test_util.hpp"

namespace {

using sparklet::ChaosPlan;
using sparklet::ClusterConfig;
using sparklet::SparkContext;

ChaosPlan differential_chaos(std::uint64_t seed) {
  ChaosPlan p;
  p.task_failure_prob = 0.2;
  p.max_task_attempts = 12;
  p.executor_kill_prob = 0.5;
  p.max_executor_kills = 2;
  p.fetch_failure_prob = 0.2;
  p.max_stage_attempts = 6;
  p.straggler_prob = 0.2;
  p.straggler_factor = 4.0;
  p.checkpoint_corruption_prob = 1.0;
  p.max_block_corruptions = 1;
  p.seed = seed;
  return p;
}

template <typename Spec>
void run_differential(gepspark::Strategy strategy, std::uint64_t seed,
                      bool chaos) {
  auto input = gs::testutil::random_input<Spec>(40, 200 + seed);

  auto solve = [&](gepspark::ScheduleMode mode, int lookahead) {
    SparkContext sc(ClusterConfig::local(3, 2));
    if (chaos) {
      sc.set_chaos_plan(differential_chaos(seed));
      sc.set_speculation({.enabled = true});
    }
    gepspark::SolverOptions opt;
    opt.block_size = 16;
    opt.strategy = strategy;
    opt.schedule = mode;
    opt.lookahead = lookahead;
    gepspark::GepDriver<Spec> driver(sc, opt);
    auto res = driver.solve(input);
    EXPECT_GE(res.profile.attributed_fraction(), 0.95)
        << gepspark::strategy_name(strategy) << " "
        << gepspark::schedule_name(mode) << " lookahead " << lookahead
        << " seed " << seed << (chaos ? " chaos" : "");
    return std::move(res.matrix);
  };

  const auto expected = solve(gepspark::ScheduleMode::kBarrier, 0);
  for (int lookahead : {0, 1, 2, 3}) {
    const auto got = solve(gepspark::ScheduleMode::kDataflow, lookahead);
    EXPECT_TRUE(got == expected)
        << gepspark::strategy_name(strategy) << " lookahead " << lookahead
        << " seed " << seed << (chaos ? " chaos" : "");
  }
}

template <typename Spec>
void run_matrix(bool chaos) {
  for (auto strategy : {gepspark::Strategy::kInMemory,
                        gepspark::Strategy::kCollectBroadcast}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      run_differential<Spec>(strategy, seed, chaos);
    }
  }
}

TEST(PipelineDifferential, FloydWarshallCleanRuns) {
  run_matrix<gs::FloydWarshallSpec>(false);
}
TEST(PipelineDifferential, FloydWarshallUnderChaos) {
  run_matrix<gs::FloydWarshallSpec>(true);
}
TEST(PipelineDifferential, GaussianEliminationCleanRuns) {
  run_matrix<gs::GaussianEliminationSpec>(false);
}
TEST(PipelineDifferential, GaussianEliminationUnderChaos) {
  run_matrix<gs::GaussianEliminationSpec>(true);
}
TEST(PipelineDifferential, TransitiveClosureCleanRuns) {
  run_matrix<gs::TransitiveClosureSpec>(false);
}
TEST(PipelineDifferential, TransitiveClosureUnderChaos) {
  run_matrix<gs::TransitiveClosureSpec>(true);
}

TEST(PipelineDifferential, CheckpointIntervalsAgreeUnderDataflow) {
  // Segment boundaries (and the snapshots at them) must not leak into the
  // values: every interval produces the barrier answer, chaos or not.
  auto input = gs::testutil::random_input<gs::GaussianEliminationSpec>(48, 9);
  gepspark::SolverOptions opt;
  opt.block_size = 16;

  SparkContext clean(ClusterConfig::local(3, 2));
  const auto expected = gepspark::spark_gaussian_elimination(clean, input, opt).matrix;

  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.lookahead = 2;
  for (int interval : {0, 1, 2, 3}) {
    for (bool chaos : {false, true}) {
      SparkContext sc(ClusterConfig::local(3, 2));
      if (chaos) sc.set_chaos_plan(differential_chaos(17));
      opt.checkpoint_interval = interval;
      const auto got = gepspark::spark_gaussian_elimination(sc, input, opt).matrix;
      EXPECT_TRUE(got == expected)
          << "interval " << interval << (chaos ? " chaos" : "");
    }
  }
}

// ----------------------------------------------------- fused D batching

// The fused D backend (panel packing + batched semiring GEMM, one task per
// executor per k under dataflow) must be bit-identical to the per-tile
// reference in every mode: both strategies, both schedulers, clean and under
// heavy chaos (killed batch tasks recover through the per-tile lineage).
template <typename Spec>
void run_fused_differential(gepspark::Strategy strategy, std::uint64_t seed,
                            bool chaos) {
  auto input = gs::testutil::random_input<Spec>(40, 300 + seed);

  auto solve = [&](gepspark::ScheduleMode mode, bool fused, int lookahead,
                   bool validate) {
    SparkContext sc(ClusterConfig::local(3, 2));
    if (chaos) {
      sc.set_chaos_plan(differential_chaos(seed));
      sc.set_speculation({.enabled = true});
    }
    gepspark::SolverOptions opt;
    opt.block_size = 16;
    opt.strategy = strategy;
    opt.schedule = mode;
    opt.lookahead = lookahead;
    opt.fused_d = fused;
    opt.validate_schedule = validate;
    gepspark::GepDriver<Spec> driver(sc, opt);
    return driver.solve(input).matrix;
  };

  const auto expected =
      solve(gepspark::ScheduleMode::kBarrier, /*fused=*/false, 0, false);
  EXPECT_TRUE(solve(gepspark::ScheduleMode::kBarrier, true, 0, false) ==
              expected)
      << gepspark::strategy_name(strategy) << " barrier fused seed " << seed
      << (chaos ? " chaos" : "");
  for (int lookahead : {0, 2}) {
    // --validate-schedule must accept the batched graphs (clean runs; the
    // graph shape is chaos-independent).
    const auto got = solve(gepspark::ScheduleMode::kDataflow, true, lookahead,
                           /*validate=*/!chaos);
    EXPECT_TRUE(got == expected)
        << gepspark::strategy_name(strategy) << " dataflow fused lookahead "
        << lookahead << " seed " << seed << (chaos ? " chaos" : "");
  }
}

template <typename Spec>
void run_fused_matrix(bool chaos) {
  for (auto strategy : {gepspark::Strategy::kInMemory,
                        gepspark::Strategy::kCollectBroadcast}) {
    for (std::uint64_t seed : {1ull, 2ull}) {
      run_fused_differential<Spec>(strategy, seed, chaos);
    }
  }
}

TEST(FusedDifferential, FloydWarshallCleanRuns) {
  run_fused_matrix<gs::FloydWarshallSpec>(false);
}
TEST(FusedDifferential, FloydWarshallKilledBatchRecoversBitIdentical) {
  run_fused_matrix<gs::FloydWarshallSpec>(true);
}
TEST(FusedDifferential, GaussianEliminationCleanRuns) {
  run_fused_matrix<gs::GaussianEliminationSpec>(false);
}
TEST(FusedDifferential, GaussianEliminationKilledBatchRecoversBitIdentical) {
  run_fused_matrix<gs::GaussianEliminationSpec>(true);
}
TEST(FusedDifferential, TransitiveClosureCleanRuns) {
  run_fused_matrix<gs::TransitiveClosureSpec>(false);
}
TEST(FusedDifferential, TransitiveClosureKilledBatchRecoversBitIdentical) {
  run_fused_matrix<gs::TransitiveClosureSpec>(true);
}

TEST(FusedDifferential, StrassenDataflowMatchesBarrierBitwise) {
  // The Strassen split is tolerance-identical to the standard path but must
  // stay bit-identical ACROSS schedulers (the split is tile-local and
  // deterministic), including recovery under chaos.
  auto input = gs::testutil::random_input<gs::GaussianEliminationSpec>(48, 21);
  auto solve = [&](gepspark::ScheduleMode mode, bool strassen, bool chaos) {
    SparkContext sc(ClusterConfig::local(3, 2));
    if (chaos) sc.set_chaos_plan(differential_chaos(5));
    gepspark::SolverOptions opt;
    opt.block_size = 16;
    opt.schedule = mode;
    opt.fused_d = true;
    opt.kernel.strassen_d = strassen;
    gepspark::GepDriver<gs::GaussianEliminationSpec> driver(sc, opt);
    return driver.solve(input).matrix;
  };
  const auto barrier = solve(gepspark::ScheduleMode::kBarrier, true, false);
  const auto dataflow = solve(gepspark::ScheduleMode::kDataflow, true, false);
  EXPECT_TRUE(dataflow == barrier);
  const auto chaotic = solve(gepspark::ScheduleMode::kDataflow, true, true);
  EXPECT_TRUE(chaotic == barrier);
  // ... and stays within tolerance of the non-Strassen answer.
  const auto standard = solve(gepspark::ScheduleMode::kBarrier, false, false);
  EXPECT_LE(gs::max_abs_diff(barrier, standard), 1e-6);
}

TEST(PipelineDifferential, WidestPathDataflowMatchesBarrier) {
  // Fourth spec (full Σ like FW but a different semiring) as a sentinel that
  // nothing in the engine is FW/GE/TC-specific.
  auto input = gs::testutil::random_input<gs::WidestPathSpec>(40, 77);
  gepspark::SolverOptions opt;
  opt.block_size = 16;
  SparkContext a(ClusterConfig::local(3, 2));
  const auto expected =
      gepspark::solve_gep<gs::WidestPathSpec>(a, input, opt).matrix;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  SparkContext b(ClusterConfig::local(3, 2));
  const auto got = gepspark::solve_gep<gs::WidestPathSpec>(b, input, opt).matrix;
  EXPECT_TRUE(got == expected);
}

}  // namespace

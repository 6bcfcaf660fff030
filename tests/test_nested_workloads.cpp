// Wavefront plans (GAP, protein accordion folding, Viterbi, the
// parenthesis family, pairwise alignment): a seeded randomized differential
// harness plus the symbolic soundness audit over their schedules.
//
//   * differential — every generated instance (degenerate edges included)
//     solves BIT-IDENTICALLY across the serial reference and the dataflow
//     engine under both strategies, at lookahead 0 (the kBarrier schedule,
//     which a wavefront plan runs on the engine) and at the dataflow
//     default: min/max are exact selections and every mode runs the same
//     expression chain per cell, so equality is exact, not tolerance-based
//     (align compares its 1x3 result: score and end cell);
//   * chaos × storage — solves at lookahead 0 and 1 stay bit-identical
//     under memory caps, disk-backed storage tiers, and the full chaos
//     matrix across multiple seeds;
//   * soundness — ScheduleChecker passes every schedule the engine actually
//     emits (all five shapes × IM/CB × lookahead × checkpoint segmentation)
//     and rejects one deliberately mutated schedule per workload with the
//     expected violation kind;
//   * races — HbDetector stays clean on chaos-recovery dataflow solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "align/align_plan.hpp"
#include "analysis/hb_detector.hpp"
#include "analysis/schedule_check.hpp"
#include "baseline/nested_reference.hpp"
#include "nested/nested_driver.hpp"
#include "paren/paren_plan.hpp"
#include "sparklet/context.hpp"
#include "sparklet/partitioner.hpp"
#include "support/format.hpp"
#include "test_util.hpp"

namespace {

using analysis::ScheduleCheckOptions;
using analysis::ScheduleCheckReport;
using analysis::Violation;
using analysis::ViolationKind;
using gepspark::ScheduleMode;
using gepspark::SolverOptions;
using gepspark::Strategy;
using gs::testutil::NestedCase;
using sparklet::ChaosPlan;
using sparklet::ClusterConfig;
using sparklet::DataflowTaskSpec;
using sparklet::SparkContext;
using sparklet::StorageLevel;

using Graphs = std::vector<std::vector<DataflowTaskSpec>>;

// Workload adapters: one NestedCase → problem instance + serial reference.
struct GapWorkload {
  using Plan = nested::GapPlan;
  using Problem = nested::GapProblem;
  static Problem problem(const NestedCase& c) { return Problem{c.n, c.seed}; }
  static gs::Matrix<double> reference(const Problem& p) {
    return gs::baseline::reference_gap(p);
  }
};

struct AccordionWorkload {
  using Plan = nested::AccordionPlan;
  using Problem = nested::AccordionProblem;
  static Problem problem(const NestedCase& c) { return Problem{c.n, c.seed}; }
  static gs::Matrix<double> reference(const Problem& p) {
    return gs::baseline::reference_accordion(p);
  }
};

struct ViterbiWorkload {
  using Plan = nested::ViterbiPlan;
  using Problem = nested::ViterbiProblem;
  static Problem problem(const NestedCase& c) {
    // n → state count; the trellis height rides on the seed so the generator
    // also varies the non-square grid dimension.
    return Problem{c.n, 2 + c.seed % 7, 8, c.seed};
  }
  static gs::Matrix<double> reference(const Problem& p) {
    return gs::baseline::reference_viterbi(p);
  }
};

struct ParenWorkload {
  using Plan = paren::ParenPlan<paren::MatrixChainSpec>;
  using Problem = paren::ParenProblem<paren::MatrixChainSpec>;
  static Problem problem(const NestedCase& c) {
    // n → matrix count (n+1 posts); nonzero leaf costs exercise the seed of
    // the tiles the (t, t+1) cells fall in.
    gs::Rng rng(c.seed);
    std::vector<double> dims(c.n + 1), leafs(c.n);
    for (auto& d : dims) d = std::floor(rng.uniform(1.0, 40.0));
    for (auto& l : leafs) l = std::floor(rng.uniform(0.0, 50.0));
    return Problem{paren::MatrixChainSpec(dims), leafs};
  }
  static gs::Matrix<double> reference(const Problem& p) {
    return paren::reference_table(p);
  }
};

std::string random_dna(std::size_t n, std::uint64_t seed) {
  static const char* kAlphabet = "ACGT";
  gs::Rng rng(seed);
  std::string s;
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(kAlphabet[rng.uniform_u64(4)]);
  }
  return s;
}

template <align::AlignMode Mode>
struct AlignWorkload {
  using Plan = align::AlignPlan;
  using Problem = align::AlignProblem;
  static Problem problem(const NestedCase& c) {
    // n → length of a; the length of b rides on the seed so the generator
    // also varies the non-square grid dimension.
    return Problem{random_dna(c.n, c.seed),
                   random_dna(1 + c.seed % 61, ~c.seed), {}, Mode};
  }
  static gs::Matrix<double> reference(const Problem& p) {
    const auto ref = align::reference_align(p.a, p.b, p.scheme, p.mode);
    return align::AlignResult{ref.score, ref.end_i, ref.end_j}.table();
  }
};
using AlignGlobalWorkload = AlignWorkload<align::AlignMode::kGlobal>;
using AlignLocalWorkload = AlignWorkload<align::AlignMode::kLocal>;

struct RunConfig {
  Strategy strategy = Strategy::kCollectBroadcast;
  ScheduleMode schedule = ScheduleMode::kBarrier;
  int lookahead = -1;
  int interval = 1;
  StorageLevel level = StorageLevel::kMemoryOnly;
  const ChaosPlan* chaos = nullptr;
  double cap_bytes = 0.0;
  int nodes = 2;
};

/// One solve on a fresh context.
template <typename W>
gepspark::SolveOutcome<double> solve_nested(const typename W::Problem& prob,
                                            std::size_t block,
                                            const RunConfig& rc) {
  auto cfg = ClusterConfig::local(rc.nodes, 2);
  if (rc.cap_bytes > 0.0) cfg.executor_mem_bytes = rc.cap_bytes;
  SparkContext sc(cfg);
  if (rc.chaos != nullptr) sc.set_chaos_plan(*rc.chaos);
  SolverOptions opt;
  opt.block_size = block;
  opt.strategy = rc.strategy;
  opt.schedule = rc.schedule;
  opt.lookahead = rc.lookahead;
  opt.checkpoint_interval = rc.interval;
  opt.storage_level = rc.level;
  typename W::Plan plan(prob, block);
  return nested::nested_solve(sc, plan, opt);
}

template <typename W>
gs::Matrix<double> run_nested(const typename W::Problem& prob,
                              std::size_t block, const RunConfig& rc) {
  return solve_nested<W>(prob, block, rc).matrix;
}

// ---------------------------------------------------------------------------
// Randomized differential: reference vs the engine, IM/CB × kBarrier
// (lookahead 0) / kDataflow (lookahead 1)
// ---------------------------------------------------------------------------

template <typename W>
void expect_all_modes_match_reference(std::uint64_t gen_seed) {
  for (const auto& c : gs::testutil::nested_cases(gen_seed)) {
    const auto prob = W::problem(c);
    const auto ref = W::reference(prob);
    for (auto strategy :
         {Strategy::kCollectBroadcast, Strategy::kInMemory}) {
      for (auto schedule : {ScheduleMode::kBarrier, ScheduleMode::kDataflow}) {
        RunConfig rc;
        rc.strategy = strategy;
        rc.schedule = schedule;
        const auto got = run_nested<W>(prob, c.block, rc);
        EXPECT_TRUE(got == ref) << gs::strfmt(
            "%s n=%zu block=%zu seed=%llu %s %s diff=%g", W::Plan::name(),
            c.n, c.block, static_cast<unsigned long long>(c.seed),
            gepspark::strategy_name(strategy),
            gepspark::schedule_name(schedule), gs::max_abs_diff(got, ref));
      }
    }
  }
}

TEST(NestedDifferential, GapAllModesBitIdenticalToReference) {
  expect_all_modes_match_reference<GapWorkload>(0xbeef01);
}

TEST(NestedDifferential, AccordionAllModesBitIdenticalToReference) {
  expect_all_modes_match_reference<AccordionWorkload>(0xbeef02);
}

TEST(NestedDifferential, ViterbiAllModesBitIdenticalToReference) {
  expect_all_modes_match_reference<ViterbiWorkload>(0xbeef03);
}

TEST(NestedDifferential, ParenAllModesBitIdenticalToReference) {
  expect_all_modes_match_reference<ParenWorkload>(0xbeef04);
}

TEST(NestedDifferential, AlignGlobalAllModesMatchReference) {
  expect_all_modes_match_reference<AlignGlobalWorkload>(0xbeef05);
}

TEST(NestedDifferential, AlignLocalAllModesMatchReference) {
  expect_all_modes_match_reference<AlignLocalWorkload>(0xbeef06);
}

TEST(NestedDifferential, ParenSweepBitIdenticalAcrossBlocks) {
  // Blocks from one post per tile to one tile for the whole chain, over
  // sizes that divide the block or leave a partial last tile.
  for (std::size_t n : {1, 2, 6, 23, 36}) {
    const auto prob = ParenWorkload::problem({n, 0, 77 + n});
    const auto ref = ParenWorkload::reference(prob);
    for (std::size_t b : {1, 4, 8, 16}) {
      for (auto strategy :
           {Strategy::kCollectBroadcast, Strategy::kInMemory}) {
        for (auto schedule :
             {ScheduleMode::kBarrier, ScheduleMode::kDataflow}) {
          RunConfig rc;
          rc.strategy = strategy;
          rc.schedule = schedule;
          EXPECT_TRUE(run_nested<ParenWorkload>(prob, b, rc) == ref)
              << "matrices=" << n << " b=" << b << " "
              << gepspark::strategy_name(strategy) << " "
              << gepspark::schedule_name(schedule);
        }
      }
    }
  }
}

TEST(NestedDifferential, ViterbiTableSweepBitIdenticalAcrossBlocksAndStates) {
  // The materialised-table sweep against the serial per-cell chain, over
  // blocks that divide the state count, leave a partial last segment, or
  // exceed it (padded states), at lookahead 0 and 1.
  for (std::size_t b : {1, 3, 8, 13, 16, 40}) {
    for (std::size_t states : {1, 7, 37, 64}) {
      const nested::ViterbiProblem prob{states, 5, 8, 11 + states};
      const auto ref = gs::baseline::reference_viterbi(prob);
      for (auto schedule : {ScheduleMode::kBarrier, ScheduleMode::kDataflow}) {
        RunConfig rc;
        rc.strategy = Strategy::kInMemory;
        rc.schedule = schedule;
        EXPECT_TRUE(run_nested<ViterbiWorkload>(prob, b, rc) == ref)
            << "b=" << b << " states=" << states << " "
            << gepspark::schedule_name(schedule);
      }
    }
  }
}

TEST(NestedDifferential, ViterbiPlanTransitionTableLayout) {
  const nested::ViterbiProblem prob{37, 4, 8, 3};
  const nested::ViterbiPlan plan(prob, 5);
  // Real predecessor rows × every state column the kernels evaluate (8
  // segments of 5, so 3 padded columns), holding the pure log_trans values.
  ASSERT_EQ(plan.stride(), 40u);
  ASSERT_EQ(plan.log_trans_table().size(), 37u * 40u);
  EXPECT_EQ(plan.log_trans_table()[36 * 40 + 39], prob.log_trans(36, 39));
}

// kBarrier on a wavefront plan is the engine at lookahead 0: the default
// schedule and an explicit dataflow lookahead-0 solve return the same table
// from the same stages, tasks and modelled bytes.
template <typename W>
void expect_barrier_is_lookahead_zero(const NestedCase& c) {
  const auto prob = W::problem(c);
  for (auto strategy : {Strategy::kInMemory, Strategy::kCollectBroadcast}) {
    RunConfig barrier;
    barrier.strategy = strategy;
    ASSERT_EQ(barrier.schedule, SolverOptions{}.schedule);
    RunConfig la0 = barrier;
    la0.schedule = ScheduleMode::kDataflow;
    la0.lookahead = 0;
    const auto a = solve_nested<W>(prob, c.block, barrier);
    const auto b = solve_nested<W>(prob, c.block, la0);
    const std::string what = gs::strfmt("%s %s", W::Plan::name(),
                                        gepspark::strategy_name(strategy));
    EXPECT_TRUE(a.matrix == b.matrix) << what;
    EXPECT_EQ(a.profile.stages, b.profile.stages) << what;
    EXPECT_EQ(a.profile.tasks, b.profile.tasks) << what;
    EXPECT_EQ(a.profile.shuffle_bytes, b.profile.shuffle_bytes) << what;
    EXPECT_EQ(a.profile.collect_bytes, b.profile.collect_bytes) << what;
    EXPECT_EQ(a.profile.broadcast_bytes, b.profile.broadcast_bytes) << what;
  }
}

TEST(NestedDifferential, BarrierScheduleIsTheEngineAtLookaheadZero) {
  expect_barrier_is_lookahead_zero<GapWorkload>({33, 8, 21});
  expect_barrier_is_lookahead_zero<AccordionWorkload>({34, 8, 22});
  expect_barrier_is_lookahead_zero<ViterbiWorkload>({24, 8, 23});
  expect_barrier_is_lookahead_zero<ParenWorkload>({31, 8, 24});
  expect_barrier_is_lookahead_zero<AlignLocalWorkload>({40, 8, 25});
}

TEST(NestedDifferential, EmptyAccordionProblemYieldsEmptyTable) {
  // n=0: zero tiles, zero waves — every path must degrade to a 0x0 table
  // without touching the task machinery.
  const nested::AccordionProblem prob{0, 1};
  const auto ref = gs::baseline::reference_accordion(prob);
  EXPECT_EQ(ref.rows(), 0u);
  for (auto schedule : {ScheduleMode::kBarrier, ScheduleMode::kDataflow}) {
    RunConfig rc;
    rc.schedule = schedule;
    EXPECT_TRUE(run_nested<AccordionWorkload>(prob, 8, rc) == ref);
  }
}

TEST(NestedDifferential, AccordionFoldingOptimumMatchesReference) {
  // The domain-level answer (best fold score), not just the raw table.
  const nested::AccordionProblem prob{23, 99};
  const auto ref = gs::baseline::reference_accordion(prob);
  RunConfig rc;
  rc.schedule = ScheduleMode::kDataflow;
  rc.strategy = Strategy::kInMemory;
  const auto got = run_nested<AccordionWorkload>(prob, 8, rc);
  EXPECT_EQ(nested::accordion_best(got, prob.n),
            nested::accordion_best(ref, prob.n));
  EXPECT_GE(nested::accordion_best(got, prob.n), 0.0);
}

// ---------------------------------------------------------------------------
// Chaos × storage levels: bit-identical recovery on the disk tiers
// ---------------------------------------------------------------------------

ChaosPlan nested_chaos(std::uint64_t seed) {
  ChaosPlan p;
  p.task_failure_prob = 0.1;
  p.max_task_attempts = 12;
  p.executor_kill_prob = 0.4;
  p.max_executor_kills = 1;
  p.fetch_failure_prob = 0.4;
  p.checkpoint_corruption_prob = 0.5;
  p.spill_corruption_prob = 0.5;
  p.max_spill_corruptions = 2;
  p.torn_write_prob = 0.5;
  p.max_torn_writes = 2;
  p.seed = seed;
  return p;
}

template <typename W>
void expect_bit_identical_under_chaos(std::size_t n, std::size_t block) {
  const NestedCase c{n, block, 0x5eed};
  const auto prob = W::problem(c);
  const auto ref = W::reference(prob);
  constexpr double kKiB = 1024.0;
  for (std::uint64_t seed : {5ull, 6ull, 7ull}) {
    for (auto level :
         {StorageLevel::kMemoryAndDisk, StorageLevel::kMemoryAndDiskSer}) {
      const ChaosPlan chaos = nested_chaos(seed);
      for (auto schedule :
           {ScheduleMode::kDataflow, ScheduleMode::kBarrier}) {
        RunConfig rc;
        rc.strategy = seed % 2 == 0 ? Strategy::kCollectBroadcast
                                    : Strategy::kInMemory;
        rc.schedule = schedule;
        rc.lookahead = schedule == ScheduleMode::kDataflow ? 1 : -1;
        rc.interval = 2;
        rc.level = level;
        rc.chaos = &chaos;
        rc.cap_bytes = 4 * kKiB;  // force the spill ladder into play
        rc.nodes = 3;
        const auto got = run_nested<W>(prob, c.block, rc);
        EXPECT_TRUE(got == ref) << gs::strfmt(
            "%s chaos seed=%llu %s %s %s diff=%g", W::Plan::name(),
            static_cast<unsigned long long>(seed),
            sparklet::storage_level_name(level),
            gepspark::strategy_name(rc.strategy),
            gepspark::schedule_name(schedule), gs::max_abs_diff(got, ref));
      }
    }
  }
}

TEST(NestedChaosStorage, GapBitIdenticalAcrossSeedsAndDiskTiers) {
  expect_bit_identical_under_chaos<GapWorkload>(33, 8);
}

TEST(NestedChaosStorage, AccordionBitIdenticalAcrossSeedsAndDiskTiers) {
  expect_bit_identical_under_chaos<AccordionWorkload>(34, 8);
}

TEST(NestedChaosStorage, ViterbiBitIdenticalAcrossSeedsAndDiskTiers) {
  expect_bit_identical_under_chaos<ViterbiWorkload>(24, 8);
}

TEST(NestedChaosStorage, ParenBitIdenticalAcrossSeedsAndDiskTiers) {
  expect_bit_identical_under_chaos<ParenWorkload>(31, 8);
}

TEST(NestedChaosStorage, AlignGlobalMatchesReferenceAcrossSeedsAndDiskTiers) {
  expect_bit_identical_under_chaos<AlignGlobalWorkload>(40, 8);
}

TEST(NestedChaosStorage, AlignLocalMatchesReferenceAcrossSeedsAndDiskTiers) {
  expect_bit_identical_under_chaos<AlignLocalWorkload>(40, 8);
}

// ---------------------------------------------------------------------------
// Soundness: the checker passes every emitted nested schedule
// ---------------------------------------------------------------------------

template <typename W>
Graphs nested_graphs(const typename W::Problem& prob, std::size_t block,
                     Strategy strategy, int lookahead, int interval) {
  SparkContext sc(ClusterConfig::local(2, 2));
  SolverOptions opt;
  opt.block_size = block;
  opt.strategy = strategy;
  opt.schedule = ScheduleMode::kDataflow;
  opt.lookahead = lookahead;
  opt.checkpoint_interval = interval;
  typename W::Plan plan(prob, block);
  auto part = std::make_shared<sparklet::HashPartitioner>(4);
  gepspark::DataflowEngine<typename W::Plan> engine(sc, opt, plan, part);
  Graphs log;
  engine.set_graph_log(&log);
  (void)engine.solve();
  return log;
}

template <typename W>
void expect_nested_schedules_sound(const NestedCase& c) {
  const auto prob = W::problem(c);
  typename W::Plan plan(prob, c.block);
  for (auto strategy : {Strategy::kCollectBroadcast, Strategy::kInMemory}) {
    for (int lookahead : {0, 1, 2}) {
      for (int interval : {0, 1, 2}) {
        ScheduleCheckOptions copt;
        copt.lookahead = lookahead;
        copt.in_memory = strategy == Strategy::kInMemory;
        copt.checkpoint_interval = interval;
        const auto report = analysis::check_dataflow_schedule(
            plan.workload(), copt,
            nested_graphs<W>(prob, c.block, strategy, lookahead, interval));
        EXPECT_TRUE(report.ok())
            << W::Plan::name() << " " << gepspark::strategy_name(strategy)
            << " lookahead=" << lookahead << " interval=" << interval << "\n"
            << report.summary();
        EXPECT_GT(report.tasks, 0);
      }
    }
  }
}

TEST(NestedScheduleCheck, GapSchedulesAreSound) {
  expect_nested_schedules_sound<GapWorkload>({23, 8, 3});  // r=3, 5 waves
}

TEST(NestedScheduleCheck, AccordionSchedulesAreSound) {
  expect_nested_schedules_sound<AccordionWorkload>({24, 8, 3});  // r=3
}

TEST(NestedScheduleCheck, ViterbiSchedulesAreSound) {
  expect_nested_schedules_sound<ViterbiWorkload>({12, 8, 3});  // 6x2 trellis
}

TEST(NestedScheduleCheck, ParenSchedulesAreSound) {
  expect_nested_schedules_sound<ParenWorkload>({31, 8, 3});  // r=4
}

TEST(NestedScheduleCheck, AlignSchedulesAreSound) {
  expect_nested_schedules_sound<AlignLocalWorkload>({40, 8, 23});  // 5x3 grid
}

TEST(NestedScheduleCheck, ImGapSchedulesContainTransfers) {
  const nested::GapProblem prob{23, 3};
  nested::GapPlan plan(prob, 8);
  ScheduleCheckOptions copt;
  copt.lookahead = 1;
  copt.in_memory = true;
  copt.checkpoint_interval = 0;
  const auto report = analysis::check_dataflow_schedule(
      plan.workload(), copt,
      nested_graphs<GapWorkload>(prob, 8, Strategy::kInMemory, 1, 0));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.transfers, 0)
      << "IM wavefronts on a 2x2-executor cluster must route cross-executor "
         "edges through transfer tasks";
}

// ---------------------------------------------------------------------------
// Soundness: one targeted mutation per workload, rejected precisely
// ---------------------------------------------------------------------------

int find_task(const std::vector<DataflowTaskSpec>& g, char kind, int k, int i,
              int j) {
  for (std::size_t t = 0; t < g.size(); ++t) {
    if (g[t].gep_kind == kind && g[t].gep_k == k && g[t].tile_i == i &&
        g[t].tile_j == j) {
      return static_cast<int>(t);
    }
  }
  return -1;
}

void drop_edge(std::vector<DataflowTaskSpec>& g, int reader, int producer) {
  auto& deps = g[static_cast<std::size_t>(reader)].deps;
  const auto it = std::find(deps.begin(), deps.end(), producer);
  ASSERT_NE(it, deps.end()) << "engine must emit the data edge being mutated";
  deps.erase(it);
}

TEST(NestedScheduleCheckNegative, GapDroppedRowPrefixEdgeIsUnorderedRead) {
  // G(1,1)@wave2 reads G(1,0)@wave1. At lookahead 2 the wave-2 tasks have no
  // fence gate, and the surviving deps ((0,1), (0,0)) have no path to (1,0),
  // so dropping the edge leaves exactly that read unordered.
  const nested::GapProblem prob{23, 3};  // table 24, block 8 → r=3
  nested::GapPlan plan(prob, 8);
  auto log = nested_graphs<GapWorkload>(prob, 8,
                                        Strategy::kCollectBroadcast, 2, 0);
  ASSERT_EQ(log.size(), 1u);
  const int reader = find_task(log.front(), 'G', 2, 1, 1);
  const int producer = find_task(log.front(), 'G', 1, 1, 0);
  ASSERT_GE(reader, 0);
  ASSERT_GE(producer, 0);
  drop_edge(log.front(), reader, producer);

  ScheduleCheckOptions copt;
  copt.lookahead = 2;
  copt.in_memory = false;
  copt.checkpoint_interval = 0;
  const auto report =
      analysis::check_dataflow_schedule(plan.workload(), copt, log);
  ASSERT_EQ(report.violations.size(), 1u) << report.summary();
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.kind, ViolationKind::kUnorderedRead);
  EXPECT_EQ(v.task, reader);
  EXPECT_EQ(v.other, producer);
  EXPECT_NE(v.message.find("missing"), std::string::npos) << v.message;
}

TEST(NestedScheduleCheckNegative, AccordionDroppedDiagEdgeIsUnorderedRead) {
  // The same-wave phase ordering is the accordion's whole point: panel
  // P(2,1)@wave1 must read the diagonal E(1,1) computed in the SAME wave.
  // At lookahead 0 the panel's fence gate anchors on wave 0, so no fence
  // restores the dropped edge transitively.
  const nested::AccordionProblem prob{24, 3};  // block 8 → r=3
  nested::AccordionPlan plan(prob, 8);
  auto log = nested_graphs<AccordionWorkload>(
      prob, 8, Strategy::kCollectBroadcast, 0, 0);
  ASSERT_EQ(log.size(), 1u);
  const int panel = find_task(log.front(), 'P', 1, 2, 1);
  const int diag = find_task(log.front(), 'E', 1, 1, 1);
  ASSERT_GE(panel, 0);
  ASSERT_GE(diag, 0);
  drop_edge(log.front(), panel, diag);

  ScheduleCheckOptions copt;
  copt.lookahead = 0;
  copt.in_memory = false;
  copt.checkpoint_interval = 0;
  const auto report =
      analysis::check_dataflow_schedule(plan.workload(), copt, log);
  ASSERT_EQ(report.violations.size(), 1u) << report.summary();
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.kind, ViolationKind::kUnorderedRead);
  EXPECT_EQ(v.task, panel);
  EXPECT_EQ(v.other, diag);
}

ScheduleCheckReport check_cb(const analysis::ScheduleWorkload& workload,
                             int lookahead, const Graphs& log) {
  ScheduleCheckOptions copt;
  copt.lookahead = lookahead;
  copt.in_memory = false;
  copt.checkpoint_interval = 0;
  return analysis::check_dataflow_schedule(workload, copt, log);
}

TEST(NestedScheduleCheckNegative, ParenDroppedMiddleBlockEdgeIsUnorderedRead) {
  // I(0,2)@wave2 reads the middle block I(0,1)@wave1. At lookahead 1 the
  // wave-2 tasks are gated only on fence(0), and none of the surviving
  // reads ((1,2), (0,0), (2,2)) has a path from (0,1).
  const auto prob = ParenWorkload::problem({31, 8, 3});  // 32 posts → r=4
  const ParenWorkload::Plan plan(prob, 8);
  auto log = nested_graphs<ParenWorkload>(prob, 8,
                                          Strategy::kCollectBroadcast, 1, 0);
  ASSERT_EQ(log.size(), 1u);
  const int reader = find_task(log.front(), 'I', 2, 0, 2);
  const int producer = find_task(log.front(), 'I', 1, 0, 1);
  ASSERT_GE(reader, 0);
  ASSERT_GE(producer, 0);
  drop_edge(log.front(), reader, producer);

  const auto report = check_cb(plan.workload(), 1, log);
  ASSERT_EQ(report.violations.size(), 1u) << report.summary();
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.kind, ViolationKind::kUnorderedRead);
  EXPECT_EQ(v.task, reader);
  EXPECT_EQ(v.other, producer);
}

TEST(NestedScheduleCheckNegative, AlignDroppedNeighbourEdgeIsUnorderedRead) {
  // S(1,1)@wave2 reads above (0,1), left (1,0) and the corner (0,0). The
  // corner edge alone is redundant: (0,0) reaches (1,1) through both
  // neighbours, so dropping it leaves the schedule sound. Dropping the
  // above edge as well leaves that read unordered at lookahead 1.
  const auto prob = AlignLocalWorkload::problem({40, 8, 23});  // 5x3 grid
  const align::AlignPlan plan(prob, 8);
  auto log = nested_graphs<AlignLocalWorkload>(
      prob, 8, Strategy::kCollectBroadcast, 1, 0);
  ASSERT_EQ(log.size(), 1u);
  const int reader = find_task(log.front(), 'S', 2, 1, 1);
  const int above = find_task(log.front(), 'S', 1, 0, 1);
  const int corner = find_task(log.front(), 'S', 0, 0, 0);
  ASSERT_GE(reader, 0);
  ASSERT_GE(above, 0);
  ASSERT_GE(corner, 0);
  drop_edge(log.front(), reader, corner);
  const auto redundant = check_cb(plan.workload(), 1, log);
  EXPECT_TRUE(redundant.ok()) << redundant.summary();

  drop_edge(log.front(), reader, above);
  const auto report = check_cb(plan.workload(), 1, log);
  ASSERT_EQ(report.violations.size(), 1u) << report.summary();
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.kind, ViolationKind::kUnorderedRead);
  EXPECT_EQ(v.task, reader);
  EXPECT_EQ(v.other, above);
}

TEST(NestedScheduleCheckNegative, ParenAndAlignKindsAreBadMetadataElsewhere) {
  auto expect_bad_metadata = [](const ScheduleCheckReport& report) {
    ASSERT_FALSE(report.ok());
    bool saw = false;
    for (const auto& v : report.violations) {
      saw |= v.kind == ViolationKind::kBadMetadata;
    }
    EXPECT_TRUE(saw) << report.summary();
  };
  // A paren kind inside a GAP graph, an align kind inside a paren graph, a
  // paren kind inside an align graph.
  {
    const nested::GapProblem prob{23, 3};
    auto log = nested_graphs<GapWorkload>(prob, 8,
                                          Strategy::kCollectBroadcast, 1, 0);
    const int t = find_task(log.front(), 'G', 0, 0, 0);
    ASSERT_GE(t, 0);
    log.front()[static_cast<std::size_t>(t)].gep_kind = 'I';
    expect_bad_metadata(check_cb(nested::GapPlan(prob, 8).workload(), 1, log));
  }
  {
    const auto prob = ParenWorkload::problem({31, 8, 3});
    auto log = nested_graphs<ParenWorkload>(prob, 8,
                                            Strategy::kCollectBroadcast, 1, 0);
    const int t = find_task(log.front(), 'I', 1, 0, 1);
    ASSERT_GE(t, 0);
    log.front()[static_cast<std::size_t>(t)].gep_kind = 'S';
    expect_bad_metadata(
        check_cb(ParenWorkload::Plan(prob, 8).workload(), 1, log));
  }
  {
    const auto prob = AlignLocalWorkload::problem({40, 8, 23});
    auto log = nested_graphs<AlignLocalWorkload>(
        prob, 8, Strategy::kCollectBroadcast, 1, 0);
    const int t = find_task(log.front(), 'S', 1, 1, 0);
    ASSERT_GE(t, 0);
    log.front()[static_cast<std::size_t>(t)].gep_kind = 'I';
    expect_bad_metadata(check_cb(align::AlignPlan(prob, 8).workload(), 1, log));
  }
}

TEST(NestedScheduleCheckNegative, ViterbiDeeperPipelineIsLookaheadOverrun) {
  // A trellis graph built with lookahead 2, audited as if lookahead were 0:
  // wave t tasks are data-ordered after every wave t-1 TASK but not after
  // the wave t-1 FENCE, so every gated wave overruns the stricter policy.
  const nested::ViterbiProblem prob{12, 4, 8, 7};  // 5 rows × r=2
  nested::ViterbiPlan plan(prob, 8);
  auto log = nested_graphs<ViterbiWorkload>(
      prob, 8, Strategy::kCollectBroadcast, 2, 0);
  ScheduleCheckOptions copt;
  copt.lookahead = 0;
  copt.in_memory = false;
  copt.checkpoint_interval = 0;
  const auto report =
      analysis::check_dataflow_schedule(plan.workload(), copt, log);
  ASSERT_FALSE(report.ok());
  for (const auto& v : report.violations) {
    EXPECT_EQ(v.kind, ViolationKind::kLookaheadOverrun) << v.message;
  }
}

TEST(NestedScheduleCheckNegative, WrongShapeKernelKindIsBadMetadata) {
  // A task claiming a GEP kernel kind inside a GAP-shaped workload is bad
  // metadata even when the graph edges are untouched.
  const nested::GapProblem prob{23, 3};
  nested::GapPlan plan(prob, 8);
  auto log = nested_graphs<GapWorkload>(prob, 8,
                                        Strategy::kCollectBroadcast, 1, 0);
  const int t = find_task(log.front(), 'G', 0, 0, 0);
  ASSERT_GE(t, 0);
  log.front()[static_cast<std::size_t>(t)].gep_kind = 'D';

  ScheduleCheckOptions copt;
  copt.lookahead = 1;
  copt.in_memory = false;
  copt.checkpoint_interval = 0;
  const auto report =
      analysis::check_dataflow_schedule(plan.workload(), copt, log);
  ASSERT_FALSE(report.ok());
  bool saw_bad_metadata = false;
  for (const auto& v : report.violations) {
    saw_bad_metadata |= v.kind == ViolationKind::kBadMetadata;
  }
  EXPECT_TRUE(saw_bad_metadata) << report.summary();
}

// ---------------------------------------------------------------------------
// End-to-end: race detector + driver-side validate_schedule under chaos
// ---------------------------------------------------------------------------

template <typename W>
void expect_race_free_chaos_solve(const typename W::Problem& prob,
                                  std::size_t block) {
  SparkContext sc(ClusterConfig::local(2, 2));
  ChaosPlan chaos;
  chaos.task_failure_prob = 0.05;
  chaos.max_task_attempts = 8;
  chaos.executor_kill_prob = 0.5;
  chaos.max_executor_kills = 2;
  chaos.fetch_failure_prob = 0.3;
  chaos.checkpoint_corruption_prob = 0.5;
  chaos.seed = 42;
  sc.set_chaos_plan(chaos);

  analysis::HbDetector det;
  sc.set_race_detector(&det);

  SolverOptions opt;
  opt.block_size = block;
  opt.strategy = Strategy::kInMemory;
  opt.schedule = ScheduleMode::kDataflow;
  opt.lookahead = 2;
  opt.checkpoint_interval = 2;
  opt.validate_schedule = true;  // the driver-side static audit runs too

  typename W::Plan plan(prob, block);
  const auto out = nested::nested_solve(sc, plan, opt);
  EXPECT_TRUE(out.matrix == W::reference(prob));
  EXPECT_EQ(det.races_found(), 0u) << det.summary();
}

TEST(NestedAnalysisEndToEnd, GapChaosSolveIsRaceFreeAndSound) {
  expect_race_free_chaos_solve<GapWorkload>(nested::GapProblem{31, 9}, 8);
}

TEST(NestedAnalysisEndToEnd, AccordionChaosSolveIsRaceFreeAndSound) {
  expect_race_free_chaos_solve<AccordionWorkload>(
      nested::AccordionProblem{32, 9}, 8);
}

TEST(NestedAnalysisEndToEnd, ViterbiChaosSolveIsRaceFreeAndSound) {
  expect_race_free_chaos_solve<ViterbiWorkload>(
      nested::ViterbiProblem{16, 5, 8, 9}, 8);
}

TEST(NestedAnalysisEndToEnd, ParenChaosSolveIsRaceFreeAndSound) {
  expect_race_free_chaos_solve<ParenWorkload>(
      ParenWorkload::problem({30, 8, 9}), 8);
}

TEST(NestedAnalysisEndToEnd, AlignChaosSolveIsRaceFreeAndSound) {
  expect_race_free_chaos_solve<AlignLocalWorkload>(
      AlignLocalWorkload::problem({37, 8, 9}), 8);
}

TEST(NestedOptions, GepOnlyKnobsAreRejected) {
  SparkContext sc(ClusterConfig::local(2, 2));
  const nested::GapProblem prob{8, 1};
  nested::GapPlan plan(prob, 4);
  {
    SolverOptions opt;
    opt.fused_d = true;
    EXPECT_THROW(nested::nested_solve(sc, plan, opt), gs::ConfigError);
  }
  {
    SolverOptions opt;
    opt.track_predecessors = true;
    EXPECT_THROW(nested::nested_solve(sc, plan, opt), gs::ConfigError);
  }
}

TEST(NestedOptions, JobNameSaysWhatRuns) {
  // Default options: barrier schedule = the engine at lookahead 0. The GEP
  // kernel setting plays no part in a plan's solve, so the name omits it.
  SparkContext sc(ClusterConfig::local(2, 2));
  const nested::GapProblem prob{16, 1};
  const auto res = nested::nested_solve(sc, nested::GapPlan(prob, 8),
                                        SolverOptions{});
  EXPECT_EQ(res.profile.job, "gap IM b=8 lookahead=0 MEMORY_ONLY");
  EXPECT_EQ(res.profile.job.find(SolverOptions{}.kernel.describe()),
            std::string::npos);

  SolverOptions opt;
  opt.strategy = Strategy::kCollectBroadcast;
  opt.schedule = ScheduleMode::kDataflow;
  opt.storage_level = sparklet::StorageLevel::kMemoryAndDiskSer;
  EXPECT_EQ(nested::nested_solve(sc, nested::GapPlan(prob, 8), opt).profile.job,
            "gap CB b=8 lookahead=1 MEMORY_AND_DISK_SER");
}

}  // namespace

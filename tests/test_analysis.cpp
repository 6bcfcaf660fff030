// Analysis subsystem tests (static schedule checker + happens-before race
// detector): the checker must pass every schedule the engine actually ships
// (FW/GE/TC × IM/CB × lookahead 0–3 × checkpoint segmentation) and report
// exactly the violation injected by targeted graph mutations (dropped B→D
// edge, unordered rewrite, bypassed transfer, broken fence, over-deep
// pipeline); the detector must flag a deliberately racy task pair, stay
// clean across 200+ random stress DAGs and real chaos-recovery runs, and
// order driver-era accesses against graph eras without false positives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/hb_detector.hpp"
#include "analysis/schedule_check.hpp"
#include "gepspark/dataflow.hpp"
#include "gepspark/driver.hpp"
#include "gepspark/solver.hpp"
#include "semiring/gep_spec.hpp"
#include "sparklet/context.hpp"
#include "sparklet/task_graph.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace {

using analysis::HbDetector;
using analysis::ScheduleCheckOptions;
using analysis::ScheduleCheckReport;
using analysis::Violation;
using analysis::ViolationKind;
using sparklet::ClusterConfig;
using sparklet::DataflowTaskSpec;
using sparklet::SparkContext;

using Graphs = std::vector<std::vector<DataflowTaskSpec>>;

// Run the real engine and capture the per-segment graphs it emits.
template <typename Spec>
Graphs engine_graphs(int r, gepspark::Strategy strategy, int lookahead,
                     int checkpoint_interval, bool fused_d = false) {
  const int block = 16;
  SparkContext sc(ClusterConfig::local(2, 2));
  gepspark::SolverOptions opt;
  opt.block_size = static_cast<std::size_t>(block);
  opt.strategy = strategy;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.lookahead = lookahead;
  opt.checkpoint_interval = checkpoint_interval;
  opt.fused_d = fused_d;
  opt.validate();

  auto input = gs::testutil::random_input<Spec>(
      static_cast<std::size_t>(r * block));
  gs::TileGrid<typename Spec::value_type> grid(
      input, opt.block_size, Spec::pad_diag(), Spec::pad_off());
  auto kernels = std::make_shared<const gs::GepKernels<Spec>>(opt.kernel);
  auto part = std::make_shared<sparklet::HashPartitioner>(4);

  Graphs log;
  const gepspark::GepPlan<Spec> plan(kernels, grid, opt.fused_d);
  gepspark::DataflowEngine<gepspark::GepPlan<Spec>> engine(sc, opt, plan, part);
  engine.set_graph_log(&log);
  (void)engine.solve();
  return log;
}

template <typename Spec>
ScheduleCheckReport check_engine(int r, gepspark::Strategy strategy,
                                 int lookahead, int checkpoint_interval,
                                 bool fused_d = false) {
  ScheduleCheckOptions opt;
  opt.lookahead = lookahead;
  opt.in_memory = strategy == gepspark::Strategy::kInMemory;
  opt.checkpoint_interval = checkpoint_interval;
  return analysis::check_dataflow_schedule(
      analysis::make_schedule_workload<Spec>(r), opt,
      engine_graphs<Spec>(r, strategy, lookahead, checkpoint_interval,
                          fused_d));
}

std::vector<ViolationKind> kinds(const ScheduleCheckReport& report) {
  std::vector<ViolationKind> out;
  out.reserve(report.violations.size());
  for (const auto& v : report.violations) out.push_back(v.kind);
  return out;
}

// ---------------------------------------------------------------------------
// Static checker: every shipped schedule is sound
// ---------------------------------------------------------------------------

template <typename Spec>
void expect_all_schedules_sound() {
  for (auto strategy : {gepspark::Strategy::kCollectBroadcast,
                        gepspark::Strategy::kInMemory}) {
    for (int lookahead = 0; lookahead <= 3; ++lookahead) {
      for (int interval : {0, 1, 2}) {
        const auto report =
            check_engine<Spec>(5, strategy, lookahead, interval);
        EXPECT_TRUE(report.ok())
            << gepspark::strategy_name(strategy) << " lookahead=" << lookahead
            << " interval=" << interval << "\n"
            << report.summary();
        EXPECT_GT(report.tasks, 0);
        EXPECT_GT(report.reads, 0);
      }
    }
  }
}

TEST(ScheduleCheck, FloydWarshallSchedulesAreSound) {
  expect_all_schedules_sound<gs::FloydWarshallSpec>();
}

TEST(ScheduleCheck, GaussianEliminationSchedulesAreSound) {
  expect_all_schedules_sound<gs::GaussianEliminationSpec>();
}

TEST(ScheduleCheck, TransitiveClosureSchedulesAreSound) {
  expect_all_schedules_sound<gs::TransitiveClosureSpec>();
}

TEST(ScheduleCheck, ImSchedulesContainTransfers) {
  const auto report = check_engine<gs::FloydWarshallSpec>(
      4, gepspark::Strategy::kInMemory, 1, 0);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.transfers, 0)
      << "IM on a 2x2-executor cluster must route cross-executor edges "
         "through transfer tasks";
}

TEST(ScheduleCheck, SegmentCountMismatchThrows) {
  auto log = engine_graphs<gs::FloydWarshallSpec>(
      4, gepspark::Strategy::kCollectBroadcast, 1, 2);
  ASSERT_EQ(log.size(), 2u);
  log.pop_back();
  ScheduleCheckOptions opt;
  opt.checkpoint_interval = 2;
  EXPECT_THROW(analysis::check_dataflow_schedule(
                   analysis::make_schedule_workload<gs::FloydWarshallSpec>(4),
                   opt, log),
               gs::ConfigError);
}

// ---------------------------------------------------------------------------
// Static checker: injected violations are caught, precisely
// ---------------------------------------------------------------------------

struct MutationFixture {
  Graphs log;  // CB FW r=4, lookahead 1, single segment — indices are stable
  ScheduleCheckOptions opt;

  MutationFixture() {
    log = engine_graphs<gs::FloydWarshallSpec>(
        4, gepspark::Strategy::kCollectBroadcast, 1, 0);
    opt.lookahead = 1;
    opt.in_memory = false;
    opt.checkpoint_interval = 0;
  }

  ScheduleCheckReport check() const {
    return analysis::check_dataflow_schedule(
        analysis::make_schedule_workload<gs::FloydWarshallSpec>(4), opt, log);
  }

  std::vector<DataflowTaskSpec>& graph() { return log.front(); }

  int find_task(char kind, int k, int i, int j) const {
    const auto& g = log.front();
    for (std::size_t t = 0; t < g.size(); ++t) {
      if (g[t].gep_kind == kind && g[t].gep_k == k && g[t].tile_i == i &&
          g[t].tile_j == j) {
        return static_cast<int>(t);
      }
    }
    return -1;
  }

  int find_fence(int k) const {
    const auto& g = log.front();
    for (std::size_t t = 0; t < g.size(); ++t) {
      if (g[t].gep_kind == 'F' && g[t].gep_k == k) return static_cast<int>(t);
    }
    return -1;
  }
};

TEST(ScheduleCheckNegative, ValidBaselinePasses) {
  MutationFixture fx;
  EXPECT_TRUE(fx.check().ok()) << fx.check().summary();
}

TEST(ScheduleCheckNegative, DroppedBtoDEdgeIsExactlyOneUnorderedRead) {
  MutationFixture fx;
  // D(1,2)@k=0 consumes v = B(0,2)@k=0; dropping that edge leaves the read
  // with no happens-before path (self/u edges don't reach B, and the k=0
  // tasks have no fence gate).
  const int d = fx.find_task('D', 0, 1, 2);
  const int b = fx.find_task('B', 0, 0, 2);
  ASSERT_GE(d, 0);
  ASSERT_GE(b, 0);
  auto& deps = fx.graph()[static_cast<std::size_t>(d)].deps;
  const auto it = std::find(deps.begin(), deps.end(), b);
  ASSERT_NE(it, deps.end()) << "engine must emit the B->D edge";
  deps.erase(it);

  const auto report = fx.check();
  ASSERT_EQ(report.violations.size(), 1u) << report.summary();
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.kind, ViolationKind::kUnorderedRead);
  EXPECT_EQ(v.task, d);
  EXPECT_EQ(v.other, b);
  // The message must be actionable: name both tasks and the missing edge.
  EXPECT_NE(v.message.find("BCRecGE"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("missing"), std::string::npos) << v.message;
}

TEST(ScheduleCheckNegative, ReorderedWriteIsCaught) {
  MutationFixture fx;
  // Tile (2,3) is written by D at k=0 and rewritten by D at k=1, and the
  // self edge is the ONLY path between them — unlike pivot-row/column
  // rewrites, which stay transitively ordered through A(k+1)'s lineage.
  // Cutting it leaves both the version read and the write-write pair
  // unordered.
  const int d0 = fx.find_task('D', 0, 2, 3);
  const int d1 = fx.find_task('D', 1, 2, 3);
  ASSERT_GE(d0, 0);
  ASSERT_GE(d1, 0);
  auto& deps = fx.graph()[static_cast<std::size_t>(d1)].deps;
  const auto it = std::find(deps.begin(), deps.end(), d0);
  ASSERT_NE(it, deps.end());
  deps.erase(it);

  const auto report = fx.check();
  ASSERT_EQ(report.violations.size(), 2u) << report.summary();
  const auto ks = kinds(report);
  EXPECT_NE(std::find(ks.begin(), ks.end(), ViolationKind::kUnorderedRead),
            ks.end())
      << report.summary();
  EXPECT_NE(std::find(ks.begin(), ks.end(), ViolationKind::kUnorderedWrite),
            ks.end())
      << report.summary();
  for (const auto& v : report.violations) {
    EXPECT_EQ(v.task, d1) << "every violation must point at the mutated task";
    EXPECT_EQ(v.other, d0);
  }
}

TEST(ScheduleCheckNegative, BypassedTransferIsExactlyOneMissingTransfer) {
  // IM graph: rewire one consumer of a transfer task to read the producer
  // directly. The read is still happens-before ordered (direct edge), but
  // the modeled shuffle fetch is gone — communication infidelity.
  Graphs log = engine_graphs<gs::FloydWarshallSpec>(
      4, gepspark::Strategy::kInMemory, 1, 0);
  auto& g = log.front();
  int xfer = -1, reader = -1;
  for (std::size_t t = 0; t < g.size() && xfer < 0; ++t) {
    if (g[t].gep_kind != 'X') continue;
    for (std::size_t u = t + 1; u < g.size() && xfer < 0; ++u) {
      if (g[u].gep_kind == 'A' || g[u].gep_kind == 'B' ||
          g[u].gep_kind == 'C' || g[u].gep_kind == 'D') {
        auto& deps = g[u].deps;
        auto it = std::find(deps.begin(), deps.end(), static_cast<int>(t));
        if (it != deps.end()) {
          xfer = static_cast<int>(t);
          reader = static_cast<int>(u);
          *it = g[t].deps.front();  // skip the transfer, read the producer
        }
      }
    }
  }
  ASSERT_GE(xfer, 0) << "IM graph must contain consumed transfer tasks";

  ScheduleCheckOptions opt;
  opt.lookahead = 1;
  opt.in_memory = true;
  opt.checkpoint_interval = 0;
  const auto report = analysis::check_dataflow_schedule(
      analysis::make_schedule_workload<gs::FloydWarshallSpec>(4), opt, log);
  ASSERT_EQ(report.violations.size(), 1u) << report.summary();
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.kind, ViolationKind::kMissingTransfer);
  EXPECT_EQ(v.task, reader);
  EXPECT_NE(v.message.find("transfer"), std::string::npos) << v.message;
}

TEST(ScheduleCheckNegative, BrokenFenceIsExactlyOneFenceIncomplete) {
  MutationFixture fx;
  // Remove one D task from its iteration's fence: direct data edges still
  // order every read, but the lookahead anchor no longer covers the task.
  const int d = fx.find_task('D', 0, 3, 3);
  const int fence = fx.find_fence(0);
  ASSERT_GE(d, 0);
  ASSERT_GE(fence, 0);
  auto& deps = fx.graph()[static_cast<std::size_t>(fence)].deps;
  const auto it = std::find(deps.begin(), deps.end(), d);
  ASSERT_NE(it, deps.end());
  deps.erase(it);

  const auto report = fx.check();
  ASSERT_EQ(report.violations.size(), 1u) << report.summary();
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.kind, ViolationKind::kFenceIncomplete);
  EXPECT_EQ(v.task, fence);
  EXPECT_EQ(v.other, d);
}

TEST(ScheduleCheckNegative, DeeperPipelineThanClaimedIsLookaheadOverrun) {
  // A graph built with lookahead 2, audited against a claimed lookahead of
  // 0, must report overruns: tasks may start before the fence the stricter
  // policy anchors them on.
  Graphs log = engine_graphs<gs::FloydWarshallSpec>(
      4, gepspark::Strategy::kCollectBroadcast, 2, 0);
  ScheduleCheckOptions opt;
  opt.lookahead = 0;
  opt.in_memory = false;
  opt.checkpoint_interval = 0;
  const auto report = analysis::check_dataflow_schedule(
      analysis::make_schedule_workload<gs::FloydWarshallSpec>(4), opt, log);
  ASSERT_FALSE(report.ok());
  for (const auto& v : report.violations) {
    EXPECT_EQ(v.kind, ViolationKind::kLookaheadOverrun) << v.message;
  }
}

TEST(ScheduleCheckNegative, ForgedMetadataIsCaught) {
  MutationFixture fx;
  // A task claiming a tile the schedule never assigns it is flagged even
  // though the graph's edge structure is untouched.
  const int d = fx.find_task('D', 0, 1, 1);
  ASSERT_GE(d, 0);
  fx.graph()[static_cast<std::size_t>(d)].tile_i = 0;  // now claims (0,1)

  const auto report = fx.check();
  ASSERT_FALSE(report.ok());
  const auto ks = kinds(report);
  // (0,1)@0 now has two claimants (B and the forged D) and (1,1)@0 has none.
  EXPECT_NE(std::find(ks.begin(), ks.end(), ViolationKind::kDuplicateWrite),
            ks.end())
      << report.summary();
  EXPECT_NE(std::find(ks.begin(), ks.end(), ViolationKind::kMissingTask),
            ks.end())
      << report.summary();
}

TEST(ScheduleCheckNegative, StrippedMetadataIsBadMetadata) {
  MutationFixture fx;
  fx.graph()[1].gep_kind = 0;  // task can no longer be identified
  const auto report = fx.check();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.front().kind, ViolationKind::kBadMetadata);
}

// ---------------------------------------------------------------------------
// Static checker: batched D tasks (fused backend)
// ---------------------------------------------------------------------------

// A batched graph's D tasks write many tiles each; the checker derives the
// footprint as the union over members, so every shipped batched schedule
// must pass unchanged.
template <typename Spec>
void expect_fused_schedules_sound() {
  for (auto strategy : {gepspark::Strategy::kCollectBroadcast,
                        gepspark::Strategy::kInMemory}) {
    for (int lookahead : {0, 1, 2}) {
      for (int interval : {0, 2}) {
        const auto report = check_engine<Spec>(5, strategy, lookahead,
                                               interval, /*fused_d=*/true);
        EXPECT_TRUE(report.ok())
            << gepspark::strategy_name(strategy) << " lookahead=" << lookahead
            << " interval=" << interval << " fused\n"
            << report.summary();
      }
    }
  }
}

TEST(ScheduleCheckFused, FloydWarshallBatchedSchedulesAreSound) {
  expect_fused_schedules_sound<gs::FloydWarshallSpec>();
}

TEST(ScheduleCheckFused, GaussianEliminationBatchedSchedulesAreSound) {
  expect_fused_schedules_sound<gs::GaussianEliminationSpec>();
}

TEST(ScheduleCheckFused, BatchedGraphsActuallyContainBatches) {
  auto log = engine_graphs<gs::FloydWarshallSpec>(
      4, gepspark::Strategy::kCollectBroadcast, 1, 0, /*fused_d=*/true);
  ASSERT_EQ(log.size(), 1u);
  std::size_t batches = 0, members = 0;
  for (const auto& t : log.front()) {
    if (t.batch.empty()) {
      EXPECT_NE(t.gep_kind, 'D') << "per-tile D task in a fused graph";
      continue;
    }
    EXPECT_EQ(t.gep_kind, 'D');
    EXPECT_EQ(t.tile_i, -1);
    EXPECT_EQ(t.tile_j, -1);
    ++batches;
    members += t.batch.size();
  }
  EXPECT_GT(batches, 0u);
  // Every per-tile D task became a batch member: Σ_k |D(k)|, nothing lost.
  std::size_t expected_members = 0;
  const gepspark::GridRanges ranges(4, /*strict_sigma=*/false);
  for (int k = 0; k < 4; ++k) {
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (ranges.is_d(gs::TileKey{i, j}, k)) ++expected_members;
      }
    }
  }
  EXPECT_EQ(members, expected_members);
}

TEST(ScheduleCheckFused, SmuggledWrongIterationMemberIsCaught) {
  // Batch footprints are audited member by member: moving a trailing tile
  // from its k=0 batch into a k=1 batch must surface as exactly one
  // duplicate write at k=1 (the tile's legitimate k=1 writer registers it
  // too) plus one missing task at k=0 (the schedule still demands the tile
  // there).
  auto log = engine_graphs<gs::GaussianEliminationSpec>(
      4, gepspark::Strategy::kCollectBroadcast, 1, 0, /*fused_d=*/true);
  ASSERT_EQ(log.size(), 1u);
  auto& g = log.front();

  // Source: a k=0 batch with >=2 members, one of which (i,j >= 2) is also in
  // the D range of k=1 so the smuggled write collides there rather than
  // falling outside the range. Destination: any k=1 batch.
  int src = -1, dst = -1;
  std::size_t victim = 0;
  for (std::size_t t = 0; t < g.size(); ++t) {
    if (g[t].batch.empty() || g[t].gep_kind != 'D') continue;
    if (g[t].gep_k == 0 && g[t].batch.size() >= 2 && src < 0) {
      for (std::size_t m = 0; m < g[t].batch.size(); ++m) {
        if (g[t].batch[m].first >= 2 && g[t].batch[m].second >= 2) {
          src = static_cast<int>(t);
          victim = m;
          break;
        }
      }
    }
    if (g[t].gep_k == 1 && dst < 0) dst = static_cast<int>(t);
  }
  ASSERT_GE(src, 0);
  ASSERT_GE(dst, 0);

  auto& sb = g[static_cast<std::size_t>(src)].batch;
  const auto smuggled = sb[victim];
  sb.erase(sb.begin() + static_cast<std::ptrdiff_t>(victim));
  g[static_cast<std::size_t>(dst)].batch.push_back(smuggled);

  ScheduleCheckOptions opt;
  opt.lookahead = 1;
  opt.in_memory = false;
  opt.checkpoint_interval = 0;
  const auto report = analysis::check_dataflow_schedule(
      analysis::make_schedule_workload<gs::GaussianEliminationSpec>(4), opt,
      log);
  ASSERT_FALSE(report.ok());
  auto ks = kinds(report);
  std::sort(ks.begin(), ks.end());
  EXPECT_EQ(ks, (std::vector<ViolationKind>{ViolationKind::kMissingTask,
                                            ViolationKind::kDuplicateWrite}))
      << report.summary();
  const auto tile = gs::strfmt("(%d,%d)", smuggled.first, smuggled.second);
  for (const auto& v : report.violations) {
    EXPECT_NE(v.message.find(tile), std::string::npos) << v.message;
  }
}

// ---------------------------------------------------------------------------
// Happens-before race detector
// ---------------------------------------------------------------------------

DataflowTaskSpec task(const std::string& label, std::vector<int> deps) {
  DataflowTaskSpec t;
  t.label = label;
  t.deps = std::move(deps);
  return t;
}

TEST(HbDetector, FlagsDeliberatelyRacyTaskPair) {
  SparkContext sc(ClusterConfig::local(2, 2));
  HbDetector det;
  sc.set_race_detector(&det);

  // Two tasks, no ordering edge, both writing the same location: a textbook
  // write-write race regardless of how the pool interleaves them.
  const std::uint64_t loc = HbDetector::tile_location(99, 0);
  std::vector<DataflowTaskSpec> tasks{task("racy-w1", {}), task("racy-w2", {})};
  sc.run_task_graph("racy", tasks, [&](int) { det.on_write(loc, "tile"); });

  EXPECT_EQ(det.races_found(), 1u) << det.summary();
  const auto races = det.races();
  ASSERT_EQ(races.size(), 1u);
  const auto& r = races.front();
  EXPECT_TRUE(r.prev_write && r.cur_write);
  EXPECT_NE(r.to_string().find("racy-w"), std::string::npos) << r.to_string();
  EXPECT_NE(det.summary().find("RACY"), std::string::npos);
}

TEST(HbDetector, FlagsUnorderedReadAfterWrite) {
  SparkContext sc(ClusterConfig::local(2, 2));
  HbDetector det;
  sc.set_race_detector(&det);

  const std::uint64_t loc = HbDetector::tile_location(98, 0);
  std::vector<DataflowTaskSpec> tasks{task("w", {}), task("r", {})};
  sc.run_task_graph("rw", tasks, [&](int ti) {
    if (ti == 0) {
      det.on_write(loc, "tile");
    } else {
      det.on_read(loc, "tile");
    }
  });
  // Exactly one unordered pair, whichever access lands first.
  EXPECT_EQ(det.races_found(), 1u) << det.summary();
}

TEST(HbDetector, DirectAndTransitiveEdgesAreClean) {
  SparkContext sc(ClusterConfig::local(2, 2));
  HbDetector det;
  sc.set_race_detector(&det);

  const std::uint64_t loc = HbDetector::tile_location(97, 0);
  // w -> middle -> r: the read is ordered only transitively.
  std::vector<DataflowTaskSpec> tasks{task("w", {}), task("middle", {0}),
                                      task("r", {1})};
  sc.run_task_graph("chain", tasks, [&](int ti) {
    if (ti == 0) det.on_write(loc, "tile");
    if (ti == 2) det.on_read(loc, "tile");
  });
  EXPECT_EQ(det.races_found(), 0u) << det.summary();
  EXPECT_EQ(det.tasks_tracked(), 3u);
  EXPECT_NE(det.summary().find("CLEAN"), std::string::npos);
}

TEST(HbDetector, DriverErasOrderAgainstGraphEras) {
  SparkContext sc(ClusterConfig::local(2, 2));
  HbDetector det;
  sc.set_race_detector(&det);

  const std::uint64_t loc = HbDetector::tile_location(96, 0);
  std::vector<DataflowTaskSpec> one{task("w", {})};
  sc.run_task_graph("g1", one, [&](int) { det.on_write(loc, "tile"); });
  det.on_write(loc, "tile");  // driver-side rewrite between graphs
  sc.run_task_graph("g2", one, [&](int) { det.on_read(loc, "tile"); });
  // Graph boundaries are synchronization: no pair here is concurrent.
  EXPECT_EQ(det.races_found(), 0u) << det.summary();
}

// 200+ random dependency-respecting stress graphs must come back clean:
// every task reads its dependencies' outputs and writes its own, which is
// ordered by construction.
TEST(HbDetector, CleanOnRandomStressGraphs) {
  SparkContext sc(ClusterConfig::local(3, 2));
  HbDetector det;
  sc.set_race_detector(&det);
  const int num_exec = sc.config().num_executors();

  int total_tasks = 0;
  for (std::uint64_t seed = 0; seed < 220; ++seed) {
    gs::Rng rng(9100 + seed);
    const int n = 1 + static_cast<int>(rng.uniform_u64(40));
    std::vector<DataflowTaskSpec> tasks(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      auto& t = tasks[static_cast<std::size_t>(i)];
      t.label = "stress";
      t.executor =
          static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(num_exec)));
      for (int j = 0; j < i; ++j) {
        if (rng.bernoulli(2.0 / static_cast<double>(i))) t.deps.push_back(j);
      }
    }
    sc.run_task_graph("stress", tasks, [&](int ti) {
      const auto& t = tasks[static_cast<std::size_t>(ti)];
      for (int d : t.deps) {
        det.on_read(HbDetector::tile_location(static_cast<int>(seed), d),
                    "tile");
      }
      det.on_write(HbDetector::tile_location(static_cast<int>(seed), ti),
                   "tile");
    });
    total_tasks += n;
  }
  EXPECT_EQ(det.races_found(), 0u) << det.summary();
  EXPECT_GT(total_tasks, 1000);
  EXPECT_EQ(det.tasks_tracked(), static_cast<std::size_t>(total_tasks));
}

// ---------------------------------------------------------------------------
// End-to-end: detector + checker on real solves (including chaos recovery)
// ---------------------------------------------------------------------------

TEST(AnalysisEndToEnd, DataflowSolveIsRaceFreeAndSound) {
  SparkContext sc(ClusterConfig::local(2, 2));
  HbDetector det;
  sc.set_race_detector(&det);

  gepspark::SolverOptions opt;
  opt.block_size = 16;
  opt.strategy = gepspark::Strategy::kInMemory;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.lookahead = 2;
  opt.checkpoint_interval = 2;
  opt.validate_schedule = true;  // driver-side static check runs too

  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(64);
  auto result = gepspark::spark_floyd_warshall(sc, input, opt).matrix;
  auto ref = input;
  gs::baseline::reference_floyd_warshall(ref);
  EXPECT_LE(gs::max_abs_diff(result, ref), 1e-9);

  EXPECT_EQ(det.races_found(), 0u) << det.summary();
  EXPECT_GT(det.accesses_checked(), 0u);
  EXPECT_GT(det.tasks_tracked(), 0u);
}

TEST(AnalysisEndToEnd, ChaosRecoveryPathsAreRaceFree) {
  SparkContext sc(ClusterConfig::local(2, 2));
  sparklet::ChaosPlan plan;
  plan.task_failure_prob = 0.05;
  plan.max_task_attempts = 8;
  plan.executor_kill_prob = 0.5;
  plan.max_executor_kills = 2;
  plan.fetch_failure_prob = 0.3;
  plan.checkpoint_corruption_prob = 0.5;
  plan.seed = 42;
  sc.set_chaos_plan(plan);

  HbDetector det;
  sc.set_race_detector(&det);

  gepspark::SolverOptions opt;
  opt.block_size = 16;
  opt.strategy = gepspark::Strategy::kCollectBroadcast;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.lookahead = 1;
  opt.checkpoint_interval = 2;
  opt.validate_schedule = true;

  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(80);
  auto result = gepspark::spark_floyd_warshall(sc, input, opt).matrix;
  auto ref = input;
  gs::baseline::reference_floyd_warshall(ref);
  EXPECT_LE(gs::max_abs_diff(result, ref), 1e-9);

  // Driver-era recomputation/checkpoint traffic must not trip the detector.
  EXPECT_EQ(det.races_found(), 0u) << det.summary();
  EXPECT_GT(det.accesses_checked(), 0u);
}

TEST(AnalysisEndToEnd, ValidateScheduleRequiresDataflow) {
  gepspark::SolverOptions opt;
  opt.schedule = gepspark::ScheduleMode::kBarrier;
  opt.validate_schedule = true;
  EXPECT_THROW(opt.validate(), gs::ConfigError);
}

TEST(AnalysisEndToEnd, DetachedDetectorCostsNothing) {
  SparkContext sc(ClusterConfig::local(2, 2));
  EXPECT_EQ(sc.race_detector(), nullptr);
  HbDetector det;
  sc.set_race_detector(&det);
  EXPECT_EQ(sc.race_detector(), analysis::kAnalysisEnabled ? &det : nullptr);
  sc.set_race_detector(nullptr);
  EXPECT_EQ(sc.race_detector(), nullptr);
}

}  // namespace

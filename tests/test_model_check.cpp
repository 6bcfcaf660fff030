// Schedule-space model checker tests (ISSUE 10): the SchedulerHook serial
// path replays prescribed interleavings; derive_footprints maps spec
// metadata to tile read/write sets; ModelChecker explores a sound plan to
// closure (every co-enabled alternative pruned as independent or replayed
// bit-identical) and catches a deliberately order-sensitive graph by digest
// divergence; the recovery-closure auditor passes every engine-emitted
// lineage log and rejects seeded mutations (dropped recompute edge, stale
// newer-k dep, cyclic record, out-of-range live id); run_task_graph rejects
// malformed DAGs and invalid hook picks at submission.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/hb_detector.hpp"
#include "analysis/model_check.hpp"
#include "gepspark/dataflow.hpp"
#include "gepspark/solver.hpp"
#include "nested/nested_driver.hpp"
#include "semiring/gep_spec.hpp"
#include "sparklet/context.hpp"
#include "sparklet/task_graph.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace {

using analysis::ModelCheckOptions;
using analysis::ModelCheckReport;
using analysis::ReplayHook;
using analysis::RunObservation;
using sparklet::ClusterConfig;
using sparklet::DataflowTaskSpec;
using sparklet::SparkContext;

bool any_error_contains(const std::vector<std::string>& errors,
                        const std::string& sub) {
  return std::any_of(errors.begin(), errors.end(), [&](const std::string& e) {
    return e.find(sub) != std::string::npos;
  });
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

TEST(Digest, MatrixDigestIsBitExact) {
  gs::Matrix<double> a(4, 4, 1.0), b(4, 4, 1.0);
  EXPECT_EQ(analysis::digest_matrix(a), analysis::digest_matrix(b));
  b(3, 2) = 1.0 + 1e-15;  // one ulp-ish flip must change the digest
  EXPECT_NE(analysis::digest_matrix(a), analysis::digest_matrix(b));
}

// ---------------------------------------------------------------------------
// Footprint derivation
// ---------------------------------------------------------------------------

DataflowTaskSpec compute_task(char kind, int i, int j,
                              std::vector<int> deps = {}) {
  DataflowTaskSpec t;
  t.label = std::string(1, kind);
  t.gep_kind = kind;
  t.tile_i = i;
  t.tile_j = j;
  t.deps = std::move(deps);
  t.executor = 0;
  return t;
}

TEST(Footprints, ComputeTransferFenceOpaque) {
  std::vector<DataflowTaskSpec> tasks;
  tasks.push_back(compute_task('A', 0, 0));  // 0: writes (0,0)
  DataflowTaskSpec xfer = compute_task('X', 0, 0, {0});
  xfer.transfer = true;
  tasks.push_back(xfer);                          // 1: reads (0,0)
  tasks.push_back(compute_task('B', 0, 1, {1}));  // 2: writes (0,1), reads (0,0)
  DataflowTaskSpec fence;
  fence.label = "fence";
  fence.gep_kind = 'F';
  fence.deps = {2};
  fence.executor = 0;
  tasks.push_back(fence);  // 3: empty footprint
  DataflowTaskSpec opaque;
  opaque.label = "no-metadata";
  opaque.executor = 0;
  tasks.push_back(opaque);  // 4: opaque

  const auto fp = analysis::derive_footprints(tasks);
  ASSERT_EQ(fp.size(), 5u);
  EXPECT_EQ(fp[0].writes, (std::vector<std::pair<int, int>>{{0, 0}}));
  EXPECT_TRUE(fp[1].writes.empty());
  EXPECT_EQ(fp[1].reads, (std::vector<std::pair<int, int>>{{0, 0}}));
  EXPECT_EQ(fp[2].writes, (std::vector<std::pair<int, int>>{{0, 1}}));
  // The transfer dep forwards the version it materialized.
  EXPECT_EQ(fp[2].reads, (std::vector<std::pair<int, int>>{{0, 0}}));
  EXPECT_TRUE(fp[3].writes.empty() && fp[3].reads.empty() && !fp[3].opaque);
  EXPECT_TRUE(fp[4].opaque);

  // Conflicts: write/write, write/read, opaque-with-everything; fences with
  // nothing.
  EXPECT_TRUE(analysis::footprints_conflict(fp[0], fp[1]));
  EXPECT_TRUE(analysis::footprints_conflict(fp[0], fp[2]));
  // Read/read overlap on (0,0) is not a conflict.
  EXPECT_FALSE(analysis::footprints_conflict(fp[1], fp[2]));
  EXPECT_FALSE(analysis::footprints_conflict(fp[0], fp[3]));
  EXPECT_TRUE(analysis::footprints_conflict(fp[3], fp[4]));
}

// ---------------------------------------------------------------------------
// SchedulerHook serial path + submission contract (satellite: DAG contract)
// ---------------------------------------------------------------------------

TEST(TaskGraphContract, ForwardDepIsRejectedAtSubmission) {
  SparkContext sc(ClusterConfig::local(2, 2));
  std::vector<DataflowTaskSpec> tasks(2);
  tasks[0].label = "a";
  tasks[1].label = "b";
  tasks[1].deps = {1};  // self-dep: not a DAG
  EXPECT_THROW(sc.run_task_graph("bad-dag", tasks, [](int) {}),
               gs::ConfigError);
}

TEST(TaskGraphContract, ExecutorOutOfRangeIsRejectedAtSubmission) {
  SparkContext sc(ClusterConfig::local(2, 2));
  std::vector<DataflowTaskSpec> tasks(1);
  tasks[0].label = "a";
  tasks[0].executor = 99;
  EXPECT_THROW(sc.run_task_graph("bad-exec", tasks, [](int) {}),
               gs::ConfigError);
}

TEST(TaskGraphContract, HookPickOutsideReadySetThrows) {
  class BogusHook : public sparklet::SchedulerHook {
   public:
    void begin_graph(const std::string&,
                     const std::vector<DataflowTaskSpec>&) override {}
    int pick(const std::vector<int>&) override { return 17; }
  };
  SparkContext sc(ClusterConfig::local(2, 2));
  BogusHook hook;
  sc.set_scheduler_hook(&hook);
  std::vector<DataflowTaskSpec> tasks(2);
  tasks[0].label = "a";
  tasks[1].label = "b";
  try {
    sc.run_task_graph("bogus-pick", tasks, [](int) {});
    sc.set_scheduler_hook(nullptr);
    FAIL() << "invalid pick must throw";
  } catch (const gs::ConfigError& e) {
    sc.set_scheduler_hook(nullptr);
    EXPECT_NE(std::string(e.what()).find("not in the ready set"),
              std::string::npos)
        << e.what();
  }
}

TEST(ReplayHookPath, SerialRunIsTopologicalAndRecorded) {
  SparkContext sc(ClusterConfig::local(2, 2));
  // Diamond: 0 -> {1, 2} -> 3.
  std::vector<DataflowTaskSpec> tasks(4);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].label = "t" + std::to_string(i);
  }
  tasks[1].deps = {0};
  tasks[2].deps = {0};
  tasks[3].deps = {1, 2};

  ReplayHook hook({0, 2});  // force 2 before 1 at the fork
  sc.set_scheduler_hook(&hook);
  std::vector<int> order;
  const auto result =
      sc.run_task_graph("diamond", tasks, [&](int ti) { order.push_back(ti); });
  sc.set_scheduler_hook(nullptr);

  EXPECT_EQ(order, (std::vector<int>{0, 2, 1, 3}));
  EXPECT_EQ(result.completion_order, order);
  EXPECT_FALSE(hook.diverged());
  ASSERT_EQ(hook.graphs().size(), 1u);
  ASSERT_EQ(hook.trace().size(), 4u);
  EXPECT_EQ(hook.trace()[1].ready, (std::vector<int>{1, 2}));
  EXPECT_EQ(hook.trace()[1].chosen, 2);
}

// ---------------------------------------------------------------------------
// ModelChecker: teeth on a hand-built order-sensitive graph
// ---------------------------------------------------------------------------

TEST(ModelChecker, OrderSensitiveGraphDivergesDigest) {
  SparkContext sc(ClusterConfig::local(2, 2));
  // Two co-enabled tasks writing the SAME tile: the footprints conflict, so
  // DPOR must replay the swapped order — and last-writer-wins state makes
  // the digests differ.
  std::vector<DataflowTaskSpec> tasks;
  tasks.push_back(compute_task('D', 0, 0));
  tasks.push_back(compute_task('D', 0, 0));
  analysis::ModelChecker checker;
  const ModelCheckReport report = checker.explore(
      [&](ReplayHook& hook) {
        int last = -1;
        sc.set_scheduler_hook(&hook);
        sc.run_task_graph("racy", tasks, [&](int ti) { last = ti; });
        sc.set_scheduler_hook(nullptr);
        RunObservation obs;
        obs.digest = static_cast<std::uint64_t>(last);
        return obs;
      },
      ModelCheckOptions{});
  EXPECT_EQ(report.explored, 2);
  EXPECT_EQ(report.branch_points, 1);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_error_contains(report.errors, "digest diverged"))
      << report.summary();
  EXPECT_TRUE(any_error_contains(report.errors, "ran 'D' (task 1)"))
      << "the branch cause must name the reordered tasks: "
      << report.summary();
}

TEST(ModelChecker, IndependentTilesArePrunedToOneInterleaving) {
  SparkContext sc(ClusterConfig::local(2, 2));
  std::vector<DataflowTaskSpec> tasks;
  tasks.push_back(compute_task('D', 0, 0));
  tasks.push_back(compute_task('D', 1, 1));
  tasks.push_back(compute_task('D', 2, 2));
  analysis::ModelChecker checker;
  const ModelCheckReport report = checker.explore(
      [&](ReplayHook& hook) {
        std::uint64_t sum = 0;
        sc.set_scheduler_hook(&hook);
        sc.run_task_graph("independent", tasks,
                          [&](int ti) { sum += static_cast<std::uint64_t>(ti); });
        sc.set_scheduler_hook(nullptr);
        RunObservation obs;
        obs.digest = sum;
        return obs;
      },
      ModelCheckOptions{});
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.explored, 1);  // every alternative commutes
  EXPECT_GT(report.pruned, 0);
  EXPECT_EQ(report.branch_points, 0);
  EXPECT_FALSE(report.budget_exhausted);
}

TEST(ModelChecker, FailingChecksSurfaceWithCause) {
  SparkContext sc(ClusterConfig::local(2, 2));
  std::vector<DataflowTaskSpec> tasks;
  tasks.push_back(compute_task('D', 0, 0));
  analysis::ModelChecker checker;
  const ModelCheckReport report = checker.explore(
      [&](ReplayHook& hook) {
        sc.set_scheduler_hook(&hook);
        sc.run_task_graph("checked", tasks, [](int) {});
        sc.set_scheduler_hook(nullptr);
        RunObservation obs;
        obs.digest = 7;
        obs.checks_ok = false;
        obs.detail = "schedule checker: 1 violation";
        return obs;
      },
      ModelCheckOptions{});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_error_contains(report.errors, "schedule checker"))
      << report.summary();
}

// ---------------------------------------------------------------------------
// End-to-end exploration of real plans (acceptance: FW r=3, lookahead 1)
// ---------------------------------------------------------------------------

TEST(ModelCheckEndToEnd, SmallFloydWarshallPlanExploresClean) {
  SparkContext sc(ClusterConfig::local(2, 2));
  gepspark::SolverOptions opt;
  opt.block_size = 16;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.lookahead = 1;
  opt.checkpoint_interval = 1;
  const auto input =
      gs::testutil::random_input<gs::FloydWarshallSpec>(48);  // r = 3
  ModelCheckOptions mc;
  mc.max_schedules = 64;
  const ModelCheckReport report =
      gepspark::model_check_gep<gs::FloydWarshallSpec>(sc, input, opt, mc);
  EXPECT_TRUE(report.ok()) << report.summary();
  // A sound plan orders every conflicting pair by dependencies, so all
  // co-enabled alternatives are independent: one interleaving closes the
  // schedule space, with real pruning along the way.
  EXPECT_GE(report.explored, 1);
  EXPECT_GT(report.pruned, 0);
  EXPECT_GT(report.steps, 0);
  EXPECT_FALSE(report.budget_exhausted) << report.summary();

  // The hook is detached afterwards: a plain pooled solve still works.
  const auto out = gepspark::spark_floyd_warshall(sc, input, opt);
  EXPECT_EQ(out.matrix.rows(), input.rows());
}

TEST(ModelCheckEndToEnd, GapPlanExploresClean) {
  SparkContext sc(ClusterConfig::local(2, 2));
  gepspark::SolverOptions opt;
  opt.block_size = 16;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.lookahead = 1;
  opt.checkpoint_interval = 2;
  const nested::GapProblem prob{32, 1};
  ModelCheckOptions mc;
  mc.max_schedules = 32;
  const ModelCheckReport report =
      nested::model_check_nested(sc, nested::GapPlan(prob, 16), opt, mc);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GE(report.explored, 1);
  EXPECT_GT(report.steps, 0);
  EXPECT_FALSE(report.budget_exhausted) << report.summary();
}

// ---------------------------------------------------------------------------
// Recovery-closure audit: engine logs pass; seeded mutations are caught
// ---------------------------------------------------------------------------

template <typename Spec>
std::vector<analysis::LineageSnapshot> engine_lineage(int r, int lookahead,
                                                      int interval) {
  const std::size_t block = 16;
  SparkContext sc(ClusterConfig::local(2, 2));
  gepspark::SolverOptions opt;
  opt.block_size = block;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.lookahead = lookahead;
  opt.checkpoint_interval = interval;
  opt.validate();
  auto input = gs::testutil::random_input<Spec>(
      static_cast<std::size_t>(r) * block);
  gs::TileGrid<typename Spec::value_type> grid(input, block, Spec::pad_diag(),
                                               Spec::pad_off());
  auto kernels = std::make_shared<const gs::GepKernels<Spec>>(opt.kernel);
  auto part = std::make_shared<sparklet::HashPartitioner>(4);
  const gepspark::GepPlan<Spec> plan(kernels, grid, opt.fused_d);
  gepspark::DataflowEngine<gepspark::GepPlan<Spec>> engine(sc, opt, plan, part);
  std::vector<analysis::LineageSnapshot> log;
  engine.set_lineage_log(&log);
  (void)engine.solve();
  return log;
}

TEST(RecoveryAudit, EngineLineageLogsAreCleanAcrossIntervals) {
  for (int interval : {0, 1, 2}) {
    const auto log =
        engine_lineage<gs::FloydWarshallSpec>(4, /*lookahead=*/1, interval);
    ASSERT_FALSE(log.empty());
    const auto rep = analysis::audit_recovery_closure(log);
    EXPECT_TRUE(rep.ok()) << "interval=" << interval << "\n" << rep.summary();
    EXPECT_GT(rep.closures, 0);
    EXPECT_GT(rep.edges, 0);
  }
}

TEST(RecoveryAudit, SolveWithAuditOptionPasses) {
  SparkContext sc(ClusterConfig::local(2, 2));
  gepspark::SolverOptions opt;
  opt.block_size = 16;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.checkpoint_interval = 2;
  opt.audit_recovery = true;
  const auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(64);
  EXPECT_NO_THROW(gepspark::spark_floyd_warshall(sc, input, opt));

  const nested::GapProblem prob{32, 1};
  EXPECT_NO_THROW(nested::nested_solve(sc, nested::GapPlan(prob, 16), opt));
}

TEST(RecoveryAudit, AuditRequiresDataflowSchedule) {
  gepspark::SolverOptions opt;
  opt.audit_recovery = true;  // barrier schedule: nothing to audit
  EXPECT_THROW(opt.validate(), gs::ConfigError);
}

// Seeded bug: a dropped recompute edge turns a live block's closure
// incomplete — the auditor must name the unpinned, sourceless leaf.
TEST(RecoveryAudit, DroppedRecomputeEdgeIsIncompleteClosure) {
  auto log = engine_lineage<gs::FloydWarshallSpec>(4, 1, /*interval=*/0);
  ASSERT_FALSE(log.empty());
  auto& snap = log.back();
  // Find a live node that only re-derives through its deps.
  bool mutated = false;
  for (int live : snap.live) {
    auto& rec = snap.nodes[static_cast<std::size_t>(live)];
    if (!rec.pinned && !rec.source && !rec.deps.empty()) {
      rec.deps.clear();  // now an unpinned, sourceless leaf
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated) << "expected an unpinned live intermediate to mutate";
  const auto rep = analysis::audit_recovery_closure(log);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(any_error_contains(rep.errors, "incomplete")) << rep.summary();
}

// Hand-built snapshots give exact control over the remaining mutations.
analysis::LineageSnapshot tiny_snapshot() {
  analysis::LineageSnapshot snap;
  snap.segment = 0;
  analysis::LineageRecord src;
  src.label = "input(0,0)";
  src.k = -1;
  src.source = true;
  analysis::LineageRecord a;
  a.label = "A(0,0)@k=0";
  a.k = 0;
  a.deps = {0};
  analysis::LineageRecord d;
  d.label = "D(1,1)@k=0";
  d.k = 0;
  d.deps = {1};
  snap.nodes = {src, a, d};
  snap.live = {2};
  return snap;
}

TEST(RecoveryAudit, TinySnapshotBaselinePasses) {
  const auto rep = analysis::audit_recovery_closure({tiny_snapshot()});
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(RecoveryAudit, CyclicDepIsCaught) {
  auto snap = tiny_snapshot();
  snap.nodes[1].deps = {1};  // self-loop
  const auto rep = analysis::audit_recovery_closure({snap});
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(any_error_contains(rep.errors, "cyclic or malformed"))
      << rep.summary();
}

TEST(RecoveryAudit, NewerIterationDepIsCaught) {
  auto snap = tiny_snapshot();
  snap.nodes[1].k = 1;  // A claims k=1; D(k=0) now reads a newer version
  const auto rep = analysis::audit_recovery_closure({snap});
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(any_error_contains(rep.errors, "newer than its producing"))
      << rep.summary();
}

TEST(RecoveryAudit, LiveIdOutOfRangeIsCaught) {
  auto snap = tiny_snapshot();
  snap.live.push_back(99);
  const auto rep = analysis::audit_recovery_closure({snap});
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(any_error_contains(rep.errors, "out of range")) << rep.summary();
}

}  // namespace

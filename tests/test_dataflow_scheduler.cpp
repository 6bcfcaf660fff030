// Dataflow scheduler tests (ISSUE 4): the tile-level dependency DAG the
// DataflowEngine builds for small r (exact edge sets against an independent
// model of the A → B/C → D rules plus cross-iteration and lookahead-fence
// edges), randomized stress over SparkContext::run_task_graph (200+ seeded
// random DAGs must execute in topological order and terminate, with and
// without chaos), lookahead-depth sweeps (every depth bit-identical to
// barrier, dataflow beating the barrier's virtual makespan), and golden
// digests of every field of the emitted graphs and lineage snapshots.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gepspark/dataflow.hpp"
#include "gepspark/driver.hpp"
#include "gepspark/solver.hpp"
#include "nested/nested_plan.hpp"
#include "sparklet/context.hpp"
#include "sparklet/task_graph.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace {

using sparklet::ChaosPlan;
using sparklet::ClusterConfig;
using sparklet::DataflowTaskSpec;
using sparklet::SparkContext;
using sparklet::TaskGraphResult;

// ---------------------------------------------------------------------------
// DAG construction: edge sets for small r
// ---------------------------------------------------------------------------

struct ModelTask {
  std::string label;
  std::set<int> deps;
};

// Independent reconstruction of the engine's per-segment DAG under the CB
// strategy (no transfer tasks, so task indices line up 1:1): per iteration
// A, then B row-major, then C, then D, then the fence; `self` edges come
// from the latest writer of the tile, u/v/w from this iteration's A/B/C,
// and the lookahead gate from fence[k - lookahead - 1].
std::vector<ModelTask> model_graph(int r, bool strict, bool uses_w,
                                   int lookahead) {
  gepspark::GridRanges ranges(r, strict);
  std::map<std::pair<int, int>, int> latest;  // absent → source (no edge)
  std::vector<ModelTask> out;
  std::vector<int> fences;

  auto self_dep = [&](int i, int j, std::set<int>& deps) {
    auto it = latest.find({i, j});
    if (it != latest.end()) deps.insert(it->second);
  };

  for (int k = 0; k < r; ++k) {
    std::vector<int> iter;
    auto push = [&](const char* label, std::set<int> deps) {
      const int gate = k - lookahead - 1;
      if (gate >= 0) deps.insert(fences[static_cast<std::size_t>(gate)]);
      out.push_back({label, std::move(deps)});
      iter.push_back(static_cast<int>(out.size()) - 1);
      return static_cast<int>(out.size()) - 1;
    };

    std::set<int> a_deps;
    self_dep(k, k, a_deps);
    const int a = push("ARecGE", std::move(a_deps));
    latest[{k, k}] = a;

    for (const auto& key : ranges.b_keys(k)) {
      std::set<int> deps{a};  // u (and w, identical) = this iteration's A
      self_dep(key.i, key.j, deps);
      latest[{key.i, key.j}] = push("BCRecGE", std::move(deps));
    }
    for (const auto& key : ranges.c_keys(k)) {
      std::set<int> deps{a};
      self_dep(key.i, key.j, deps);
      latest[{key.i, key.j}] = push("BCRecGE", std::move(deps));
    }
    for (const auto& key : ranges.d_keys(k)) {
      std::set<int> deps;
      self_dep(key.i, key.j, deps);
      deps.insert(latest.at({key.i, k}));  // u: post-C pivot column
      deps.insert(latest.at({k, key.j}));  // v: post-B pivot row
      if (uses_w) deps.insert(a);
      latest[{key.i, key.j}] = push("DRecGE", std::move(deps));
    }

    out.push_back({"fence", std::set<int>(iter.begin(), iter.end())});
    fences.push_back(static_cast<int>(out.size()) - 1);
  }
  return out;
}

template <typename Spec>
std::vector<std::vector<DataflowTaskSpec>> engine_graphs(int n, int block,
                                                         int lookahead) {
  SparkContext sc(ClusterConfig::local(2, 2));
  gepspark::SolverOptions opt;
  opt.block_size = static_cast<std::size_t>(block);
  opt.strategy = gepspark::Strategy::kCollectBroadcast;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.lookahead = lookahead;
  opt.checkpoint_interval = 0;  // one graph covering every iteration
  opt.validate();

  auto input = gs::testutil::random_input<Spec>(static_cast<std::size_t>(n));
  gs::TileGrid<typename Spec::value_type> grid(
      input, opt.block_size, Spec::pad_diag(), Spec::pad_off());
  auto kernels =
      std::make_shared<const gs::GepKernels<Spec>>(opt.kernel);
  auto part = std::make_shared<sparklet::HashPartitioner>(4);

  std::vector<std::vector<DataflowTaskSpec>> log;
  const gepspark::GepPlan<Spec> plan(kernels, grid, opt.fused_d);
  gepspark::DataflowEngine<gepspark::GepPlan<Spec>> engine(sc, opt, plan, part);
  engine.set_graph_log(&log);
  (void)engine.solve();
  return log;
}

template <typename Spec>
void expect_graph_matches_model(int r, int block, int lookahead) {
  const auto log = engine_graphs<Spec>(r * block, block, lookahead);
  ASSERT_EQ(log.size(), 1u);  // interval 0 → single segment
  const auto& specs = log[0];
  const auto model = model_graph(r, Spec::kStrictSigma, Spec::kUsesW,
                                 lookahead);
  ASSERT_EQ(specs.size(), model.size());
  for (std::size_t t = 0; t < model.size(); ++t) {
    EXPECT_EQ(specs[t].label, model[t].label) << "task " << t;
    const std::set<int> got(specs[t].deps.begin(), specs[t].deps.end());
    EXPECT_EQ(got, model[t].deps)
        << "task " << t << " (" << model[t].label << ")";
    for (int d : specs[t].deps) {
      EXPECT_LT(d, static_cast<int>(t));  // DAG-by-construction invariant
    }
  }
}

TEST(DataflowDag, FloydWarshallEdgesMatchModel) {
  // Full Σ, no w input: D depends only on self + row + column tiles.
  expect_graph_matches_model<gs::FloydWarshallSpec>(2, 16, 8);
  expect_graph_matches_model<gs::FloydWarshallSpec>(3, 16, 8);
}

TEST(DataflowDag, GaussianEliminationEdgesMatchModel) {
  // Strict Σ, kUsesW: B/C/D all take the pivot tile, trailing set shrinks.
  expect_graph_matches_model<gs::GaussianEliminationSpec>(2, 16, 8);
  expect_graph_matches_model<gs::GaussianEliminationSpec>(4, 16, 8);
}

TEST(DataflowDag, LookaheadZeroGatesEveryIterationOnPreviousFence) {
  expect_graph_matches_model<gs::FloydWarshallSpec>(3, 16, 0);
  expect_graph_matches_model<gs::GaussianEliminationSpec>(4, 16, 0);
}

TEST(DataflowDag, LookaheadOneGatesOnFenceTwoIterationsBack) {
  expect_graph_matches_model<gs::FloydWarshallSpec>(4, 16, 1);
}

TEST(DataflowDag, CheckpointIntervalSplitsIntoSegments) {
  SparkContext sc(ClusterConfig::local(2, 2));
  gepspark::SolverOptions opt;
  opt.block_size = 16;
  opt.strategy = gepspark::Strategy::kCollectBroadcast;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.checkpoint_interval = 2;
  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(80);  // r = 5
  gs::TileGrid<double> grid(input, 16, gs::FloydWarshallSpec::pad_diag(),
                            gs::FloydWarshallSpec::pad_off());
  auto kernels = std::make_shared<const gs::GepKernels<gs::FloydWarshallSpec>>(
      opt.kernel);
  auto part = std::make_shared<sparklet::HashPartitioner>(4);
  std::vector<std::vector<DataflowTaskSpec>> log;
  const gepspark::GepPlan<gs::FloydWarshallSpec> plan(kernels, grid,
                                                      opt.fused_d);
  gepspark::DataflowEngine<gepspark::GepPlan<gs::FloydWarshallSpec>> engine(
      sc, opt, plan, part);
  engine.set_graph_log(&log);
  (void)engine.solve();
  ASSERT_EQ(log.size(), 3u);  // iterations {0,1}, {2,3}, {4}
  // Segment graphs restart fence indexing: no lookahead edge may reach
  // across a checkpoint boundary.
  for (const auto& specs : log) {
    for (std::size_t t = 0; t < specs.size(); ++t) {
      for (int d : specs[t].deps) EXPECT_LT(d, static_cast<int>(t));
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized stress: run_task_graph on 200+ seeded random DAGs
// ---------------------------------------------------------------------------

void expect_topological(const std::vector<DataflowTaskSpec>& tasks,
                        const TaskGraphResult& result) {
  ASSERT_EQ(result.completion_order.size(), tasks.size());
  std::vector<int> position(tasks.size(), -1);
  for (std::size_t p = 0; p < result.completion_order.size(); ++p) {
    const int t = result.completion_order[p];
    ASSERT_GE(t, 0);
    ASSERT_LT(t, static_cast<int>(tasks.size()));
    ASSERT_EQ(position[static_cast<std::size_t>(t)], -1)
        << "task completed twice";
    position[static_cast<std::size_t>(t)] = static_cast<int>(p);
  }
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    for (int d : tasks[t].deps) {
      EXPECT_LT(position[static_cast<std::size_t>(d)],
                position[t])
          << "task " << t << " ran before its dependency " << d;
    }
  }
}

std::vector<DataflowTaskSpec> random_dag(gs::Rng& rng, int num_exec) {
  const int n = 1 + static_cast<int>(rng.uniform_u64(40));
  std::vector<DataflowTaskSpec> tasks(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& t = tasks[static_cast<std::size_t>(i)];
    t.label = (i % 3 == 0) ? "stress-a" : "stress-b";
    t.executor = static_cast<int>(rng.uniform_u64(
        static_cast<std::uint64_t>(num_exec)));
    if (i > 0 && rng.bernoulli(0.15)) {
      t.transfer = true;
      t.model_s = 1e-4;
      t.label = "stress-xfer";
    }
    // Sparse random predecessors; expected degree ~2 keeps wide and deep
    // graphs both likely across seeds.
    for (int j = 0; j < i; ++j) {
      if (rng.bernoulli(2.0 / static_cast<double>(i))) t.deps.push_back(j);
    }
  }
  return tasks;
}

TEST(DataflowStress, RandomDagsExecuteInTopologicalOrder) {
  SparkContext sc(ClusterConfig::local(3, 2));
  const int num_exec = sc.config().num_executors();
  int total_tasks = 0;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    gs::Rng rng(7000 + seed);
    const auto tasks = random_dag(rng, num_exec);
    std::vector<int> hits(tasks.size(), 0);
    const TaskGraphResult result = sc.run_task_graph(
        "stress", tasks, [&](int ti) { ++hits[static_cast<std::size_t>(ti)]; });
    expect_topological(tasks, result);
    int compute = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(hits[i], 1) << "task body must run exactly once";
      if (!tasks[i].transfer) ++compute;
    }
    EXPECT_EQ(result.tasks_run, compute);
    EXPECT_GT(result.makespan_s, 0.0);
    total_tasks += static_cast<int>(tasks.size());
  }
  EXPECT_GT(total_tasks, 1000);  // the sweep actually exercised real graphs
}

TEST(DataflowStress, RandomDagsSurviveChaosAndStayTopological) {
  SparkContext sc(ClusterConfig::local(3, 2));
  ChaosPlan plan;
  plan.task_failure_prob = 0.2;
  plan.max_task_attempts = 10;
  plan.executor_kill_prob = 0.3;
  plan.max_executor_kills = 100;  // let kills keep firing across graphs
  plan.straggler_prob = 0.2;
  plan.straggler_factor = 4.0;
  plan.seed = 77;
  sc.set_chaos_plan(plan);
  sc.set_speculation({.enabled = true});

  const int num_exec = sc.config().num_executors();
  int kills = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    gs::Rng rng(9000 + seed);
    const auto tasks = random_dag(rng, num_exec);
    const TaskGraphResult result =
        sc.run_task_graph("stress-chaos", tasks, [](int) {});
    expect_topological(tasks, result);
    if (result.kill_victim >= 0) {
      ++kills;
      // Reassigned tasks must avoid the dead executor.
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (!tasks[i].transfer) {
          EXPECT_NE(result.executors[i], result.kill_victim);
        }
      }
    }
  }
  EXPECT_GT(sc.metrics().recovery().task_failures, 0);
  EXPECT_GT(kills, 0);
}

TEST(DataflowStress, DeterministicChaosIsScheduleInvariant) {
  // The same (graph, chaos plan) pair must inject the same failures no
  // matter how the pool interleaves: counters after two identical runs on
  // fresh contexts agree exactly.
  auto run_once = [] {
    SparkContext sc(ClusterConfig::local(3, 2));
    ChaosPlan plan;
    plan.task_failure_prob = 0.3;
    plan.max_task_attempts = 10;
    plan.seed = 5;
    sc.set_chaos_plan(plan);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      gs::Rng rng(100 + seed);
      const auto tasks = random_dag(rng, sc.config().num_executors());
      (void)sc.run_task_graph("det", tasks, [](int) {});
    }
    return sc.metrics().recovery().task_failures;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(DataflowStress, InvalidGraphsAreRejected) {
  SparkContext sc(ClusterConfig::local(2, 2));
  std::vector<DataflowTaskSpec> fwd(2);
  fwd[0].label = "t0";
  fwd[0].deps = {1};  // forward reference breaks the DAG invariant
  fwd[1].label = "t1";
  EXPECT_THROW((void)sc.run_task_graph("bad", fwd, [](int) {}),
               std::exception);
}

// ---------------------------------------------------------------------------
// Lookahead sweep
// ---------------------------------------------------------------------------

TEST(Lookahead, EveryDepthBitIdenticalToBarrier) {
  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(64, 11);
  gepspark::SolverOptions opt;
  opt.block_size = 16;
  opt.checkpoint_interval = 0;

  SparkContext ref_sc(ClusterConfig::local(3, 2));
  auto expected = gepspark::spark_floyd_warshall(ref_sc, input, opt).matrix;

  opt.schedule = gepspark::ScheduleMode::kDataflow;
  for (int depth : {0, 1, 2, 3, 4}) {
    SparkContext sc(ClusterConfig::local(3, 2));
    opt.lookahead = depth;
    auto got = gepspark::spark_floyd_warshall(sc, input, opt).matrix;
    EXPECT_TRUE(got == expected) << "lookahead " << depth;
  }
}

TEST(Lookahead, DataflowBeatsBarrierMakespan) {
  auto input = gs::testutil::random_input<gs::GaussianEliminationSpec>(96, 3);
  auto virt = [&](gepspark::ScheduleMode mode, int depth) {
    SparkContext sc(ClusterConfig::local(4, 2));
    gepspark::SolverOptions opt;
    opt.block_size = 16;
    opt.schedule = mode;
    opt.lookahead = depth;
    opt.checkpoint_interval = 0;
    auto res = gepspark::spark_gaussian_elimination(sc, input, opt);
    return res.profile.virtual_seconds;
  };
  const double barrier = virt(gepspark::ScheduleMode::kBarrier, 0);
  const double dataflow = virt(gepspark::ScheduleMode::kDataflow, 1);
  // Releasing tasks as dependencies resolve removes the per-phase stage
  // barriers entirely; the win is far larger than scheduling noise.
  EXPECT_LT(dataflow, barrier);
}

TEST(Lookahead, DeeperPipelineDoesNotRegressMakespan) {
  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(96, 5);
  auto virt = [&](int depth) {
    SparkContext sc(ClusterConfig::local(4, 4));
    gepspark::SolverOptions opt;
    opt.block_size = 16;
    opt.schedule = gepspark::ScheduleMode::kDataflow;
    opt.lookahead = depth;
    opt.checkpoint_interval = 0;
    auto res = gepspark::spark_floyd_warshall(sc, input, opt);
    return res.profile.virtual_seconds;
  };
  // Wall-clock task durations vary run to run, so compare with generous
  // slack: a depth-3 pipeline must not be materially slower than depth 0.
  EXPECT_LT(virt(3), virt(0) * 1.5);
}

// ---------------------------------------------------------------------------
// Golden schedule digests: byte-level pins on the emitted graphs + lineage
// ---------------------------------------------------------------------------

using Graphs = std::vector<std::vector<DataflowTaskSpec>>;
using Lineage = std::vector<analysis::LineageSnapshot>;

// Every field is hashed, so a change to the order, executors, labels,
// transfer costs, or lineage records of any task moves the digest.
std::uint64_t schedule_digest(const Graphs& graphs, const Lineage& lineage) {
  gs::testutil::Fnv1a h;
  h.add(static_cast<long long>(graphs.size()));
  for (const auto& specs : graphs) {
    h.add(static_cast<long long>(specs.size()));
    for (const DataflowTaskSpec& t : specs) {
      h.add(t.label);
      h.add(static_cast<long long>(t.deps.size()));
      for (int d : t.deps) h.add(d);
      h.add(t.executor);
      h.add(static_cast<long long>(t.category));
      h.add(t.transfer ? 1 : 0);
      h.add(gs::strfmt("%a", t.model_s));
      h.add(static_cast<long long>(t.gep_kind));
      h.add(t.gep_k);
      h.add(t.tile_i);
      h.add(t.tile_j);
      h.add(static_cast<long long>(t.batch.size()));
      for (const auto& [i, j] : t.batch) {
        h.add(i);
        h.add(j);
      }
    }
  }
  h.add(static_cast<long long>(lineage.size()));
  for (const analysis::LineageSnapshot& snap : lineage) {
    h.add(snap.segment);
    h.add(static_cast<long long>(snap.nodes.size()));
    for (const analysis::LineageRecord& rec : snap.nodes) {
      h.add(rec.label);
      h.add(rec.k);
      h.add(static_cast<long long>(rec.deps.size()));
      for (int d : rec.deps) h.add(d);
      h.add(rec.pinned ? 1 : 0);
      h.add(rec.source ? 1 : 0);
    }
    h.add(static_cast<long long>(snap.live.size()));
    for (int id : snap.live) h.add(id);
  }
  return h.value();
}

gepspark::SolverOptions golden_options(gepspark::Strategy strategy,
                                       int lookahead, int interval,
                                       std::size_t block) {
  gepspark::SolverOptions opt;
  opt.block_size = block;
  opt.strategy = strategy;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.lookahead = lookahead;
  opt.checkpoint_interval = interval;
  return opt;
}

struct GoldenDigest {
  const char* config;
  std::uint64_t digest;
};

template <typename Plan>
std::uint64_t plan_schedule_digest(const Plan& plan,
                                   const gepspark::SolverOptions& opt) {
  SparkContext sc(ClusterConfig::local(2, 2));
  auto part = std::make_shared<sparklet::HashPartitioner>(4);
  Graphs graphs;
  Lineage lineage;
  gepspark::DataflowEngine<Plan> engine(sc, opt, plan, part);
  engine.set_graph_log(&graphs);
  engine.set_lineage_log(&lineage);
  (void)engine.solve();
  return schedule_digest(graphs, lineage);
}

template <typename Spec>
std::uint64_t gep_schedule_digest(const gepspark::SolverOptions& opt,
                                  std::size_t n) {
  auto input = gs::testutil::random_input<Spec>(n);
  gs::TileGrid<typename Spec::value_type> grid(
      input, opt.block_size, Spec::pad_diag(), Spec::pad_off());
  return plan_schedule_digest(
      gepspark::GepPlan<Spec>(
          std::make_shared<const gs::GepKernels<Spec>>(opt.kernel), grid,
          opt.fused_d),
      opt);
}

TEST(DataflowDag, GoldenScheduleDigestsAreUnchanged) {
  // Recorded from the separate GEP and nested engines this one engine
  // replaced, so it pins byte-identical graphs and lineage. A deliberate
  // schedule change must re-record the table; the failure message prints
  // the table the current engine produces.
  static const GoldenDigest kGolden[] = {
      {"fw IM la=0 ck=0", 0x44879e33c9b42fd3ULL},
      {"ge IM la=0 ck=0", 0xc47503213c70b12fULL},
      {"fw IM la=0 ck=0 fused", 0xbff8276b35f579efULL},
      {"ge IM la=0 ck=0 fused", 0xcfc0536eeeb04948ULL},
      {"gap IM la=0 ck=0", 0x518dd3a76c732d99ULL},
      {"accordion IM la=0 ck=0", 0x09924ecca8898fe7ULL},
      {"viterbi IM la=0 ck=0", 0x2d85d73273ae6abbULL},
      {"fw IM la=0 ck=2", 0xd33b5598892e4dbbULL},
      {"ge IM la=0 ck=2", 0x821a7d14919f041eULL},
      {"fw IM la=0 ck=2 fused", 0xba90cf2dfd0df8fbULL},
      {"ge IM la=0 ck=2 fused", 0x49b849070bfd1404ULL},
      {"gap IM la=0 ck=2", 0x9052c2438b3c1281ULL},
      {"accordion IM la=0 ck=2", 0x0ced6dbf5155c6fcULL},
      {"viterbi IM la=0 ck=2", 0x89bd779e6d1263bbULL},
      {"fw IM la=1 ck=0", 0x4fc5cf45f0482141ULL},
      {"ge IM la=1 ck=0", 0x1cfeaef2484a200dULL},
      {"fw IM la=1 ck=0 fused", 0x84a2bb7b9e740d90ULL},
      {"ge IM la=1 ck=0 fused", 0xbef8d4ffdfbd3f6aULL},
      {"gap IM la=1 ck=0", 0x429353f7ee1730f9ULL},
      {"accordion IM la=1 ck=0", 0x6bf5dfc72f93015bULL},
      {"viterbi IM la=1 ck=0", 0xf71682419d903ce7ULL},
      {"fw IM la=1 ck=2", 0xdad3514b9c7c2489ULL},
      {"ge IM la=1 ck=2", 0xb1156955b575eb74ULL},
      {"fw IM la=1 ck=2 fused", 0x83c4ff8c58310defULL},
      {"ge IM la=1 ck=2 fused", 0x1bb79250b767a3d7ULL},
      {"gap IM la=1 ck=2", 0x3cbb85c087992cd5ULL},
      {"accordion IM la=1 ck=2", 0x8e00d1779b8e704aULL},
      {"viterbi IM la=1 ck=2", 0x7a41d46954585003ULL},
      {"fw CB la=0 ck=0", 0xaa1eb3fad35e0aa1ULL},
      {"ge CB la=0 ck=0", 0x34c2b764e7e5ad99ULL},
      {"fw CB la=0 ck=0 fused", 0xa6b1e33358ce89feULL},
      {"ge CB la=0 ck=0 fused", 0xef7142dc05842a8bULL},
      {"gap CB la=0 ck=0", 0x7d663a05fc9c05bdULL},
      {"accordion CB la=0 ck=0", 0x5f38d2b925ad1ff3ULL},
      {"viterbi CB la=0 ck=0", 0x32e77e8b14e3817eULL},
      {"fw CB la=0 ck=2", 0x26e4c8e0f0a8de2cULL},
      {"ge CB la=0 ck=2", 0x0ce578b721923362ULL},
      {"fw CB la=0 ck=2 fused", 0xc56950ff6d2baac4ULL},
      {"ge CB la=0 ck=2 fused", 0x72a6c44da56ce8b1ULL},
      {"gap CB la=0 ck=2", 0x238eeb5165efe29eULL},
      {"accordion CB la=0 ck=2", 0xe58b632e68fe9dd4ULL},
      {"viterbi CB la=0 ck=2", 0xca65e77adea2ccdeULL},
      {"fw CB la=1 ck=0", 0xf848a7e230172380ULL},
      {"ge CB la=1 ck=0", 0x70ff0949308f453fULL},
      {"fw CB la=1 ck=0 fused", 0xf60b9a744594661aULL},
      {"ge CB la=1 ck=0 fused", 0xe8f239bb63033a21ULL},
      {"gap CB la=1 ck=0", 0x043689e559daf160ULL},
      {"accordion CB la=1 ck=0", 0x7847261cae237440ULL},
      {"viterbi CB la=1 ck=0", 0x40e3376556c19812ULL},
      {"fw CB la=1 ck=2", 0xfe539c52ca8bd17cULL},
      {"ge CB la=1 ck=2", 0xcb1eccaaab2fa46cULL},
      {"fw CB la=1 ck=2 fused", 0x99d54523fb7e25c6ULL},
      {"ge CB la=1 ck=2 fused", 0x5a4fb0e5f00a4282ULL},
      {"gap CB la=1 ck=2", 0xa369f678c82abddeULL},
      {"accordion CB la=1 ck=2", 0xa77d1930d7d6b08cULL},
      {"viterbi CB la=1 ck=2", 0x0b292831c9047b3eULL},
  };
  std::vector<std::pair<std::string, std::uint64_t>> got;
  for (auto strategy :
       {gepspark::Strategy::kInMemory, gepspark::Strategy::kCollectBroadcast}) {
    for (int lookahead : {0, 1}) {
      for (int interval : {0, 2}) {
        const std::string cfg =
            gs::strfmt("%s la=%d ck=%d", gepspark::strategy_name(strategy),
                       lookahead, interval);
        for (bool fused : {false, true}) {
          auto opt = golden_options(strategy, lookahead, interval, 16);
          opt.fused_d = fused;
          const char* d = fused ? " fused" : "";
          got.emplace_back("fw " + cfg + d,
                           gep_schedule_digest<gs::FloydWarshallSpec>(opt, 80));
          got.emplace_back(
              "ge " + cfg + d,
              gep_schedule_digest<gs::GaussianEliminationSpec>(opt, 80));
        }
        const auto opt = golden_options(strategy, lookahead, interval, 8);
        const nested::GapProblem gap{40, 3};
        const nested::AccordionProblem accordion{40, 3};
        const nested::ViterbiProblem viterbi{24, 6, 8, 3};
        got.emplace_back("gap " + cfg,
                         plan_schedule_digest(nested::GapPlan(gap, 8), opt));
        got.emplace_back(
            "accordion " + cfg,
            plan_schedule_digest(nested::AccordionPlan(accordion, 8), opt));
        got.emplace_back(
            "viterbi " + cfg,
            plan_schedule_digest(nested::ViterbiPlan(viterbi, 8), opt));
      }
    }
  }
  bool same = got.size() == std::size(kGolden);
  for (std::size_t c = 0; same && c < got.size(); ++c) {
    same = got[c].first == kGolden[c].config &&
           got[c].second == kGolden[c].digest;
  }
  if (!same) {
    std::string table;
    for (const auto& [cfg, digest] : got) {
      table += gs::strfmt("      {\"%s\", 0x%016llxULL},\n", cfg.c_str(),
                          static_cast<unsigned long long>(digest));
    }
    ADD_FAILURE() << "emitted schedules differ from the recorded digests; "
                     "current table:\n"
                  << table;
  }
}

}  // namespace

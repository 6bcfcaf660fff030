// Fault injection + retry: the "resilient" in RDD. Task attempts are lost
// with a configured probability; pure partition computations recompute on
// retry, so jobs — including full GEP solves — survive unreliable executors
// and still produce bit-identical results.
//
// The chaos suite below escalates to the full failure taxonomy — executor
// kills, reducer-side fetch failures, checkpoint corruption, stragglers,
// memory-pressure eviction — and asserts both bit-identical results and
// non-zero recovery counters, across strategies and seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gepspark/solver.hpp"
#include "nested/nested_driver.hpp"
#include "sparklet/rdd.hpp"
#include "sparklet/task_graph.hpp"
#include "support/format.hpp"
#include "test_util.hpp"

namespace {

using namespace sparklet;

TEST(FaultTolerance, NoPlanMeansNoFailures) {
  SparkContext sc(ClusterConfig::local(2, 2));
  parallelize(sc, std::vector<int>{1, 2, 3, 4}, 4).count();
  EXPECT_EQ(sc.injected_failures(), 0);
}

TEST(FaultTolerance, RetriesRecoverFlakyTasks) {
  SparkContext sc(ClusterConfig::local(2, 2));
  sc.set_chaos_plan({.task_failure_prob = 0.3, .max_task_attempts = 10, .seed = 7});
  std::vector<int> xs(200);
  std::iota(xs.begin(), xs.end(), 0);
  auto sum = parallelize(sc, xs, 16)
                 .map([](const int& x) { return x * 2; })
                 .reduce([](int a, const int& b) { return a + b; });
  EXPECT_EQ(sum, 199 * 200);
  EXPECT_GT(sc.injected_failures(), 0);  // failures happened and were healed
}

TEST(FaultTolerance, ExhaustedRetriesAbortTheJob) {
  SparkContext sc(ClusterConfig::local(2, 2));
  sc.set_chaos_plan({.task_failure_prob = 1.0, .max_task_attempts = 3, .seed = 7});
  auto r = parallelize(sc, std::vector<int>{1, 2}, 2);
  EXPECT_THROW(r.count(), gs::JobAbortedError);
  EXPECT_GE(sc.injected_failures(), 3);
}

TEST(FaultTolerance, InjectionIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    SparkContext sc(ClusterConfig::local(2, 2));
    sc.set_chaos_plan({.task_failure_prob = 0.4, .max_task_attempts = 16,
                       .seed = seed});
    std::vector<int> xs(100, 1);
    parallelize(sc, xs, 8).count();
    return sc.injected_failures();
  };
  EXPECT_EQ(run(11), run(11));
  // Different seeds are overwhelmingly likely to fail differently; allow
  // equality only if both are nonzero (sanity, not flakiness).
  EXPECT_GT(run(11), 0);
}

TEST(FaultTolerance, FullGepSolveSurvivesFlakyCluster) {
  SparkContext sc(ClusterConfig::local(3, 2));
  sc.set_chaos_plan({.task_failure_prob = 0.15, .max_task_attempts = 8, .seed = 3});

  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(48, 120);
  auto expected = gs::testutil::reference_solution<gs::FloydWarshallSpec>(input);

  for (auto strategy : {gepspark::Strategy::kInMemory,
                        gepspark::Strategy::kCollectBroadcast}) {
    gepspark::SolverOptions opt;
    opt.block_size = 16;
    opt.strategy = strategy;
    auto got = gepspark::spark_floyd_warshall(sc, input, opt).matrix;
    EXPECT_LE(gs::max_abs_diff(got, expected), 1e-9)
        << gepspark::strategy_name(strategy);
  }
  EXPECT_GT(sc.injected_failures(), 0);
}

TEST(FaultTolerance, ResultsBitIdenticalWithAndWithoutFaults) {
  auto input = gs::testutil::random_input<gs::GaussianEliminationSpec>(32, 121);
  gepspark::SolverOptions opt;
  opt.block_size = 16;

  SparkContext clean(ClusterConfig::local(2, 2));
  auto a = gepspark::spark_gaussian_elimination(clean, input, opt).matrix;

  SparkContext flaky(ClusterConfig::local(2, 2));
  flaky.set_chaos_plan({.task_failure_prob = 0.2, .max_task_attempts = 12,
                        .seed = 99});
  auto b = gepspark::spark_gaussian_elimination(flaky, input, opt).matrix;

  EXPECT_TRUE(a == b);
}

TEST(FaultTolerance, ShuffleSideRetriesToo) {
  SparkContext sc(ClusterConfig::local(2, 2));
  sc.set_chaos_plan({.task_failure_prob = 0.25, .max_task_attempts = 10, .seed = 5});
  std::vector<std::pair<std::int64_t, std::int64_t>> kv;
  for (std::int64_t i = 0; i < 120; ++i) kv.push_back({i % 12, 1});
  auto counts =
      parallelize_pairs(sc, kv, nullptr)
          .partition_by(std::make_shared<HashPartitioner>(5))
          .reduce_by_key([](std::int64_t a, std::int64_t b) { return a + b; })
          .collect();
  EXPECT_EQ(counts.size(), 12u);
  for (auto& [k, v] : counts) EXPECT_EQ(v, 10);
}

// ======================= chaos suite =======================

/// Everything at once: flaky tasks, two executor kills, fetch failures,
/// stragglers, and a guaranteed-corrupted checkpoint block.
ChaosPlan heavy_chaos(std::uint64_t seed) {
  ChaosPlan p;
  p.task_failure_prob = 0.25;
  p.max_task_attempts = 12;
  p.executor_kill_prob = 0.6;
  p.max_executor_kills = 2;
  p.fetch_failure_prob = 0.25;
  p.max_stage_attempts = 6;
  p.straggler_prob = 0.2;
  p.straggler_factor = 4.0;
  p.checkpoint_corruption_prob = 1.0;
  p.max_block_corruptions = 1;
  p.seed = seed;
  return p;
}

void accumulate(RecoveryCounters& total, const RecoveryCounters& rc) {
  total.task_failures += rc.task_failures;
  total.executor_kills += rc.executor_kills;
  total.tasks_rescheduled += rc.tasks_rescheduled;
  total.partitions_dropped += rc.partitions_dropped;
  total.partitions_recomputed += rc.partitions_recomputed;
  total.fetch_failures += rc.fetch_failures;
  total.stage_resubmissions += rc.stage_resubmissions;
  total.checkpoint_blocks += rc.checkpoint_blocks;
  total.corrupted_blocks += rc.corrupted_blocks;
  total.stragglers_injected += rc.stragglers_injected;
  total.speculative_launches += rc.speculative_launches;
  total.speculative_wins += rc.speculative_wins;
}

TEST(ChaosSeed, TupleFieldsCannotCollide) {
  const std::uint64_t s = 42;
  // The retired scheme XORed shifted fields (seed ^ id<<40 ^ p<<8 ^ attempt),
  // so (partition 1, attempt 0) and (partition 0, attempt 256) collided.
  // The splitmix absorption keeps every field position significant.
  EXPECT_NE(chaos_event_seed(s, kChaosTask, 7, 1, 0),
            chaos_event_seed(s, kChaosTask, 7, 0, 256));
  // Field order matters: (a, b) vs (b, a) are distinct decision streams.
  EXPECT_NE(chaos_event_seed(s, kChaosTask, 3, 5, 0),
            chaos_event_seed(s, kChaosTask, 5, 3, 0));
  // Tags separate event families sharing the same tuple.
  EXPECT_NE(chaos_event_seed(s, kChaosTask, 7, 1, 0),
            chaos_event_seed(s, kChaosStraggler, 7, 1, 0));
  // Pure function: same tuple, same seed.
  EXPECT_EQ(chaos_event_seed(s, kChaosFetch, 9, 2, 4),
            chaos_event_seed(s, kChaosFetch, 9, 2, 4));
}

TEST(ChaosSeed, InjectionIndependentOfPhysicalThreads) {
  // Same chaos plan, radically different host parallelism: every injection
  // decision (and therefore the failure count and the result) must be
  // bit-identical, because decisions are keyed on (rdd, partition, epoch,
  // attempt) — never on scheduling order.
  auto run = [](int physical_threads, RecoveryCounters& rc) {
    auto cfg = ClusterConfig::local(2, 2);
    cfg.physical_threads = physical_threads;
    SparkContext sc(cfg);
    ChaosPlan plan;
    plan.task_failure_prob = 0.3;
    plan.max_task_attempts = 16;
    plan.straggler_prob = 0.3;
    plan.seed = 13;
    sc.set_chaos_plan(plan);
    std::vector<int> xs(256);
    std::iota(xs.begin(), xs.end(), 0);
    auto out = parallelize(sc, xs, 16)
                   .map([](const int& x) { return 3 * x + 1; })
                   .collect();
    rc = sc.metrics().recovery();
    return out;
  };
  RecoveryCounters serial, wide;
  auto a = run(1, serial);
  auto b = run(8, wide);
  EXPECT_EQ(a, b);
  EXPECT_GT(serial.task_failures, 0);
  EXPECT_EQ(serial.task_failures, wide.task_failures);
  EXPECT_EQ(serial.task_retries, wide.task_retries);
  EXPECT_EQ(serial.stragglers_injected, wide.stragglers_injected);
}

TEST(ChaosRecovery, ExecutorKillRecomputesLostPartitions) {
  SparkContext sc(ClusterConfig::local(3, 2));
  ChaosPlan plan;
  plan.executor_kill_prob = 1.0;
  plan.max_executor_kills = 2;
  plan.seed = 5;
  sc.set_chaos_plan(plan);

  std::vector<int> xs(120);
  std::iota(xs.begin(), xs.end(), 0);
  auto base = parallelize(sc, xs, 12);
  base.cache();  // job 1: kill #1 fires; base's own stage finishes on survivors

  // Job 2 runs a child stage; kill #2 invalidates cached `base` partitions
  // on the victim executor.
  auto doubled = base.map([](const int& x) { return 2 * x; });
  EXPECT_EQ(doubled.reduce([](int a, const int& b) { return a + b; }),
            119 * 120);

  const auto& rc = sc.metrics().recovery();
  EXPECT_EQ(rc.executor_kills, 2);
  EXPECT_GT(rc.tasks_rescheduled, 0);
  EXPECT_GT(rc.partitions_dropped, 0);

  // Reading `base` again hits the holes and regenerates them from lineage.
  auto restored = base.collect();
  EXPECT_EQ(restored, xs);
  EXPECT_GT(sc.metrics().recovery().partitions_recomputed, 0);
}

TEST(ChaosRecovery, FetchFailureResubmitsParentStage) {
  SparkContext sc(ClusterConfig::local(2, 2));
  ChaosPlan plan;
  plan.fetch_failure_prob = 1.0;
  plan.max_stage_attempts = 4;
  plan.seed = 17;
  sc.set_chaos_plan(plan);

  // partition_by forces a real shuffle (a wide node) — with the default
  // partitioner reduce_by_key would be copartitioned and narrow.
  std::vector<std::pair<std::int64_t, std::int64_t>> kv;
  for (std::int64_t i = 0; i < 90; ++i) kv.push_back({i % 9, 1});
  auto counts =
      parallelize_pairs(sc, kv, nullptr)
          .partition_by(std::make_shared<HashPartitioner>(5))
          .reduce_by_key([](std::int64_t a, std::int64_t b) { return a + b; })
          .collect();
  EXPECT_EQ(counts.size(), 9u);
  for (auto& [k, v] : counts) EXPECT_EQ(v, 10) << "key " << k;

  const auto& rc = sc.metrics().recovery();
  EXPECT_GT(rc.fetch_failures, 0);
  EXPECT_GT(rc.stage_resubmissions, 0);
  EXPECT_GT(rc.partitions_dropped, 0);
  EXPECT_GT(rc.partitions_recomputed, 0);

  bool saw_fetch_marker = false, saw_resubmit_marker = false;
  for (const auto& m : sc.timeline().markers()) {
    saw_fetch_marker |= m.name == "fetch-failure";
    saw_resubmit_marker |= m.name == "stage-resubmit";
  }
  EXPECT_TRUE(saw_fetch_marker);
  EXPECT_TRUE(saw_resubmit_marker);
}

TEST(ChaosRecovery, CheckpointCorruptionHealedFromLineage) {
  SparkContext sc(ClusterConfig::local(2, 2));
  ChaosPlan plan;
  plan.checkpoint_corruption_prob = 1.0;
  plan.max_block_corruptions = 1;
  plan.seed = 23;
  sc.set_chaos_plan(plan);

  std::vector<int> xs(80);
  std::iota(xs.begin(), xs.end(), 0);
  auto r = parallelize(sc, xs, 8).map([](const int& x) { return x * x; });
  r.checkpoint();

  const auto& rc = sc.metrics().recovery();
  EXPECT_EQ(rc.corrupted_blocks, 1);  // budget of one bad write, then healed
  EXPECT_EQ(rc.checkpoint_blocks, 8);
  EXPECT_GT(rc.checkpoint_bytes, 0u);

  auto got = r.collect();
  std::vector<int> want(80);
  for (int i = 0; i < 80; ++i) want[i] = i * i;
  EXPECT_EQ(got, want);
}

TEST(ChaosRecovery, LossBeyondLineageHorizonAborts) {
  SparkContext sc(ClusterConfig::local(2, 2));
  std::vector<int> xs(40, 1);
  auto r = parallelize(sc, xs, 4).map([](const int& x) { return x + 1; });
  r.checkpoint();  // truncates lineage: the data is now the only copy

  r.node()->drop_partition(0);  // simulate losing checkpointed state itself
  EXPECT_THROW(r.collect(), gs::JobAbortedError);
}

TEST(ChaosRecovery, MemoryPressureEvictsThenRecomputes) {
  // Executor memory only fits one cached RDD: caching the second evicts the
  // first (LRU, graceful degradation) instead of failing; re-reading the
  // first recomputes the evicted partitions from lineage.
  auto cfg = ClusterConfig::local(2, 2);
  cfg.executor_mem_bytes = 1000.0;  // per executor; each RDD ~800 B/executor
  SparkContext sc(cfg);

  std::vector<double> xs(200);
  std::iota(xs.begin(), xs.end(), 0.0);
  auto a = parallelize(sc, xs, 4);
  a.cache();
  auto b = parallelize(sc, xs, 4);
  b.cache();  // pushes a's blocks out: a's partitions are dropped, not lost

  EXPECT_GT(sc.executor_store().evictions(), 0);
  const auto& rc = sc.metrics().recovery();
  EXPECT_GT(rc.evictions, 0);
  EXPECT_GT(rc.partitions_dropped, 0);

  const double sum =
      a.reduce([](double acc, const double& x) { return acc + x; });
  EXPECT_DOUBLE_EQ(sum, 199.0 * 200.0 / 2.0);
  EXPECT_GT(sc.metrics().recovery().partitions_recomputed, 0);
}

TEST(ChaosRecovery, StragglersTriggerSpeculativeCopies) {
  SparkContext sc(ClusterConfig::local(2, 2));
  ChaosPlan plan;
  plan.straggler_prob = 0.4;
  plan.straggler_factor = 8.0;
  plan.seed = 21;
  sc.set_chaos_plan(plan);
  sc.set_speculation({.enabled = true, .multiplier = 2.0, .min_tasks = 4});

  std::vector<int> xs(160);
  std::iota(xs.begin(), xs.end(), 0);
  auto sum = parallelize(sc, xs, 16)
                 .map([](const int& x) { return x; })
                 .reduce([](int a, const int& b) { return a + b; });
  EXPECT_EQ(sum, 159 * 160 / 2);

  const auto& rc = sc.metrics().recovery();
  EXPECT_GT(rc.stragglers_injected, 0);
  EXPECT_GT(rc.speculative_launches, 0);
  EXPECT_GT(rc.speculative_wins, 0);  // 8× slowdown vs 2× threshold: copy wins
}

TEST(ChaosRecovery, TraceExportsRecoveryMarkers) {
  SparkContext sc(ClusterConfig::local(2, 2));
  ChaosPlan plan;
  plan.fetch_failure_prob = 1.0;
  plan.seed = 31;
  sc.set_chaos_plan(plan);

  std::vector<std::pair<std::int64_t, std::int64_t>> kv;
  for (std::int64_t i = 0; i < 40; ++i) kv.push_back({i % 4, i});
  parallelize_pairs(sc, kv, nullptr)
      .partition_by(std::make_shared<HashPartitioner>(3))
      .reduce_by_key([](std::int64_t a, std::int64_t b) { return a + b; })
      .collect();

  const std::string path = "chaos_trace_test.json";
  sc.timeline().write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string trace = ss.str();
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(trace.find("stage-resubmit"), std::string::npos);
  std::remove(path.c_str());
}

template <typename Spec>
void expect_bit_identical_under_chaos(gepspark::Strategy strategy,
                                      gepspark::ScheduleMode schedule,
                                      std::uint64_t seed,
                                      RecoveryCounters& total) {
  auto input = gs::testutil::random_input<Spec>(40, 100 + seed);
  gepspark::SolverOptions opt;
  opt.block_size = 16;
  opt.strategy = strategy;
  opt.schedule = schedule;
  if (schedule == gepspark::ScheduleMode::kDataflow) {
    opt.lookahead = static_cast<int>(seed % 3);  // sweep depths 0..2 for free
  }

  SparkContext clean(ClusterConfig::local(3, 2));
  auto expected = gepspark::solve_gep<Spec>(clean, input, opt);

  SparkContext chaotic(ClusterConfig::local(3, 2));
  chaotic.set_chaos_plan(heavy_chaos(seed));
  chaotic.set_speculation({.enabled = true});
  auto got = gepspark::solve_gep<Spec>(chaotic, input, opt);

  EXPECT_TRUE(got.matrix == expected.matrix)
      << gepspark::strategy_name(strategy) << " "
      << gepspark::schedule_name(schedule) << " seed " << seed;
  accumulate(total, chaotic.metrics().recovery());
}

TEST(ChaosProperty, GepSolvesBitIdenticalUnderHeavyChaos) {
  // The acceptance bar: FW / GE / TC on both strategies and both schedulers,
  // several seeds, with ≥20% task failure plus kills, fetch failures,
  // stragglers, speculation, and a corrupted checkpoint block — results must
  // equal the fault-free run bit for bit, and the recovery machinery must
  // demonstrably fire.
  RecoveryCounters total;
  for (auto schedule : {gepspark::ScheduleMode::kBarrier,
                        gepspark::ScheduleMode::kDataflow}) {
    for (auto strategy : {gepspark::Strategy::kInMemory,
                          gepspark::Strategy::kCollectBroadcast}) {
      for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        expect_bit_identical_under_chaos<gs::FloydWarshallSpec>(
            strategy, schedule, seed, total);
        expect_bit_identical_under_chaos<gs::GaussianEliminationSpec>(
            strategy, schedule, seed, total);
        expect_bit_identical_under_chaos<gs::TransitiveClosureSpec>(
            strategy, schedule, seed, total);
      }
    }
  }
  EXPECT_GT(total.task_failures, 0);
  EXPECT_GT(total.executor_kills, 0);
  EXPECT_GT(total.tasks_rescheduled, 0);
  EXPECT_GT(total.partitions_recomputed, 0);
  EXPECT_GT(total.checkpoint_blocks, 0);
  EXPECT_GT(total.corrupted_blocks, 0);
  EXPECT_GT(total.stragglers_injected, 0);
  EXPECT_GT(total.speculative_launches, 0);
}

TEST(ChaosProperty, CheckpointIntervalDoesNotChangeResults) {
  // interval = 1 is the paper's per-iteration persist; 0 leaves the whole
  // lineage live (recovery replays from the input); 3 is in between. All
  // three must agree — with and without chaos.
  auto input = gs::testutil::random_input<gs::GaussianEliminationSpec>(48, 9);
  gepspark::SolverOptions opt;
  opt.block_size = 16;

  SparkContext clean(ClusterConfig::local(2, 2));
  opt.checkpoint_interval = 1;
  auto expected = gepspark::spark_gaussian_elimination(clean, input, opt).matrix;

  for (int interval : {0, 3}) {
    SparkContext sc(ClusterConfig::local(2, 2));
    opt.checkpoint_interval = interval;
    auto got = gepspark::spark_gaussian_elimination(sc, input, opt).matrix;
    EXPECT_TRUE(got == expected) << "interval " << interval;
  }

  // Deep-lineage recovery: no checkpoints at all, full chaos. Lost
  // partitions can only come back by replaying ancestors.
  SparkContext chaotic(ClusterConfig::local(3, 2));
  chaotic.set_chaos_plan(heavy_chaos(4));
  opt.checkpoint_interval = 0;
  auto got = gepspark::spark_gaussian_elimination(chaotic, input, opt).matrix;
  EXPECT_TRUE(got == expected);
}

// ======================= golden replay digests =======================
//
// Barrier stages and task graphs share one task runner: chaos retry,
// straggler stretch, budgeted executor kill with survivor reroute,
// speculation and TaskMetric emission. Every field hashed below is a pure
// function of the chaos plan, so these digests pin all of those decision
// streams, the fetch-failure resubmissions and the checkpoint heal loops.
// They were recorded while the two runners were still separate copies.
// Wall times, lane slots, virtual seconds and result bits stay out: the
// first three are measured, and result bits can differ between build trees
// (the chaos suites above already gate bit-identity).

ChaosPlan golden_chaos(std::uint64_t seed) {
  ChaosPlan p;
  p.task_failure_prob = 0.25;
  p.max_task_attempts = 12;
  p.executor_kill_prob = 0.6;
  p.max_executor_kills = 3;
  p.fetch_failure_prob = 0.25;
  p.straggler_prob = 0.2;
  p.straggler_factor = 4.0;
  p.checkpoint_corruption_prob = 1.0;
  p.max_block_corruptions = 2;
  p.seed = seed;
  return p;
}

// A one-second task overhead dwarfs every measured body time, so even the
// speculation threshold (a median of overhead-dominated slot times) does not
// depend on how fast the host ran the tasks.
std::unique_ptr<SparkContext> golden_context(std::uint64_t seed) {
  auto cfg = ClusterConfig::local(3, 2);
  cfg.task_overhead_s = 1.0;
  auto sc = std::make_unique<SparkContext>(cfg);
  sc->set_chaos_plan(golden_chaos(seed));
  sc->set_speculation({.enabled = true, .multiplier = 2.0, .min_tasks = 2});
  return sc;
}

std::uint64_t replay_digest(SparkContext& sc) {
  gs::testutil::Fnv1a h;
  auto add_size = [&](std::size_t v) { h.add(static_cast<long long>(v)); };
  const auto tasks = sc.metrics().tasks();
  add_size(tasks.size());
  for (const TaskMetric& t : tasks) {
    h.add(t.stage_id);
    h.add(t.partition);
    h.add(t.executor);
    add_size(t.input_records);
    add_size(t.output_records);
    h.add(t.attempt);
    h.add(t.speculative ? 1 : 0);
    h.add(t.straggler ? 1 : 0);
  }
  const auto stages = sc.metrics().stages();
  add_size(stages.size());
  for (const StageMetric& s : stages) {
    h.add(s.stage_id);
    h.add(s.name);
    h.add(s.shuffle_input ? 1 : 0);
    h.add(s.num_tasks);
    add_size(s.shuffle_read_bytes);
    add_size(s.shuffle_write_bytes);
    add_size(s.records_out);
  }
  const VirtualTimeline& tl = sc.timeline();
  add_size(tl.stages().size());
  for (const auto& r : tl.stages()) {
    h.add(r.name);
    h.add(r.num_tasks);
    h.add(static_cast<long long>(r.category));
  }
  add_size(tl.task_spans().size());
  for (const auto& span : tl.task_spans()) {
    h.add(span.stage_index);
    h.add(span.executor);
  }
  add_size(tl.markers().size());
  for (const auto& m : tl.markers()) h.add(m.name);
  const RecoveryCounters rc = sc.metrics().recovery();
  for (long long v :
       {rc.task_failures, rc.task_retries, rc.executor_kills,
        rc.tasks_rescheduled, rc.partitions_dropped, rc.partitions_recomputed,
        rc.fetch_failures, rc.stage_resubmissions, rc.checkpoint_blocks,
        static_cast<int>(rc.checkpoint_bytes), rc.corrupted_blocks,
        rc.evictions, rc.stragglers_injected, rc.speculative_launches,
        rc.speculative_wins, rc.spilled_blocks,
        static_cast<int>(rc.spilled_bytes), rc.spill_readbacks,
        static_cast<int>(rc.spill_readback_bytes), rc.corrupt_spills,
        rc.spill_write_failures}) {
    h.add(v);
  }
  h.add(sc.injected_failures());
  return h.value();
}

gepspark::SolverOptions golden_options(gepspark::Strategy strategy,
                                       gepspark::ScheduleMode schedule,
                                       int interval) {
  gepspark::SolverOptions opt;
  opt.block_size = 16;
  opt.strategy = strategy;
  opt.schedule = schedule;
  opt.checkpoint_interval = interval;
  return opt;
}

template <typename Spec>
void golden_gep(SparkContext& sc, const gepspark::SolverOptions& opt) {
  (void)gepspark::solve_gep<Spec>(sc, gs::testutil::random_input<Spec>(48, 7),
                                  opt);
}

void golden_gap(SparkContext& sc, const gepspark::SolverOptions& base) {
  gepspark::SolverOptions opt = base;
  opt.block_size = 8;
  const nested::GapProblem prob{40, 5};
  (void)nested::nested_solve(sc, nested::GapPlan(prob, opt.block_size), opt);
}

void golden_rdd_job(SparkContext& sc) {
  std::vector<std::pair<std::int64_t, std::int64_t>> kv;
  for (std::int64_t i = 0; i < 120; ++i) kv.push_back({i % 12, i});
  auto base = parallelize_pairs(sc, kv, nullptr);
  base.cache();
  const auto sums =
      base.partition_by(std::make_shared<HashPartitioner>(5))
          .reduce_by_key([](std::int64_t a, std::int64_t b) { return a + b; })
          .collect();
  EXPECT_EQ(sums.size(), 12u);
}

// A 12-task chain-and-skip DAG over every executor; every fourth task is a
// modeled transfer.
void golden_task_graphs(SparkContext& sc) {
  const int execs = sc.config().num_executors();
  std::vector<DataflowTaskSpec> specs(12);
  for (int i = 0; i < 12; ++i) {
    DataflowTaskSpec& t = specs[static_cast<std::size_t>(i)];
    t.transfer = i % 4 == 1;
    t.label = t.transfer ? "xfer" : "work";
    t.model_s = t.transfer ? 0.25 : 0.0;
    t.executor = i % execs;
    if (i >= 1) t.deps.push_back(i - 1);
    if (i >= 3) t.deps.push_back(i - 3);
    std::sort(t.deps.begin(), t.deps.end());
  }
  for (int run = 0; run < 3; ++run) {
    (void)sc.run_task_graph(gs::strfmt("golden-%d", run), specs, [](int) {});
  }
}

struct GoldenReplay {
  const char* config;
  std::uint64_t digest;
};

TEST(ChaosReplay, GoldenDigestsAreUnchanged) {
  using gepspark::ScheduleMode;
  using gepspark::Strategy;
  static const GoldenReplay kGolden[] = {
      {"fw IM barrier ck=2 seed=3", 0x24e420666d2b2fc5ULL},
      {"fw IM barrier ck=2 seed=11", 0xc35ab40957e3feefULL},
      {"fw IM barrier ck=2 seed=29", 0xf010e093b74c9f1bULL},
      {"ge CB barrier ck=1 seed=3", 0x725e05aad74738f7ULL},
      {"ge CB barrier ck=1 seed=11", 0xbe0f84ce333705d8ULL},
      {"ge CB barrier ck=1 seed=29", 0xaf3729904aa5ea02ULL},
      {"fw IM dataflow la=1 seed=3", 0xaaef4c49da942125ULL},
      {"fw IM dataflow la=1 seed=11", 0x4f25ab1ab3d22464ULL},
      {"fw IM dataflow la=1 seed=29", 0x2d6599f235c988a3ULL},
      {"ge CB dataflow ck=2 seed=3", 0xce16d06bc96ffb92ULL},
      {"ge CB dataflow ck=2 seed=11", 0xa9ed7a0cfdf9cbb2ULL},
      {"ge CB dataflow ck=2 seed=29", 0x657adfc12d0a6505ULL},
      {"gap IM la=0 seed=3", 0x2945ad4519c08db1ULL},
      {"gap IM la=0 seed=11", 0xc3be2e3dc2944772ULL},
      {"gap IM la=0 seed=29", 0x96d19c053eda2636ULL},
      {"gap CB dataflow ck=2 seed=3", 0xa471a318b8a26d7fULL},
      {"gap CB dataflow ck=2 seed=11", 0xb22fbac1646d2210ULL},
      {"gap CB dataflow ck=2 seed=29", 0x475dac5da48ecfedULL},
      {"rdd cache+shuffle seed=3", 0x05ab082ef44a983eULL},
      {"rdd cache+shuffle seed=11", 0xbff9f4a001a3b481ULL},
      {"rdd cache+shuffle seed=29", 0xeecdfa749344991fULL},
      {"task graph x3 seed=3", 0x5acc0aec468f9f9bULL},
      {"task graph x3 seed=11", 0x9bd8bfff4f704079ULL},
      {"task graph x3 seed=29", 0xb5ee22bb6e5f87e9ULL},
  };
  const std::pair<const char*, std::function<void(SparkContext&)>> configs[] =
      {
          {"fw IM barrier ck=2",
           [](SparkContext& sc) {
             golden_gep<gs::FloydWarshallSpec>(
                 sc, golden_options(Strategy::kInMemory,
                                    ScheduleMode::kBarrier, 2));
           }},
          {"ge CB barrier ck=1",
           [](SparkContext& sc) {
             golden_gep<gs::GaussianEliminationSpec>(
                 sc, golden_options(Strategy::kCollectBroadcast,
                                    ScheduleMode::kBarrier, 1));
           }},
          {"fw IM dataflow la=1",
           [](SparkContext& sc) {
             auto opt = golden_options(Strategy::kInMemory,
                                       ScheduleMode::kDataflow, 1);
             opt.lookahead = 1;
             golden_gep<gs::FloydWarshallSpec>(sc, opt);
           }},
          {"ge CB dataflow ck=2",
           [](SparkContext& sc) {
             golden_gep<gs::GaussianEliminationSpec>(
                 sc, golden_options(Strategy::kCollectBroadcast,
                                    ScheduleMode::kDataflow, 2));
           }},
          // kBarrier on a wavefront plan is the engine at lookahead 0.
          {"gap IM la=0",
           [](SparkContext& sc) {
             golden_gap(sc, golden_options(Strategy::kInMemory,
                                           ScheduleMode::kBarrier, 1));
           }},
          {"gap CB dataflow ck=2",
           [](SparkContext& sc) {
             golden_gap(sc, golden_options(Strategy::kCollectBroadcast,
                                           ScheduleMode::kDataflow, 2));
           }},
          {"rdd cache+shuffle", golden_rdd_job},
          {"task graph x3", golden_task_graphs},
      };
  RecoveryCounters total;
  std::vector<std::pair<std::string, std::uint64_t>> got;
  for (const auto& [name, run] : configs) {
    for (std::uint64_t seed : {3ull, 11ull, 29ull}) {
      auto sc = golden_context(seed);
      run(*sc);
      accumulate(total, sc->metrics().recovery());
      got.emplace_back(gs::strfmt("%s seed=%llu", name,
                                  static_cast<unsigned long long>(seed)),
                       replay_digest(*sc));
    }
  }
  // The digests only guard decision streams that actually fired.
  EXPECT_GT(total.task_failures, 0);
  EXPECT_GT(total.executor_kills, 0);
  EXPECT_GT(total.tasks_rescheduled, 0);
  EXPECT_GT(total.partitions_dropped, 0);
  EXPECT_GT(total.partitions_recomputed, 0);
  EXPECT_GT(total.fetch_failures, 0);
  EXPECT_GT(total.stage_resubmissions, 0);
  EXPECT_GT(total.checkpoint_blocks, 0);
  EXPECT_GT(total.corrupted_blocks, 0);
  EXPECT_GT(total.stragglers_injected, 0);
  EXPECT_GT(total.speculative_launches, 0);
  EXPECT_GT(total.speculative_wins, 0);

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
    ADD_FAILURE() << "chaos replay differs from the recorded digests; "
                     "current table:\n"
                  << table;
  }
}

TEST(ChaosReplay, GraphWithoutComputeTasksSkipsSpeculation) {
  // Three transfers and no compute task: there is no median to speculate
  // against, even when the policy allows speculation on any task count.
  SparkContext sc(ClusterConfig::local(2, 2));
  sc.set_speculation({.enabled = true, .multiplier = 2.0, .min_tasks = 0});
  std::vector<DataflowTaskSpec> specs(3);
  for (int i = 0; i < 3; ++i) {
    DataflowTaskSpec& t = specs[static_cast<std::size_t>(i)];
    t.label = "xfer";
    t.transfer = true;
    t.model_s = 0.5;
    t.executor = i % sc.config().num_executors();
    if (i > 0) t.deps = {i - 1};
  }
  std::atomic<int> ran{0};
  const TaskGraphResult res =
      sc.run_task_graph("transfers", specs, [&](int) { ++ran; });
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(res.tasks_run, 0);
  EXPECT_DOUBLE_EQ(res.makespan_s, 1.5);
  EXPECT_EQ(sc.metrics().recovery().speculative_launches, 0);
  EXPECT_TRUE(sc.metrics().tasks().empty());
}

}  // namespace

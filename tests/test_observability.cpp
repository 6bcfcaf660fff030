// Observability subsystem: span tracer semantics (nesting, thread safety,
// ring buffer, disable switch), MetricsScope deltas vs hand-diffed counters,
// JobProfile attribution (the ISSUE 3 acceptance bound: >=95% of virtual
// time in the six buckets for FW and GE under both strategies), exporter
// schema goldens, and the critical-path analyzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gepspark/solver.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/job_profile.hpp"
#include "obs/span.hpp"
#include "sparklet/rdd.hpp"
#include "support/rng.hpp"

namespace {

using gepspark::SolverOptions;
using gepspark::Strategy;
using sparklet::ClusterConfig;
using sparklet::SparkContext;

// Under -DGS_DISABLE_TRACING the tracer is compiled out: set_enabled() is
// inert and no spans record. Timeline-based attribution still works; the
// span-dependent tests skip.
#ifdef GS_OBS_DISABLE_TRACING
constexpr bool kTracingCompiledOut = true;
#else
constexpr bool kTracingCompiledOut = false;
#endif

#define SKIP_IF_TRACING_COMPILED_OUT()                              \
  do {                                                              \
    if (kTracingCompiledOut) GTEST_SKIP() << "tracer compiled out"; \
  } while (0)

gs::Matrix<double> fw_input(std::size_t n) {
  const double inf = std::numeric_limits<double>::infinity();
  gs::Matrix<double> m(n, n, inf);
  gs::Rng rng(5);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.uniform(0.0, 1.0) < 0.3) m(i, j) = rng.uniform(1.0, 9.0);
    }
  }
  return m;
}

gs::Matrix<double> ge_input(std::size_t n) {
  gs::Matrix<double> m(n, n, 0.0);
  gs::Rng rng(9);
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      m(i, j) = rng.uniform(-1.0, 1.0);
      row += std::abs(m(i, j));
    }
    m(i, i) = row + 1.0;  // diagonally dominant
  }
  return m;
}

SolverOptions options_for(Strategy s) {
  SolverOptions opt;
  opt.block_size = 32;
  opt.strategy = s;
  opt.kernel = gs::KernelConfig::iterative();
  return opt;
}

// ---------------------------------------------------------------------------
// Tracer mechanics
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledByDefaultAndNoopSpans) {
  obs::Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  {
    obs::ScopedSpan s(&tracer, obs::SpanLevel::kJob, "job");
    EXPECT_FALSE(s.active());
  }
  obs::ScopedSpan null_ok(nullptr, obs::SpanLevel::kTask, "task");
  EXPECT_FALSE(null_ok.active());
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Tracer, NestingParentsOnSameThread) {
  SKIP_IF_TRACING_COMPILED_OUT();
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    obs::ScopedSpan job(&tracer, obs::SpanLevel::kJob, "job");
    obs::ScopedSpan iter(&tracer, obs::SpanLevel::kIteration, "iteration", 3);
    obs::ScopedSpan phase(&tracer, obs::SpanLevel::kPhase, "A", 3);
    EXPECT_TRUE(phase.active());
  }
  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);  // committed innermost-first
  const obs::Span& phase = spans[0];
  const obs::Span& iter = spans[1];
  const obs::Span& job = spans[2];
  EXPECT_EQ(phase.name, "A");
  EXPECT_EQ(phase.parent, iter.id);
  EXPECT_EQ(iter.parent, job.id);
  EXPECT_EQ(job.parent, 0u);
  EXPECT_EQ(iter.index, 3);
  EXPECT_GE(phase.wall_end_s, phase.wall_start_s);
}

TEST(Tracer, CrossThreadSpansAdoptDriverParent) {
  SKIP_IF_TRACING_COMPILED_OUT();
  obs::Tracer tracer;
  tracer.set_enabled(true);
  std::uint64_t stage_id = 0;
  {
    obs::ScopedSpan stage(&tracer, obs::SpanLevel::kStage, "stageX", 1);
    stage_id = stage.id();
    std::thread worker([&tracer] {
      obs::ScopedSpan task(&tracer, obs::SpanLevel::kTask, "task", 0);
      obs::ScopedSpan kernel(&tracer, obs::SpanLevel::kKernel, "D", 0);
    });
    worker.join();
  }
  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  std::unordered_map<std::uint64_t, obs::Span> by_id;
  for (const auto& s : spans) by_id[s.id] = s;
  for (const auto& s : spans) {
    if (s.level == obs::SpanLevel::kTask) {
      EXPECT_EQ(s.parent, stage_id);  // adopted via the cross-thread hint
      EXPECT_FALSE(s.has_virtual());  // pool-thread spans are wall-only
    }
    if (s.level == obs::SpanLevel::kKernel) {
      EXPECT_EQ(by_id.at(s.parent).level, obs::SpanLevel::kTask);
    }
  }
}

TEST(Tracer, ThreadSafetyUnderConcurrentSpans) {
  SKIP_IF_TRACING_COMPILED_OUT();
  obs::Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::ScopedSpan outer(&tracer, obs::SpanLevel::kTask, "task",
                              t * kPerThread + i);
        obs::ScopedSpan inner(&tracer, obs::SpanLevel::kKernel, "k");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.recorded(), std::size_t(2 * kThreads * kPerThread));
  // All ids unique.
  auto spans = tracer.spans();
  std::vector<std::uint64_t> ids;
  for (const auto& s : spans) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(Tracer, RingBufferOverwritesOldestAndCountsDrops) {
  SKIP_IF_TRACING_COMPILED_OUT();
  obs::Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_capacity(8);
  EXPECT_EQ(tracer.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    obs::ScopedSpan s(&tracer, obs::SpanLevel::kTask, "t", i);
  }
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 8u);
  // Oldest-first iteration: the survivors are the newest 8, in order.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].index, std::int64_t(12 + i));
  }
  tracer.clear();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.spans().empty());
}

// ---------------------------------------------------------------------------
// MetricsScope
// ---------------------------------------------------------------------------

TEST(MetricsScope, DeltaMatchesHandDiffedCounters) {
  SparkContext sc(ClusterConfig::local(2, 2));
  // Pre-existing traffic so the scope has a non-zero baseline to subtract.
  gepspark::spark_floyd_warshall(sc, fw_input(64), options_for(Strategy::kInMemory));

  const double virt0 = sc.timeline().now();
  const int stages0 = sc.metrics().num_stages();
  const int tasks0 = sc.metrics().total_stage_tasks();
  const std::size_t shuffle0 = sc.metrics().total_shuffle_write();
  const std::size_t collect0 = sc.metrics().total_collect_bytes();
  const std::size_t bc0 = sc.metrics().total_broadcast_bytes();

  sparklet::MetricsScope scope(sc.metrics(), sc.timeline());
  gepspark::spark_floyd_warshall(sc, fw_input(64),
                                 options_for(Strategy::kCollectBroadcast));
  const sparklet::MetricsDelta d = scope.delta();

  EXPECT_DOUBLE_EQ(d.virtual_seconds, sc.timeline().now() - virt0);
  EXPECT_EQ(d.stages, sc.metrics().num_stages() - stages0);
  EXPECT_EQ(d.tasks, sc.metrics().total_stage_tasks() - tasks0);
  EXPECT_EQ(d.shuffle_write_bytes, sc.metrics().total_shuffle_write() - shuffle0);
  EXPECT_EQ(d.collect_bytes, sc.metrics().total_collect_bytes() - collect0);
  EXPECT_EQ(d.broadcast_bytes, sc.metrics().total_broadcast_bytes() - bc0);
  EXPECT_GT(d.stages, 0);
  EXPECT_LE(d.record_begin, d.record_end);
  EXPECT_EQ(d.record_end, sc.timeline().stages().size());
}

// ---------------------------------------------------------------------------
// JobProfile attribution — the ISSUE 3 acceptance bound
// ---------------------------------------------------------------------------

struct AttributionCase {
  const char* bench;
  Strategy strategy;
};

class AttributionTest : public ::testing::TestWithParam<AttributionCase> {};

TEST_P(AttributionTest, AtLeast95PercentOfVirtualTimeIsBucketed) {
  const AttributionCase& c = GetParam();
  SparkContext sc(ClusterConfig::local(4, 2));
  sc.tracer().set_enabled(true);
  const SolverOptions opt = options_for(c.strategy);

  obs::JobProfile p;
  if (std::string(c.bench) == "fw") {
    auto res = gepspark::spark_floyd_warshall(sc, fw_input(128), opt);
    p = std::move(res.profile);
  } else {
    auto res = gepspark::spark_gaussian_elimination(sc, ge_input(128), opt);
    p = std::move(res.profile);
  }

  EXPECT_GT(p.virtual_seconds, 0.0);
  EXPECT_GE(p.attributed_fraction(), 0.95) << p.job;
  EXPECT_LE(p.attributed_fraction(), 1.0 + 1e-9);
  EXPECT_EQ(p.grid_r, 4);  // 128 / 32
  EXPECT_GT(p.stages, 0);
  EXPECT_GT(p.tasks, 0);
  // The GEP-phase split covers the compute bucket.
  EXPECT_NEAR(p.phases.total(), p.buckets.compute_s, 1e-9);
  EXPECT_GT(p.phases.d_s, 0.0);  // trailing updates dominate any GEP run
  if (c.strategy == Strategy::kInMemory) {
    EXPECT_GT(p.shuffle_bytes, 0u);
    EXPECT_GT(p.buckets.shuffle_s, 0.0);
  } else {
    EXPECT_GT(p.collect_bytes, 0u);
    EXPECT_GT(p.broadcast_bytes, 0u);
    EXPECT_GT(p.buckets.collect_s, 0.0);
    EXPECT_GT(p.buckets.broadcast_s, 0.0);
  }
  if (kTracingCompiledOut) return;  // no spans → no per-iteration slices
  // Tracing ran: one slice per outer loop index (in order), plus at most one
  // k=-1 slice holding the records outside any iteration (setup + gather).
  std::vector<const obs::IterationProfile*> in_loop;
  double slice_total = 0.0;
  double in_loop_total = 0.0;
  for (const auto& it : p.iterations) {
    slice_total += it.buckets.total();
    if (it.k >= 0) {
      in_loop.push_back(&it);
      in_loop_total += it.buckets.total();
    }
  }
  ASSERT_EQ(in_loop.size(), std::size_t(p.grid_r));
  EXPECT_LE(p.iterations.size(), std::size_t(p.grid_r) + 1);
  for (std::size_t i = 0; i < in_loop.size(); ++i) {
    EXPECT_EQ(in_loop[i]->k, std::int64_t(i));
    EXPECT_GT(in_loop[i]->buckets.total(), 0.0);
  }
  // The slices partition the job's records exactly; the k-loop dominates.
  EXPECT_NEAR(slice_total, p.buckets.total(), 1e-9);
  EXPECT_GT(in_loop_total, 0.5 * p.buckets.total());
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, AttributionTest,
    ::testing::Values(AttributionCase{"fw", Strategy::kInMemory},
                      AttributionCase{"fw", Strategy::kCollectBroadcast},
                      AttributionCase{"ge", Strategy::kInMemory},
                      AttributionCase{"ge", Strategy::kCollectBroadcast}),
    [](const ::testing::TestParamInfo<AttributionCase>& info) {
      return std::string(info.param.bench) +
             (info.param.strategy == Strategy::kInMemory ? "_im" : "_cb");
    });

TEST(JobProfile, TracingDisabledStillAttributesButNoIterations) {
  SparkContext sc(ClusterConfig::local(4, 2));
  ASSERT_FALSE(sc.tracer().enabled());
  auto res = gepspark::spark_floyd_warshall(sc, fw_input(96),
                                            options_for(Strategy::kInMemory));
  EXPECT_EQ(sc.tracer().recorded(), 0u);
  EXPECT_TRUE(res.profile.iterations.empty());
  EXPECT_EQ(res.profile.spans_recorded, 0u);
  // Bucket attribution comes from the timeline, not spans — still exact.
  EXPECT_GE(res.profile.attributed_fraction(), 0.95);
}

TEST(JobProfile, SpanTreeUnderChaosStaysWellFormed) {
  SKIP_IF_TRACING_COMPILED_OUT();
  SparkContext sc(ClusterConfig::local(4, 2));
  sc.tracer().set_enabled(true);
  sc.set_chaos_plan({.task_failure_prob = 0.2, .max_task_attempts = 12,
                     .seed = 11});
  auto res = gepspark::spark_floyd_warshall(sc, fw_input(128),
                                            options_for(Strategy::kInMemory));
  EXPECT_GT(sc.metrics().recovery().task_retries, 0);
  EXPECT_GT(res.profile.buckets.recovery_s, 0.0);

  auto spans = sc.tracer().spans();
  ASSERT_FALSE(spans.empty());
  std::unordered_map<std::uint64_t, const obs::Span*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  std::size_t iterations = 0;
  std::size_t jobs = 0;
  for (const auto& s : spans) {
    if (s.level == obs::SpanLevel::kIteration) ++iterations;
    if (s.level == obs::SpanLevel::kJob) ++jobs;
    if (s.parent != 0 && by_id.count(s.parent)) {
      // Children always sit at a finer level than their parent.
      EXPECT_LT(static_cast<int>(by_id.at(s.parent)->level),
                static_cast<int>(s.level))
          << s.name << " under " << by_id.at(s.parent)->name;
    }
    if (s.has_virtual()) {
      EXPECT_GE(s.virt_end_s, s.virt_start_s) << s.name;
    }
    EXPECT_GE(s.wall_end_s, s.wall_start_s) << s.name;
  }
  EXPECT_EQ(jobs, 1u);
  EXPECT_EQ(iterations, std::size_t(res.profile.grid_r));
}

// ---------------------------------------------------------------------------
// Stage-label classification
// ---------------------------------------------------------------------------

TEST(ClassifyGepPhase, DriverLabelTaxonomy) {
  using obs::GepPhase;
  using obs::classify_gep_phase;
  EXPECT_EQ(classify_gep_phase("FilterA"), GepPhase::kA);
  EXPECT_EQ(classify_gep_phase("ARecGE"), GepPhase::kA);
  EXPECT_EQ(classify_gep_phase("partitionByBC"), GepPhase::kBC);
  EXPECT_EQ(classify_gep_phase("BCRecGE"), GepPhase::kBC);
  EXPECT_EQ(classify_gep_phase("cogroupD"), GepPhase::kD);
  EXPECT_EQ(classify_gep_phase("DRecGE(recompute)"), GepPhase::kD);
  EXPECT_EQ(classify_gep_phase("FilterA(elided)"), GepPhase::kA);
  EXPECT_EQ(classify_gep_phase("FilterPrev"), GepPhase::kPrep);
  EXPECT_EQ(classify_gep_phase("unionIter"), GepPhase::kPrep);
  EXPECT_EQ(classify_gep_phase("gatherResult"), GepPhase::kPrep);
  EXPECT_EQ(classify_gep_phase("checkpoint"), GepPhase::kPrep);
  EXPECT_EQ(classify_gep_phase("parallelize"), GepPhase::kPrep);
  EXPECT_EQ(classify_gep_phase("someUserStage"), GepPhase::kOther);
  EXPECT_EQ(classify_gep_phase(""), GepPhase::kOther);
}

// ---------------------------------------------------------------------------
// Exporters — golden schemas
// ---------------------------------------------------------------------------

obs::JobProfile sample_profile() {
  SparkContext sc(ClusterConfig::local(4, 2));
  sc.tracer().set_enabled(true);
  auto res = gepspark::spark_floyd_warshall(sc, fw_input(96),
                                            options_for(Strategy::kInMemory));
  return res.profile;
}

TEST(Exporters, JsonSchemaGolden) {
  const obs::JobProfile p = sample_profile();
  std::ostringstream out;
  obs::write_profile_json(p, out);
  const std::string json = out.str();
  // Stable schema contract: version tag plus every top-level key, in order.
  EXPECT_NE(json.find("\"schema\": \"gepspark.profile/v3\""), std::string::npos);
  const char* keys[] = {"\"schema\"",    "\"job\"",        "\"bytes\"",
                        "\"breakdown\"", "\"phases\"",     "\"iterations\"",
                        "\"recovery\"",  "\"spans\""};
  std::size_t pos = 0;
  for (const char* key : keys) {
    const std::size_t at = json.find(key, pos);
    EXPECT_NE(at, std::string::npos) << key;
    pos = at;
  }
  for (const char* key :
       {"\"config\"", "\"wall_seconds\"", "\"virtual_seconds\"", "\"grid_r\"",
        "\"shuffle\"", "\"compute_s\"", "\"stall_s\"", "\"spill_s\"",
        "\"readback_s\"", "\"attributed_fraction\"", "\"a_s\"",
        "\"task_failures\"", "\"spilled_blocks\"", "\"spill_readbacks\"",
        "\"corrupt_spills\"", "\"recorded\"", "\"dropped\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // One iteration object per outer iteration.
  std::size_t iter_objs = 0;
  for (std::size_t at = json.find("\"k\":"); at != std::string::npos;
       at = json.find("\"k\":", at + 1)) {
    ++iter_objs;
  }
  EXPECT_EQ(iter_objs, p.iterations.size());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after the brace
}

TEST(Exporters, CsvSchemaGolden) {
  const obs::JobProfile p = sample_profile();
  std::ostringstream out;
  obs::write_profile_csv(p, out);
  const std::string csv = out.str();
  const std::string header(obs::kProfileCsvHeader);
  EXPECT_EQ(header,
            "row,k,wall_s,virtual_s,compute_s,shuffle_s,collect_s,"
            "broadcast_s,recovery_s,stall_s,spill_s,readback_s,"
            "shuffle_bytes,collect_bytes,broadcast_bytes,stages,tasks");
  ASSERT_EQ(csv.rfind(header + "\n", 0), 0u);  // starts with the header
  // One "job" row and grid_r "iteration" rows, all with 17 columns.
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  std::size_t rows = 0, iteration_rows = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++rows;
    if (line.rfind("iteration,", 0) == 0) ++iteration_rows;
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 16) << line;
  }
  EXPECT_EQ(rows, 1 + p.iterations.size());
  EXPECT_EQ(iteration_rows, p.iterations.size());
}

TEST(Exporters, ChromeTraceContainsScheduleAndSpans) {
  SparkContext sc(ClusterConfig::local(2, 2));
  sc.tracer().set_enabled(true);
  (void)gepspark::spark_floyd_warshall(sc, fw_input(64),
                                       options_for(Strategy::kInMemory));
  const std::string path = ::testing::TempDir() + "obs_trace.json";
  obs::write_chrome_trace(sc.timeline(), &sc.tracer(), path);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string trace = buf.str();
  EXPECT_EQ(trace.front(), '[');
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("spans (virtual time)"), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"shuffle\""), std::string::npos);  // schedule
  if (!kTracingCompiledOut) {
    EXPECT_NE(trace.find("\"cat\":\"iteration\""), std::string::npos);
    EXPECT_NE(trace.find("\"cat\":\"kernel\""), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------------

TEST(CriticalPath, WindowedReportCoversProfileWindow) {
  SparkContext sc(ClusterConfig::local(4, 2));
  auto res = gepspark::spark_floyd_warshall(sc, fw_input(128),
                                            options_for(Strategy::kInMemory));
  const obs::JobProfile& p = res.profile;
  const obs::CriticalPathReport cp = obs::analyze_critical_path(
      sc.timeline(), p.record_begin, p.record_end);
  EXPECT_GT(cp.window_s, 0.0);
  EXPECT_GE(cp.attributed_fraction(), 0.95);
  EXPECT_NEAR(cp.buckets.total(), p.buckets.total(), 1e-9);
  EXPECT_GT(cp.utilization(), 0.0);
  EXPECT_LE(cp.utilization(), 1.0 + 1e-9);
  ASSERT_FALSE(cp.top.empty());
  // Top entries come sorted by cost.
  for (std::size_t i = 1; i < cp.top.size(); ++i) {
    EXPECT_GE(cp.top[i - 1].seconds, cp.top[i].seconds);
  }
}

}  // namespace

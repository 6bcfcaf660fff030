// bench_chaos_recovery — cost of surviving failures. Runs real FW solves on
// the in-process engine under escalating chaos plans and reports the
// virtual-cluster makespan overhead versus the failure-free run, alongside
// the recovery counters that explain it (retries, kills, stage resubmissions,
// recomputed partitions). A second study isolates speculative execution:
// straggling tasks with and without speculative copies.
//
// All runs verify bit-identical output against the failure-free solve — the
// overhead numbers are for *correct* recoveries only.
#include <cstdio>

#include "bench_util.hpp"
#include "gepspark/solver.hpp"
#include "gepspark/workload.hpp"

namespace {

using gepspark::SolverOptions;
using gepspark::Strategy;
using sparklet::ChaosPlan;
using sparklet::ClusterConfig;
using sparklet::SparkContext;

constexpr std::size_t kN = 256;
constexpr std::size_t kBlock = 64;

struct RunResult {
  double virtual_s = 0.0;
  sparklet::RecoveryCounters rc;
  bool correct = false;
};

RunResult run_fw(Strategy strategy, const ChaosPlan* chaos, bool speculate,
                 int checkpoint_interval, const gs::Matrix<double>& input,
                 const gs::Matrix<double>& expected) {
  SparkContext sc(ClusterConfig::local(4, 2));
  if (chaos != nullptr) sc.set_chaos_plan(*chaos);
  if (speculate) sc.set_speculation({.enabled = true});

  SolverOptions opt;
  opt.block_size = kBlock;
  opt.strategy = strategy;
  opt.checkpoint_interval = checkpoint_interval;

  auto out = gepspark::spark_floyd_warshall(sc, input, opt);

  RunResult r;
  r.virtual_s = out.profile.virtual_seconds;
  r.rc = sc.metrics().recovery();
  r.correct = out.matrix == expected;
  return r;
}

void recovery_overhead_study(const gs::Matrix<double>& input,
                             const gs::Matrix<double>& expected) {
  struct Scenario {
    const char* name;
    ChaosPlan plan;
    bool chaos;
    bool speculate;
    int interval;
  };
  ChaosPlan tasks_only;
  tasks_only.task_failure_prob = 0.2;
  tasks_only.max_task_attempts = 12;
  tasks_only.seed = 7;

  ChaosPlan with_kills = tasks_only;
  with_kills.executor_kill_prob = 1.0;
  with_kills.max_executor_kills = 2;

  ChaosPlan with_fetch = with_kills;
  with_fetch.fetch_failure_prob = 0.3;
  with_fetch.max_stage_attempts = 6;

  ChaosPlan everything = with_fetch;
  everything.straggler_prob = 0.2;
  everything.straggler_factor = 6.0;
  everything.checkpoint_corruption_prob = 1.0;
  everything.max_block_corruptions = 1;

  const Scenario scenarios[] = {
      {"failure-free", {}, false, false, 1},
      {"20% task failures", tasks_only, true, false, 1},
      {"+ 2 executor kills", with_kills, true, false, 1},
      {"+ fetch failures", with_fetch, true, false, 1},
      {"full chaos + speculation", everything, true, true, 1},
      {"full chaos, no checkpoints", everything, true, true, 0},
  };

  for (Strategy strategy : {Strategy::kInMemory, Strategy::kCollectBroadcast}) {
    const char* sname = gepspark::strategy_name(strategy);
    gs::TextTable table({"scenario", "virtual (s)", "overhead", "retries",
                         "kills", "resubmits", "recomputed", "ok"});
    double base_s = 0.0;
    for (const Scenario& s : scenarios) {
      auto r = run_fw(strategy, s.chaos ? &s.plan : nullptr, s.speculate,
                      s.interval, input, expected);
      if (base_s == 0.0) base_s = r.virtual_s;
      table.add_row({s.name, gs::strfmt("%.3f", r.virtual_s),
                     gs::strfmt("%+.1f%%", 100.0 * (r.virtual_s / base_s - 1.0)),
                     std::to_string(r.rc.task_retries),
                     std::to_string(r.rc.executor_kills),
                     std::to_string(r.rc.stage_resubmissions),
                     std::to_string(r.rc.partitions_recomputed),
                     r.correct ? "bit-identical" : "WRONG"});
    }
    benchutil::print_table(
        gs::strfmt("Chaos recovery overhead — FW n=%zu b=%zu, %s, local(4,2)",
                   kN, kBlock, sname),
        table,
        gs::strfmt("ablation_chaos_recovery_%s.csv", sname));
  }
}

void speculation_study(const gs::Matrix<double>& input,
                       const gs::Matrix<double>& expected) {
  ChaosPlan stragglers;
  stragglers.straggler_prob = 0.25;
  stragglers.straggler_factor = 8.0;
  stragglers.seed = 3;

  gs::TextTable table({"config", "virtual (s)", "stragglers", "spec copies",
                       "spec wins", "ok"});
  double slow_s = 0.0;
  struct Cfg {
    const char* name;
    const ChaosPlan* plan;
    bool speculate;
  };
  const Cfg cfgs[] = {
      {"no stragglers", nullptr, false},
      {"25% stragglers, no speculation", &stragglers, false},
      {"25% stragglers + speculation", &stragglers, true},
  };
  for (const Cfg& c : cfgs) {
    auto r = run_fw(Strategy::kInMemory, c.plan, c.speculate, 1, input,
                    expected);
    if (c.plan != nullptr && !c.speculate) slow_s = r.virtual_s;
    table.add_row({c.name, gs::strfmt("%.3f", r.virtual_s),
                   std::to_string(r.rc.stragglers_injected),
                   std::to_string(r.rc.speculative_launches),
                   std::to_string(r.rc.speculative_wins),
                   r.correct ? "bit-identical" : "WRONG"});
  }
  benchutil::print_table(
      gs::strfmt("Speculative execution vs stragglers — FW n=%zu b=%zu IM",
                 kN, kBlock),
      table, "ablation_chaos_speculation.csv");
  if (slow_s > 0.0) {
    std::printf("(speculation claws back straggler-inflated makespan; the "
                "copy wins whenever launch-threshold + clean duration beats "
                "the straggling original)\n");
  }
}

}  // namespace

int main() {
  auto input = gs::workload::random_digraph({.n = kN, .seed = 1});
  auto expected = input;
  {
    SparkContext clean(ClusterConfig::local(4, 2));
    SolverOptions opt;
    opt.block_size = kBlock;
    expected = gepspark::spark_floyd_warshall(clean, input, opt).matrix;
  }

  recovery_overhead_study(input, expected);
  speculation_study(input, expected);

  std::printf(
      "\ntakeaway: lineage recovery keeps every failure mode bit-identical; "
      "task retries are near-free, kills cost partition recomputes, fetch "
      "failures cost whole-stage resubmissions (checkpoints bound the replay "
      "depth), and speculation absorbs stragglers.\n");
  return 0;
}

// nested_driver.hpp — unified solve entry point for every wavefront plan
// (GAP, accordion, Viterbi, paren, align), mirroring GepDriver's surface:
// one call returns SolveOutcome{matrix, profile} and honours SolverOptions'
// strategy (IM / CB), storage level, checkpoint interval, lookahead, and
// --validate-schedule.
//
// Every solve runs the plan on the tile-task engine that also runs GEP's
// dataflow schedule (segments, fences, lookahead, transfer tasks, checkpoint
// snapshots) — see gepspark/dataflow.hpp. A wavefront has no barrier loop of
// its own: `schedule = kBarrier` (the default) is the engine at lookahead 0,
// which already fences every wave, and SolverOptions::effective_lookahead()
// resolves it so.
//
// plan.compute() is a pure function of the task and its read tiles, so
// results are bit-identical across strategies, lookaheads and recoveries.
#pragma once

#include "gepspark/dataflow.hpp"
#include "gepspark/options.hpp"
#include "nested/nested_plan.hpp"
#include "support/format.hpp"

namespace nested {

/// The job name of a wavefront solve, naming what runs: the plan, strategy,
/// the plan's block, the engine's effective lookahead and the storage level.
/// No GEP kernel appears: a plan computes its tiles itself.
template <typename Plan>
std::string wavefront_job_name(const Plan& plan,
                               const gepspark::SolverOptions& opt) {
  return gs::strfmt("%s %s b=%zu lookahead=%d %s", Plan::name(),
                    gepspark::strategy_name(opt.strategy), plan.block(),
                    opt.effective_lookahead(),
                    sparklet::storage_level_name(opt.storage_level));
}

/// Solve a wavefront plan under the configured strategy and lookahead.
template <typename Plan>
gepspark::SolveOutcome<double> nested_solve(
    sparklet::SparkContext& sc, const Plan& plan,
    const gepspark::SolverOptions& opt) {
  gepspark::validate_wavefront_options(opt);
  const sparklet::PartitionerPtr part =
      gepspark::job_partitioner(sc, opt, plan.grid_cols());
  return gepspark::profiled_solve<double>(
      sc, wavefront_job_name(plan, opt), plan.grid_cols(), [&] {
        return gepspark::DataflowEngine<Plan>(sc, opt, plan, part).solve();
      });
}

/// Model-check a nested plan's dataflow schedule (`--model-check`): the
/// nested counterpart of gepspark::model_check_gep.
template <typename Plan>
analysis::ModelCheckReport model_check_nested(
    sparklet::SparkContext& sc, const Plan& plan,
    const gepspark::SolverOptions& opt,
    const analysis::ModelCheckOptions& mc = analysis::ModelCheckOptions{}) {
  return gepspark::model_check_dataflow(
      sc, opt, mc, [&](const gepspark::SolverOptions& o) {
        return nested_solve(sc, plan, o);
      });
}

}  // namespace nested

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

/// Solve a wavefront plan under the configured strategy and lookahead.
template <typename Plan>
gepspark::SolveOutcome<double> nested_solve(
    sparklet::SparkContext& sc, const Plan& plan,
    const gepspark::SolverOptions& opt) {
  gepspark::validate_wavefront_options(opt);
  const sparklet::PartitionerPtr part =
      gepspark::job_partitioner(sc, opt, plan.grid_cols());
  return gepspark::profiled_solve<double>(
      sc, gs::strfmt("%s %s", Plan::name(), opt.describe().c_str()),
      plan.grid_cols(), [&] {
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

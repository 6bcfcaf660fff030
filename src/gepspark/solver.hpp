// solver.hpp — the library's public entry points.
//
// Quickstart:
//   sparklet::SparkContext sc(sparklet::ClusterConfig::local(4, 2));
//   gepspark::SolverOptions opt;
//   opt.block_size = 64;
//   opt.strategy = gepspark::Strategy::kInMemory;
//   opt.kernel = gs::KernelConfig::recursive(/*r_shared=*/4, /*omp=*/2);
//   auto out = gepspark::spark_floyd_warshall(sc, adjacency, opt);
//   // out.matrix — the DP table; out.profile — execution data.
//
// The generic solve_gep<Spec>() runs any GepSpec; the named helpers bind the
// paper's benchmarks (FW-APSP, GE) plus transitive closure and widest-path.
// Every solve returns SolveOutcome{matrix, profile}.
//
// Long-lived serving (resident tables + point queries + cancellation) lives
// in serve/job_server.hpp; these one-shot entry points and the server's job
// execution share GepDriver, so results are bit-identical either way.
#pragma once

#include "gepspark/dataflow.hpp"
#include "gepspark/driver.hpp"
#include "gepspark/options.hpp"

namespace gepspark {

/// Run the GEP computation for `Spec` on `input` over the given Spark
/// context. Returns the fully-processed DP table (padding stripped) and the
/// structured execution profile. Enable sc.tracer() first for span nesting
/// and per-iteration attribution in the profile.
template <gs::GepSpecType Spec>
SolveOutcome<typename Spec::value_type> solve_gep(
    sparklet::SparkContext& sc,
    const gs::Matrix<typename Spec::value_type>& input,
    const SolverOptions& opt) {
  return GepDriver<Spec>(sc, opt).solve(input);
}

/// Model-check the dataflow schedule of a GEP solve (`--model-check`): every
/// explored interleaving of the emitted task graphs must produce a
/// bit-identical table with clean checker and race-detector verdicts (see
/// model_check_dataflow).
template <gs::GepSpecType Spec>
analysis::ModelCheckReport model_check_gep(
    sparklet::SparkContext& sc,
    const gs::Matrix<typename Spec::value_type>& input,
    const SolverOptions& opt,
    const analysis::ModelCheckOptions& mc = analysis::ModelCheckOptions{}) {
  return model_check_dataflow(sc, opt, mc, [&](const SolverOptions& o) {
    return solve_gep<Spec>(sc, input, o);
  });
}

/// All-pairs shortest paths (min-plus semiring). `adjacency(i,j)` is the
/// edge weight, +∞ for "no edge", and 0 on the diagonal. Requires no
/// negative cycles.
inline SolveOutcome<double> spark_floyd_warshall(
    sparklet::SparkContext& sc, const gs::Matrix<double>& adjacency,
    const SolverOptions& opt) {
  return solve_gep<gs::FloydWarshallSpec>(sc, adjacency, opt);
}

/// Gaussian elimination without pivoting. Returns the eliminated table:
/// U in the upper triangle; the strict lower triangle holds pre-elimination
/// column values (multiplier L(i,k) = out(i,k)/out(k,k)). Numerically safe
/// for diagonally dominant or symmetric positive-definite inputs.
inline SolveOutcome<double> spark_gaussian_elimination(
    sparklet::SparkContext& sc, const gs::Matrix<double>& system,
    const SolverOptions& opt) {
  return solve_gep<gs::GaussianEliminationSpec>(sc, system, opt);
}

/// Transitive closure (boolean semiring). `adjacency(i,j)` ∈ {0,1}; set the
/// diagonal to 1 for reflexive reachability.
inline SolveOutcome<std::uint8_t> spark_transitive_closure(
    sparklet::SparkContext& sc, const gs::Matrix<std::uint8_t>& adjacency,
    const SolverOptions& opt) {
  return solve_gep<gs::TransitiveClosureSpec>(sc, adjacency, opt);
}

/// Widest (maximum-bottleneck) paths over the (max, min) semiring.
/// `capacity(i,j)` is the link capacity, 0 for "no link", +∞ on the diagonal.
inline SolveOutcome<double> spark_widest_path(sparklet::SparkContext& sc,
                                              const gs::Matrix<double>& capacity,
                                              const SolverOptions& opt) {
  return solve_gep<gs::WidestPathSpec>(sc, capacity, opt);
}

}  // namespace gepspark

// matrix_chain — optimal matrix-chain multiplication order through the
// parenthesis-family wavefront plan (the paper's §VI "beyond GEP"
// extension): find the cheapest association of A_1·A_2·…·A_m and print the
// parenthesization.
//
//   $ ./matrix_chain
#include <cstdio>
#include <string>

#include "nested/nested_driver.hpp"
#include "paren/paren_plan.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"

namespace {

std::string parenthesize(const paren::MatrixChainSpec& spec,
                         const gs::Matrix<double>& table, std::size_t i,
                         std::size_t j) {
  if (j == i + 1) return "A" + std::to_string(i + 1);
  const std::size_t k = paren::best_split(spec, table, i, j);
  return "(" + parenthesize(spec, table, i, k) +
         parenthesize(spec, table, k, j) + ")";
}

/// One wave per block super-diagonal, finished tiles shipped through the
/// driver (Collect-Broadcast).
gepspark::SolveOutcome<double> solve_chain(sparklet::SparkContext& sc,
                                           std::vector<double> dims,
                                           std::size_t block) {
  gepspark::SolverOptions opt;
  opt.block_size = block;
  opt.strategy = gepspark::Strategy::kCollectBroadcast;
  return nested::nested_solve(
      sc,
      paren::ParenPlan<paren::MatrixChainSpec>(
          paren::matrix_chain_problem(std::move(dims)), block),
      opt);
}

}  // namespace

int main() {
  // The CLRS classic first — a known answer to sanity-check against.
  {
    const std::vector<double> dims{30, 35, 15, 5, 10, 20, 25};
    sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
    const auto table = solve_chain(sc, dims, 3).matrix;
    std::printf("CLRS chain <30,35,15,5,10,20,25>: %.0f scalar mults "
                "(book: 15125)\n  order: %s\n\n",
                table(0, 6),
                parenthesize(paren::MatrixChainSpec(dims), table, 0, 6)
                    .c_str());
  }

  // A bigger random chain, solved as a distributed wavefront.
  const std::size_t m = 120;  // matrices
  std::vector<double> dims(m + 1);
  gs::Rng rng(2027);
  for (auto& d : dims) d = std::floor(rng.uniform(5.0, 120.0));
  paren::MatrixChainSpec spec(dims);

  sparklet::SparkContext sc(sparklet::ClusterConfig::local(4, 2));
  const auto res = solve_chain(sc, dims, 16);
  const auto& table = res.matrix;
  const obs::JobProfile& prof = res.profile;

  // Compare against the worst order and left-to-right association.
  double left_to_right = 0.0;
  double rows = dims[0];
  for (std::size_t t = 1; t < m; ++t) {
    left_to_right += rows * dims[t] * dims[t + 1];
  }
  std::printf("random chain of %zu matrices (grid r=%d, one wavefront per "
              "block super-diagonal, %d stages):\n",
              m, prof.grid_r, prof.stages);
  std::printf("  optimal cost:        %.3e scalar multiplications\n",
              table(0, m));
  std::printf("  left-to-right cost:  %.3e  (%.1fx worse)\n", left_to_right,
              left_to_right / table(0, m));

  const std::size_t top = paren::best_split(spec, table, 0, m);
  std::printf("  top-level split after A%zu; first sub-chains: %s...\n", top,
              parenthesize(spec, table, 0, std::min<std::size_t>(top, 6))
                  .c_str());
  std::printf("  driver traffic: collect %s, broadcast %s\n",
              gs::human_bytes(double(prof.collect_bytes)).c_str(),
              gs::human_bytes(double(prof.broadcast_bytes)).c_str());
  return 0;
}

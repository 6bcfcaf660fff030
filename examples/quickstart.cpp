// quickstart — the smallest end-to-end use of the library:
// solve all-pairs shortest paths on a tiny directed graph through the
// Spark-style GEP solver, and print the distance matrix.
//
//   $ ./quickstart
#include <cstdio>
#include <limits>

#include "gepspark/solver.hpp"

int main() {
  // 1. Describe a cluster. local(4, 2) = 4 virtual nodes × 2 cores; use
  //    ClusterConfig::skylake_cluster() to model the paper's testbed.
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(4, 2));

  // 2. Build the input: adjacency matrix with +inf for "no edge".
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t n = 6;
  gs::Matrix<double> adj(n, n, inf);
  for (std::size_t i = 0; i < n; ++i) adj(i, i) = 0.0;
  adj(0, 1) = 7;
  adj(0, 2) = 9;
  adj(0, 5) = 14;
  adj(1, 2) = 10;
  adj(1, 3) = 15;
  adj(2, 3) = 11;
  adj(2, 5) = 2;
  adj(3, 4) = 6;
  adj(4, 5) = 9;
  adj(5, 4) = 9;   // make vertex 4 reachable from 5 (directed graph)

  // 3. Configure the solver: tile size, IM vs CB strategy, kernel flavour.
  gepspark::SolverOptions opt;
  opt.block_size = 2;                                  // 3×3 tile grid
  opt.strategy = gepspark::Strategy::kInMemory;        // paper Listing 1
  opt.kernel = gs::KernelConfig::recursive(/*r_shared=*/2, /*omp=*/2);

  // 4. Solve. solve_gep returns a SolveOutcome: the solved matrix plus its
  //    JobProfile; enabling the tracer first adds per-iteration rows to the
  //    profile.
  sc.tracer().set_enabled(true);
  auto [dist, profile] = gepspark::spark_floyd_warshall(sc, adj, opt);

  // 5. Use the result.
  std::printf("all-pairs shortest paths (n=%zu):\n      ", n);
  for (std::size_t j = 0; j < n; ++j) std::printf("%6zu", j);
  std::printf("\n");
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("%6zu", i);
    for (std::size_t j = 0; j < n; ++j) {
      if (dist(i, j) == inf) {
        std::printf("     -");
      } else {
        std::printf("%6.0f", dist(i, j));
      }
    }
    std::printf("\n");
  }

  std::printf(
      "\nexecuted as %d Spark-style stages / %d tasks over a %dx%d tile "
      "grid; %s shuffled.\n",
      profile.stages, profile.tasks, profile.grid_r, profile.grid_r,
      gs::human_bytes(double(profile.shuffle_bytes)).c_str());

  // 6. Where did the (virtual) time go? Every simulated second lands in
  //    exactly one bucket, so the percentages sum to ~100.
  const obs::PhaseBuckets& b = profile.buckets;
  std::printf(
      "virtual time %.3fs: compute %.0f%%, shuffle %.0f%%, collect %.0f%%, "
      "broadcast %.0f%% (attributed %.1f%%)\n",
      profile.virtual_seconds, 100.0 * b.compute_s / profile.virtual_seconds,
      100.0 * b.shuffle_s / profile.virtual_seconds,
      100.0 * b.collect_s / profile.virtual_seconds,
      100.0 * b.broadcast_s / profile.virtual_seconds,
      100.0 * profile.attributed_fraction());
  return 0;
}

// reachability — transitive closure (boolean semiring) of a synthetic
// software dependency graph: which modules transitively depend on which,
// cycle detection, and rebuild-impact analysis. Exercises the GEP framework
// beyond the paper's two benchmarks (Warshall's algorithm is the third
// classical GEP member, paper §I).
//
//   $ ./reachability
#include <cstdio>
#include <string>
#include <vector>

#include "gepspark/solver.hpp"
#include "support/rng.hpp"

int main() {
  // A layered "build graph": ~90 modules in 5 layers; edges mostly point
  // from higher layers to lower ones, plus a few back-edges forming cycles.
  const std::size_t n = 90;
  gs::Matrix<std::uint8_t> dep(n, n, std::uint8_t{0});
  gs::Rng rng(404);
  auto layer_of = [&](std::size_t v) { return v / 18; };  // 5 layers of 18
  for (std::size_t u = 0; u < n; ++u) {
    dep(u, u) = 1;
    for (std::size_t v = 0; v < n; ++v) {
      if (u == v) continue;
      if (layer_of(u) > layer_of(v) && rng.bernoulli(0.12)) dep(u, v) = 1;
    }
  }
  dep(7, 30) = 1;   // back-edges: layer 0 ← → layer 1 cycle
  dep(30, 7) = 1;
  dep(55, 71) = 1;  // another cycle inside the upper layers
  dep(71, 55) = 1;

  sparklet::SparkContext sc(sparklet::ClusterConfig::local(4, 2));
  gepspark::SolverOptions opt;
  opt.block_size = 18;
  opt.strategy = gepspark::Strategy::kCollectBroadcast;
  opt.kernel = gs::KernelConfig::recursive(2, 2, 9);

  auto res = gepspark::spark_transitive_closure(sc, dep, opt);
  const auto& closure = res.matrix;
  std::printf("transitive closure of %zu modules computed in %d stages\n", n,
              res.profile.stages);

  // Dependency cycles: u ≠ v with u →* v and v →* u.
  std::printf("\ndependency cycles:\n");
  int cycles = 0;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (closure(u, v) && closure(v, u)) {
        std::printf("  module %zu <-> module %zu\n", u, v);
        ++cycles;
      }
    }
  }
  std::printf("  (%d cycle pairs)\n", cycles);

  // Rebuild impact: how many modules transitively depend on each leaf-layer
  // module (reverse reachability = column sums).
  std::printf("\ntop rebuild-impact modules (layer 0):\n");
  std::vector<std::pair<int, std::size_t>> impact;
  for (std::size_t v = 0; v < 18; ++v) {
    int dependents = 0;
    for (std::size_t u = 0; u < n; ++u) dependents += (u != v && closure(u, v));
    impact.push_back({dependents, v});
  }
  std::sort(impact.rbegin(), impact.rend());
  for (int i = 0; i < 5; ++i) {
    std::printf("  module %2zu: %d transitive dependents\n", impact[size_t(i)].second,
                impact[size_t(i)].first);
  }

  // Density of the closure vs the raw graph.
  std::size_t raw = 0, closed = 0;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      raw += dep(u, v);
      closed += closure(u, v);
    }
  }
  std::printf("\nedges: %zu direct -> %zu transitive (%.1fx densification)\n",
              raw, closed, double(closed) / double(raw));
  return 0;
}

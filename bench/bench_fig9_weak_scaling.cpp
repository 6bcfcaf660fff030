// bench_fig9_weak_scaling — reproduces paper Fig. 9:
//
//   "Weak scaling of benchmarks FW-APSP and GE" on 1, 8, and 64 nodes, with
//   fixed work per node (N³/p): N = 4K·p^(1/3) for FW-APSP, N = 8K·p^(1/3)
//   for GE. Configurations follow §V-C:
//     FW: IM + iterative kernels b=512  vs  IM + 4-way recursive b=1024
//     GE: CB + iterative kernels b=512  vs  CB + 4-way recursive b=1024
//   (recursive kernels with OMP_NUM_THREADS = 8).
//
// Paper's qualitative shape: the 4-way recursive CB execution of GE scales
// better (flatter weak-scaling curve) than its iterative counterpart.
//
// A scaled-down measured counterpart runs the real drivers on in-process
// virtual clusters of 1/4/8 executors with n ∝ p^(1/3).
#include <cmath>
#include <cstdio>

#include "baseline/reference.hpp"
#include "bench_util.hpp"
#include "gepspark/solver.hpp"
#include "gepspark/workload.hpp"

namespace {

using gepspark::Strategy;
using gs::KernelConfig;
using simtime::GepJobParams;

std::size_t weak_n(double base, int nodes) {
  return static_cast<std::size_t>(base * std::cbrt(double(nodes)) + 0.5);
}

void simulated_weak_scaling() {
  struct Series {
    const char* name;
    bool ge;
    Strategy strategy;
    KernelConfig kernel;
    std::size_t block;
    double base_n;
  };
  const Series series[] = {
      {"FW IM iter b=512", false, Strategy::kInMemory,
       KernelConfig::iterative(), 512, 4096.0},
      {"FW IM rec4 b=1024 omp8", false, Strategy::kInMemory,
       KernelConfig::recursive(4, 8), 1024, 4096.0},
      {"GE CB iter b=512", true, Strategy::kCollectBroadcast,
       KernelConfig::iterative(), 512, 8192.0},
      {"GE CB rec4 b=1024 omp8", true, Strategy::kCollectBroadcast,
       KernelConfig::recursive(4, 8), 1024, 8192.0},
  };

  gs::TextTable table({"configuration", "p=1", "p=8", "p=64",
                       "slope (+s, p1→p64)"});
  for (const auto& s : series) {
    std::vector<std::string> row{s.name};
    double t1 = 0, t64 = 0;
    for (int nodes : {1, 8, 64}) {
      simtime::MachineModel model(
          sparklet::ClusterConfig::skylake_cluster(nodes));
      const std::size_t n = weak_n(s.base_n, nodes);
      auto p = s.ge ? GepJobParams::ge(n, s.block)
                    : GepJobParams::fw_apsp(n, s.block);
      p.strategy = s.strategy;
      p.kernel = s.kernel;
      auto r = simulate_gep_job(model, p);
      row.push_back(r.display());
      if (nodes == 1) t1 = r.seconds;
      if (nodes == 64) t64 = r.seconds;
    }
    row.push_back(gs::strfmt("+%.0fs", t64 - t1));
    table.add_row(std::move(row));
  }
  benchutil::print_table(
      "Fig. 9 — weak scaling, fixed N^3/p (simulated seconds, 1/8/64 Skylake "
      "nodes)",
      table, "fig9_weak_scaling.csv");
}

void measured_weak_scaling() {
  gs::TextTable table({"configuration", "p=1", "p=4", "p=8"});
  for (const auto& [name, kernel] :
       {std::pair<std::string, KernelConfig>{"FW IM iter (real)",
                                             KernelConfig::iterative()},
        {"FW IM rec4 (real)", KernelConfig::recursive(4, 2, 48)}}) {
    std::vector<std::string> row{name};
    for (int execs : {1, 4, 8}) {
      sparklet::SparkContext sc(sparklet::ClusterConfig::local(execs, 1));
      const std::size_t n = weak_n(320.0, execs);
      auto input = gs::workload::random_digraph({.n = n, .seed = 31});
      gepspark::SolverOptions opt;
      opt.block_size = 96;
      opt.strategy = Strategy::kInMemory;
      opt.kernel = kernel;
      auto out = gepspark::spark_floyd_warshall(sc, input, opt);
      gs::Matrix<double> ref = input;
      gs::baseline::reference_floyd_warshall(ref);
      GS_CHECK_MSG(gs::max_abs_diff(out.matrix, ref) < 1e-9,
                   "wrong APSP result");
      row.push_back(gs::strfmt("%.2fs", out.profile.wall_seconds));
    }
    table.add_row(std::move(row));
  }
  benchutil::print_table(
      "Fig. 9 (measured, scaled down) — weak scaling on in-process sparklet, "
      "n = 320*p^(1/3)",
      table, "fig9_real_weak_scaling.csv");
}

}  // namespace

int main() {
  simulated_weak_scaling();
  std::printf(
      "\npaper reference (Fig. 9): recursive-kernel CB execution of GE "
      "scales better (flatter) than the iterative-kernel CB execution.\n");
  measured_weak_scaling();
  return 0;
}

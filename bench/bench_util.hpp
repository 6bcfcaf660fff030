// Shared helpers for the paper-reproduction benches: grid sweeps through
// the simtime model and paper-style table rendering.
#pragma once

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/job_profile.hpp"
#include "simtime/gep_job_sim.hpp"
#include "support/format.hpp"
#include "support/simd_vec.hpp"
#include "support/table.hpp"

namespace benchutil {

/// One line of build metadata to record beside measured numbers: build type,
/// compiler, flags (GS_BENCH_* come from bench/CMakeLists.txt), SIMD
/// backend, and hardware threads.
inline std::string build_metadata() {
  return gs::strfmt("type=%s compiler=\"%s\" flags=\"%s\" simd=%s nproc=%u",
                    GS_BENCH_BUILD_TYPE, __VERSION__, GS_BENCH_CXX_FLAGS,
                    gs::simd::backend_name(),
                    std::thread::hardware_concurrency());
}

/// Median of a non-empty sample.
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// `solves` runs of `solve()`, which returns a SolveOutcome: the median
/// measured wall time, the median modelled virtual time, and the last run's
/// profile.
struct Measured {
  double wall_s = 0.0;     // measured
  double virtual_s = 0.0;  // model
  obs::JobProfile profile;
};

template <typename SolveFn>
Measured measure(int solves, SolveFn&& solve) {
  std::vector<double> wall, virt;
  Measured m;
  for (int i = 0; i < solves; ++i) {
    auto res = solve();
    wall.push_back(res.profile.wall_seconds);
    virt.push_back(res.profile.virtual_seconds);
    m.profile = std::move(res.profile);
  }
  m.wall_s = median(wall);
  m.virtual_s = median(virt);
  return m;
}

/// Column names matching profile_row() below — prepend your own label
/// column(s) when building a table.
inline std::vector<std::string> profile_header() {
  return {"wall (s)", "virtual (s)", "compute",    "shuffle",
          "collect",  "broadcast",   "recovery",   "stall",
          "attributed"};
}

/// Flatten a measured JobProfile into one table/CSV row: wall + virtual
/// makespan and the six-bucket virtual-time split. Pairs with
/// profile_header().
inline std::vector<std::string> profile_row(const obs::JobProfile& p) {
  return {gs::strfmt("%.3f", p.wall_seconds),
          gs::strfmt("%.3f", p.virtual_seconds),
          gs::human_seconds(p.buckets.compute_s),
          gs::human_seconds(p.buckets.shuffle_s),
          gs::human_seconds(p.buckets.collect_s),
          gs::human_seconds(p.buckets.broadcast_s),
          gs::human_seconds(p.buckets.recovery_s),
          gs::human_seconds(p.buckets.stall_s),
          gs::strfmt("%.1f%%", 100.0 * p.attributed_fraction())};
}

/// Run the (executor-cores × OMP_NUM_THREADS) grid of Tables I/II for one
/// fixed job configuration and return it as a printable table.
inline gs::TextTable thread_grid_table(const sparklet::ClusterConfig& base,
                                       const simtime::GepJobParams& job,
                                       const std::vector<int>& executor_cores,
                                       const std::vector<int>& omp_threads) {
  std::vector<std::string> header{"executor-cores \\ OMP"};
  for (int omp : omp_threads) header.push_back(std::to_string(omp));
  gs::TextTable table(std::move(header));

  for (int ec : executor_cores) {
    std::vector<std::string> row{std::to_string(ec)};
    for (int omp : omp_threads) {
      sparklet::ClusterConfig cfg = base;
      cfg.executor_cores = ec;
      simtime::MachineModel model(cfg);
      simtime::GepJobParams p = job;
      p.kernel.omp_threads = omp;
      row.push_back(simulate_gep_job(model, p).display());
    }
    table.add_row(std::move(row));
  }
  return table;
}

/// One Fig. 6-style sweep cell: best-over-OMP execution time for a
/// (strategy, kernel, block) combination — mirroring the paper's "we report
/// the best OMP_NUM_THREADS" methodology (§V-C).
inline simtime::SimResult best_over_omp(const simtime::MachineModel& model,
                                        simtime::GepJobParams p,
                                        const std::vector<int>& omp_choices) {
  simtime::SimResult best;
  bool have = false;
  if (p.kernel.impl == gs::KernelImpl::kIterative) {
    return simulate_gep_job(model, p);  // OMP does not apply
  }
  for (int omp : omp_choices) {
    p.kernel.omp_threads = omp;
    auto r = simulate_gep_job(model, p);
    if (!have || (r.ok() && (!best.ok() || r.seconds < best.seconds))) {
      best = r;
      have = true;
    }
  }
  return best;
}

/// Bench CSV artifacts land under results/ (created on demand) so the source
/// tree stays clean; pass a bare filename and get the prefixed path back.
inline std::string results_path(const std::string& csv_name) {
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  return (std::filesystem::path("results") / csv_name).string();
}

inline void print_table(const std::string& title, gs::TextTable& table,
                        const std::string& csv_name) {
  std::cout << "\n== " << title << " ==\n";
  table.print(std::cout);
  const std::string path = results_path(csv_name);
  table.write_csv(path);
  std::cout << "(csv: " << path << ")\n";
}

}  // namespace benchutil

// bench_paren_extension — measured benchmark for the beyond-GEP extension
// (paper §VI): the parenthesis-family wavefront plan on sparklet, solved by
// nested::nested_solve under barrier Collect-Broadcast.
//
// Two sweeps, both real executions on the in-process engine:
//   1. block-size sweep at fixed n — the same tunability story as the GEP
//      benchmarks: too-small blocks drown in wavefront/stage overhead,
//      too-large blocks serialize the wave;
//   2. problem-size scaling at fixed block — the O(n³) wavefront.
//
// Wall times are measured (profile.wall_seconds, median of kSolves solves).
// The [model] column is the profile's virtual time: the measured task bodies
// plus ClusterConfig's modelled dispatch, stage and driver constants.
#include <cstdio>

#include "bench_util.hpp"
#include "nested/nested_driver.hpp"
#include "paren/paren_plan.hpp"
#include "support/rng.hpp"

namespace {

constexpr int kSolves = 3;

benchutil::Measured run(sparklet::SparkContext& sc, std::size_t n,
                        std::size_t block) {
  std::vector<double> dims(n);
  gs::Rng rng(n * 31 + block);
  for (auto& d : dims) d = std::floor(rng.uniform(2.0, 60.0));
  const paren::ParenPlan<paren::MatrixChainSpec> plan(
      paren::matrix_chain_problem(dims), block);
  gepspark::SolverOptions opt;
  opt.block_size = block;
  opt.strategy = gepspark::Strategy::kCollectBroadcast;
  return benchutil::measure(kSolves, [&] {
    auto res = nested::nested_solve(sc, plan, opt);
    GS_CHECK_MSG(res.matrix(0, n - 1) < paren::kParenInf, "no finite optimum");
    return res;
  });
}

}  // namespace

int main() {
  std::printf("# build: %s\n", benchutil::build_metadata().c_str());
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(4, 1));

  {
    const std::size_t n = 512;
    gs::TextTable table({"block size", "grid r", "stages", "wall",
                         "virtual [model]", "collect", "broadcast"});
    for (std::size_t b : {32u, 64u, 128u, 256u}) {
      const auto r = run(sc, n, b);
      table.add_row({std::to_string(b), std::to_string(r.profile.grid_r),
                     std::to_string(r.profile.stages),
                     gs::human_seconds(r.wall_s),
                     gs::human_seconds(r.virtual_s),
                     gs::human_bytes(double(r.profile.collect_bytes)),
                     gs::human_bytes(double(r.profile.broadcast_bytes))});
    }
    benchutil::print_table(
        "Parenthesis extension — matrix chain n=512, block-size sweep, "
        "barrier CB (wall measured, [model] modelled)",
        table, "paren_block_sweep.csv");
  }

  {
    gs::TextTable table(
        {"posts n", "wall", "virtual [model]", "n^3 scaling check (wall)"});
    double prev_wall = 0.0;
    std::size_t prev_n = 0;
    for (std::size_t n : {128u, 256u, 512u}) {
      const auto r = run(sc, n, 64);
      std::string check = "-";
      if (prev_n != 0) {
        const double expect =
            double(n * n * n) / double(prev_n * prev_n * prev_n);
        check = gs::strfmt("%.1fx (ideal %.0fx)", r.wall_s / prev_wall, expect);
      }
      table.add_row({std::to_string(n), gs::human_seconds(r.wall_s),
                     gs::human_seconds(r.virtual_s), check});
      prev_wall = r.wall_s;
      prev_n = n;
    }
    benchutil::print_table(
        "Parenthesis extension — problem-size scaling at block 64, barrier "
        "CB (wall measured, [model] modelled)",
        table, "paren_scaling.csv");
  }

  std::printf(
      "\ncontext: this implements the paper's §VI future work — a DP family "
      "whose wavefront dependencies do not fit the GEP k-loop — as a "
      "wavefront plan on the same sparklet substrate, run here under "
      "barrier CB.\n");
  return 0;
}

// bench_observability — the cost of watching. Runs real FW solves on the
// in-process engine in three instrumentation modes and reports measured
// wall-clock time:
//
//   off      — tracer disabled (the default): ScopedSpan construction is one
//              relaxed atomic load and nothing is recorded.
//   on       — tracer enabled: every job/iteration/phase/stage/task/kernel
//              span is timestamped and committed to the ring buffer.
//   profiled — tracer enabled + reading the returned SolveOutcome's
//              JobProfile, aggregated once after the solve.
//
// The claim under test (ISSUE 3 acceptance): tracing that is *disabled*
// costs no measurable overhead. We report min-of-R wall time — the most
// noise-resistant location statistic for "how fast can this go" — plus the
// relative delta against the baseline. A second table exercises the
// benchutil::profile_row() helper on the profiled run's JobProfile.
//
// When the library is compiled with -DGS_OBS_DISABLE_TRACING, "on" and
// "profiled" silently degrade to span-free runs; the bench still works and
// shows three statistically identical columns.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "gepspark/solver.hpp"
#include "gepspark/workload.hpp"
#include "support/stopwatch.hpp"

namespace {

using gepspark::SolverOptions;
using sparklet::ClusterConfig;
using sparklet::SparkContext;

constexpr std::size_t kN = 512;
constexpr std::size_t kBlock = 128;
constexpr int kReps = 5;

enum class Mode { kOff, kOn, kProfiled };

struct ModeResult {
  double min_wall_s = 0.0;
  std::size_t spans = 0;
  obs::JobProfile last_profile;  // only filled for kProfiled
};

SolverOptions make_options() {
  SolverOptions opt;
  opt.block_size = kBlock;
  opt.strategy = gepspark::Strategy::kInMemory;
  opt.kernel = gs::KernelConfig::iterative();
  return opt;
}

ModeResult run_mode(Mode mode, const gs::Matrix<double>& input) {
  ModeResult res;
  std::vector<double> walls;
  for (int rep = 0; rep < kReps; ++rep) {
    SparkContext sc(ClusterConfig::local(4, 2));
    if (mode != Mode::kOff) sc.tracer().set_enabled(true);
    const SolverOptions opt = make_options();
    gs::Stopwatch sw;
    if (mode == Mode::kProfiled) {
      auto r = gepspark::spark_floyd_warshall(sc, input, opt);
      walls.push_back(sw.seconds());
      res.last_profile = std::move(r.profile);
    } else {
      (void)gepspark::spark_floyd_warshall(sc, input, opt).matrix;
      walls.push_back(sw.seconds());
    }
    res.spans = sc.tracer().recorded();
  }
  res.min_wall_s = *std::min_element(walls.begin(), walls.end());
  return res;
}

}  // namespace

int main() {
  auto input = gs::workload::random_digraph({.n = kN, .seed = 1});

  // Warm-up: touch the input and fault the code paths in.
  (void)run_mode(Mode::kOff, input);

  const ModeResult off = run_mode(Mode::kOff, input);
  const ModeResult on = run_mode(Mode::kOn, input);
  const ModeResult profiled = run_mode(Mode::kProfiled, input);

  gs::TextTable table(
      {"instrumentation", "min wall (s)", "vs off", "spans recorded"});
  auto row = [&](const char* name, const ModeResult& r) {
    table.add_row({name, gs::strfmt("%.4f", r.min_wall_s),
                   gs::strfmt("%+.1f%%",
                              100.0 * (r.min_wall_s / off.min_wall_s - 1.0)),
                   std::to_string(r.spans)});
  };
  row("tracing off", off);
  row("tracing on", on);
  row("tracing on + profile", profiled);
  benchutil::print_table(
      gs::strfmt("Observability overhead — FW n=%zu b=%zu IM iter, "
                 "min of %d runs",
                 kN, kBlock, kReps),
      table, "ablation_observability.csv");

  gs::TextTable prow({"run", "wall (s)", "virtual (s)", "compute", "shuffle",
                      "collect", "broadcast", "recovery", "attributed"});
  {
    std::vector<std::string> cells{"profiled FW"};
    for (auto& c : benchutil::profile_row(profiled.last_profile)) {
      cells.push_back(std::move(c));
    }
    prow.add_row(std::move(cells));
  }
  benchutil::print_table("JobProfile of the profiled run", prow,
                         "ablation_observability_profile.csv");

  std::printf(
      "\ntakeaway: with the tracer disabled every ScopedSpan is one atomic "
      "load — the off column is the no-observability baseline, and the "
      "JobProfile aggregation only pays at job end, not per task.\n");
  return 0;
}

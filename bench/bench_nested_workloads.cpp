// bench_nested_workloads — barrier vs dataflow on the nested-dataflow
// wavefronts (GAP, protein accordion folding, Viterbi decoding).
//
// The GEP pipeline ablation measures how much the dataflow scheduler buys on
// an O(1)-dependency workload; this one asks the same question where the
// dependency shapes are the hard cases from the nested-dataflow literature —
// a 2r-1-wave anti-diagonal with row+column prefix reads (GAP), a column
// wavefront with a same-wave diagonal→panel phase split (accordion), and a
// row wavefront whose every tile reads the whole previous row (Viterbi).
// Every run is verified bit-identical against the serial reference solver
// before its time is reported.
//
// Measured and modelled numbers sit side by side:
//   - wall_s is measured: the host wall-clock of a solve
//     (profile.wall_seconds), median of kSolves solves;
//   - the serial reference's wall time on the same input (median of
//     kSolves runs) is each workload's COST line (McSherry, Isard and
//     Murray, "Scalability! But at what COST?", HotOS 2015);
//   - virtual_s, stall_s and speedup_vs_barrier_cb are model output: the
//     measured task bodies plus ClusterConfig's modelled dispatch, stage,
//     network and driver constants, so they are labelled "model".
//
// Writes the ablation table to results/ablation_nested.csv and a summary to
// BENCH_nested.json, both with the build metadata.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/nested_reference.hpp"
#include "bench_util.hpp"
#include "nested/nested_driver.hpp"
#include "support/stopwatch.hpp"

namespace {

using gepspark::ScheduleMode;
using gepspark::SolverOptions;
using gepspark::Strategy;
using sparklet::ClusterConfig;
using sparklet::SparkContext;

constexpr std::size_t kN = 192;
constexpr std::size_t kBlock = 24;
constexpr std::size_t kHorizon = 64;  // viterbi: 65-row trellis over kN states
constexpr int kSolves = 5;            // wall times are medians over these

struct Mode {
  const char* name;
  Strategy strategy;
  ScheduleMode schedule;
  int lookahead;
  int interval;
};

constexpr Mode kModes[] = {
    {"barrier cb (interval 1)", Strategy::kCollectBroadcast,
     ScheduleMode::kBarrier, 0, 1},
    {"barrier im (interval 1)", Strategy::kInMemory, ScheduleMode::kBarrier, 0,
     1},
    {"dataflow im la=0", Strategy::kInMemory, ScheduleMode::kDataflow, 0, 0},
    {"dataflow im la=1", Strategy::kInMemory, ScheduleMode::kDataflow, 1, 0},
    {"dataflow im la=2", Strategy::kInMemory, ScheduleMode::kDataflow, 2, 0},
    {"dataflow cb la=1", Strategy::kCollectBroadcast, ScheduleMode::kDataflow,
     1, 0},
};

struct Point {
  std::string workload;
  std::string mode;
  double wall_s = 0.0;     // measured
  double virtual_s = 0.0;  // model
  double stall_s = 0.0;    // model
  double speedup = 0.0;    // model: virtual time vs "barrier cb (interval 1)"
  bool identical = false;
};

struct Reference {
  std::string workload;
  double wall_s = 0.0;
};

std::string json_escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}


/// Local(4,2) as the model sees it, run on at most four pool threads so the
/// measured wall time does not time the OS scheduler.
ClusterConfig bench_cluster() {
  ClusterConfig cfg = ClusterConfig::local(4, 2);
  cfg.physical_threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  return cfg;
}

template <typename Plan, typename RefFn>
void sweep(const Plan& plan, RefFn&& reference, gs::TextTable& table,
           std::vector<Point>& points, std::vector<Reference>& refs) {
  gs::Matrix<double> ref;
  std::vector<double> ref_wall;
  for (int i = 0; i < kSolves; ++i) {
    gs::Stopwatch sw;
    ref = reference();
    ref_wall.push_back(sw.seconds());
  }
  refs.push_back({Plan::name(), benchutil::median(ref_wall)});
  table.add_row({Plan::name(), "serial reference (1 thread)",
                 gs::strfmt("%.2f", 1e3 * refs.back().wall_s), "-", "-", "-",
                 "reference"});

  double base_s = 0.0;
  for (const Mode& m : kModes) {
    SparkContext sc(bench_cluster());
    SolverOptions opt;
    opt.block_size = plan.block();
    opt.strategy = m.strategy;
    opt.schedule = m.schedule;
    opt.lookahead = m.lookahead;
    opt.checkpoint_interval = m.interval;
    std::vector<double> wall, virt, stall;
    bool identical = true;
    for (int i = 0; i < kSolves; ++i) {
      auto res = nested::nested_solve(sc, plan, opt);
      wall.push_back(res.profile.wall_seconds);
      virt.push_back(res.profile.virtual_seconds);
      stall.push_back(res.profile.buckets.stall_s);
      identical = identical && res.matrix == ref;
    }
    Point p;
    p.workload = Plan::name();
    p.mode = m.name;
    p.wall_s = benchutil::median(wall);
    p.virtual_s = benchutil::median(virt);
    p.stall_s = benchutil::median(stall);
    if (base_s == 0.0) base_s = p.virtual_s;
    p.speedup = base_s / p.virtual_s;
    p.identical = identical;
    points.push_back(p);
    table.add_row({p.workload, m.name, gs::strfmt("%.2f", 1e3 * p.wall_s),
                   gs::strfmt("%.3f", p.virtual_s),
                   gs::strfmt("%.3f", p.stall_s),
                   gs::strfmt("%.2fx", p.speedup),
                   p.identical ? "bit-identical" : "WRONG"});
  }
}

void write_summary_json(const std::string& build,
                        const std::vector<Reference>& refs,
                        const std::vector<Point>& points) {
  std::ofstream out("BENCH_nested.json");
  out << "{\n  \"bench\": \"nested_workloads\",\n"
      << "  \"build\": \"" << json_escaped(build) << "\",\n"
      << "  \"config\": {\"n\": " << kN << ", \"block\": " << kBlock
      << ", \"viterbi_horizon\": " << kHorizon
      << ", \"cluster\": \"local(4,2)\", \"physical_threads\": "
      << bench_cluster().physical_threads << ", \"solves\": " << kSolves
      << "},\n"
      << "  \"measured\": \"wall_s: host wall-clock, median of the solves "
         "(profile.wall_seconds); serial_reference: single-thread reference "
         "solver on the same input\",\n"
      << "  \"model\": \"virtual_s, stall_s, speedup_vs_barrier_cb: model "
         "output (measured task bodies plus modelled ClusterConfig "
         "constants), not measurements\",\n"
      << "  \"baseline\": \"barrier cb (interval 1)\",\n"
      << "  \"serial_reference\": [\n";
  for (std::size_t i = 0; i < refs.size(); ++i) {
    out << gs::strfmt("    {\"workload\": \"%s\", \"wall_s\": %.6f}%s\n",
                      refs[i].workload.c_str(), refs[i].wall_s,
                      i + 1 < refs.size() ? "," : "");
  }
  out << "  ],\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    out << gs::strfmt(
        "    {\"workload\": \"%s\", \"mode\": \"%s\", \"wall_s\": %.6f, "
        "\"model\": {\"virtual_s\": %.6f, \"stall_s\": %.6f, "
        "\"speedup_vs_barrier_cb\": %.3f}, \"bit_identical\": %s}%s\n",
        p.workload.c_str(), p.mode.c_str(), p.wall_s, p.virtual_s, p.stall_s,
        p.speedup, p.identical ? "true" : "false",
        i + 1 < points.size() ? "," : "");
  }
  out << "  ]\n}\n";
  std::printf("summary written to BENCH_nested.json\n");
}

}  // namespace

int main() {
  const std::string build = benchutil::build_metadata();
  std::printf("# build: %s\n", build.c_str());
  std::vector<Point> points;
  std::vector<Reference> refs;
  gs::TextTable table({"workload", "mode", "wall (ms)", "virtual (s) [model]",
                       "stall (s) [model]", "speedup [model]", "ok"});

  const nested::GapProblem gap{kN, 1};
  sweep(nested::GapPlan(gap, kBlock),
        [&] { return gs::baseline::reference_gap(gap); }, table, points, refs);
  const nested::AccordionProblem acc{kN, 1};
  sweep(nested::AccordionPlan(acc, kBlock),
        [&] { return gs::baseline::reference_accordion(acc); }, table, points,
        refs);
  const nested::ViterbiProblem vit{kN, kHorizon, 8, 1};
  sweep(nested::ViterbiPlan(vit, kBlock),
        [&] { return gs::baseline::reference_viterbi(vit); }, table, points,
        refs);

  benchutil::print_table(
      gs::strfmt("Nested-dataflow ablation — n=%zu b=%zu, local(4,2); "
                 "wall measured, [model] columns modelled",
                 kN, kBlock),
      table, "ablation_nested.csv");
  write_summary_json(build, refs, points);

  std::printf(
      "\ntakeaway: in the model, the dataflow scheduler removes the per-wave "
      "barrier stalls of the wide wavefront dependencies; the wall column "
      "and the serial reference row say what that is worth on this host. "
      "Every schedule returns the serial reference answer bit for bit.\n");
  return 0;
}

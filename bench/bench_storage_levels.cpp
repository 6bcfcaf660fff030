// bench_storage_levels — what each Spark storage level costs. Runs real FW
// and GE solves at n=256 b=64 across all five storage levels and three
// per-executor memory caps (uncapped, 128 KiB, 64 KiB) under both data
// strategies, and reports virtual makespan plus the tier traffic that
// explains it: blocks spilled to disk, readbacks, evictions, partitions
// recomputed from lineage. Every capped point is verified bit-identical
// against the uncapped MEMORY_ONLY solve before its numbers are reported;
// a point whose ladder ends before the pressure does (e.g. MEMORY_ONLY
// with pins exceeding the cap) is reported as OOM, not silently skipped.
//
// Writes results/ablation_storage_levels.csv and BENCH_storage.json.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gepspark/solver.hpp"
#include "gepspark/workload.hpp"
#include "grid/matrix.hpp"
#include "sparklet/storage_level.hpp"

namespace {

using gepspark::SolverOptions;
using gepspark::Strategy;
using sparklet::ClusterConfig;
using sparklet::SparkContext;
using sparklet::StorageLevel;

constexpr std::size_t kN = 256;
constexpr std::size_t kBlock = 64;

struct Point {
  std::string workload;
  std::string strategy;
  std::string level;
  std::string cap;
  double cap_bytes = 0.0;
  double virtual_s = 0.0;
  int spilled = 0;
  int readbacks = 0;
  int evictions = 0;
  int recomputed = 0;
  std::string status;
};

using SolveFn = gepspark::SolveOutcome<double> (*)(SparkContext&,
                                                   const gs::Matrix<double>&,
                                                   const SolverOptions&);

gepspark::SolveOutcome<double> run_fw(SparkContext& sc,
                                      const gs::Matrix<double>& in,
                                      const SolverOptions& opt) {
  return gepspark::spark_floyd_warshall(sc, in, opt);
}

gepspark::SolveOutcome<double> run_ge(SparkContext& sc,
                                      const gs::Matrix<double>& in,
                                      const SolverOptions& opt) {
  return gepspark::spark_gaussian_elimination(sc, in, opt);
}

Point run_point(const std::string& workload, SolveFn solve,
                const gs::Matrix<double>& input,
                const gs::Matrix<double>& expected, Strategy strategy,
                StorageLevel level, const std::string& cap_name,
                double cap_bytes) {
  Point p;
  p.workload = workload;
  p.strategy = gepspark::strategy_name(strategy);
  p.level = sparklet::storage_level_name(level);
  p.cap = cap_name;
  p.cap_bytes = cap_bytes;

  ClusterConfig cfg = ClusterConfig::local(4, 2);
  if (cap_bytes > 0.0) cfg.executor_mem_bytes = cap_bytes;
  SparkContext sc(cfg);

  SolverOptions opt;
  opt.block_size = kBlock;
  opt.strategy = strategy;
  opt.storage_level = level;

  try {
    auto out = solve(sc, input, opt);
    p.virtual_s = out.profile.virtual_seconds;
    p.status = out.matrix == expected ? "bit-identical" : "WRONG";
  } catch (const gs::CapacityError&) {
    p.status = "OOM";
  }
  const auto rc = sc.metrics().recovery();
  p.spilled = rc.spilled_blocks;
  p.readbacks = rc.spill_readbacks;
  p.evictions = rc.evictions;
  p.recomputed = rc.partitions_recomputed;
  return p;
}

void write_summary_json(const std::vector<Point>& points) {
  std::ofstream out("BENCH_storage.json");
  out << "{\n  \"bench\": \"storage_levels\",\n"
      << "  \"config\": {\"n\": " << kN << ", \"block\": " << kBlock
      << ", \"schedule\": \"barrier\", \"cluster\": \"local(4,2)\"},\n"
      << "  \"metric\": \"virtual makespan under per-executor memory caps\",\n"
      << "  \"baseline\": \"MEMORY_ONLY uncapped\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    out << gs::strfmt(
        "    {\"workload\": \"%s\", \"strategy\": \"%s\", \"level\": \"%s\", "
        "\"cap_bytes\": %.0f, \"virtual_s\": %.6f, \"spilled_blocks\": %d, "
        "\"spill_readbacks\": %d, \"evictions\": %d, "
        "\"partitions_recomputed\": %d, \"status\": \"%s\"}%s\n",
        p.workload.c_str(), p.strategy.c_str(), p.level.c_str(), p.cap_bytes,
        p.virtual_s, p.spilled, p.readbacks, p.evictions, p.recomputed,
        p.status.c_str(), i + 1 < points.size() ? "," : "");
  }
  out << "  ]\n}\n";
  std::printf("summary written to BENCH_storage.json\n");
}

}  // namespace

int main() {
  struct Workload {
    std::string name;
    SolveFn solve;
    gs::Matrix<double> input;
    gs::Matrix<double> expected;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"FW", run_fw,
                       gs::workload::random_digraph({.n = kN, .seed = 1}),
                       {}});
  workloads.push_back({"GE", run_ge,
                       gs::workload::diagonally_dominant_matrix(kN, 1),
                       {}});
  for (Workload& w : workloads) {
    SparkContext clean(ClusterConfig::local(4, 2));
    SolverOptions opt;
    opt.block_size = kBlock;
    w.expected = w.solve(clean, w.input, opt).matrix;
  }

  // The caps bracket the working set: 16 tiles x 32 KiB spread over 4
  // executors is ~128 KiB per executor, so "128 KiB" forces the ladder's
  // first rungs and "64 KiB" forces real disk traffic.
  const std::pair<std::string, double> caps[] = {
      {"none", 0.0}, {"128 KiB", 128.0 * 1024}, {"64 KiB", 64.0 * 1024}};
  const StorageLevel levels[] = {
      StorageLevel::kMemoryOnly, StorageLevel::kMemoryOnlySer,
      StorageLevel::kMemoryAndDisk, StorageLevel::kMemoryAndDiskSer,
      StorageLevel::kDiskOnly};

  std::vector<Point> points;
  gs::TextTable table({"workload", "strategy", "level", "cap", "virtual (s)",
                       "spills", "readbacks", "evictions", "recomputed",
                       "ok"});
  for (const Workload& w : workloads) {
    for (Strategy strategy :
         {Strategy::kInMemory, Strategy::kCollectBroadcast}) {
      for (StorageLevel level : levels) {
        for (const auto& [cap_name, cap_bytes] : caps) {
          Point p = run_point(w.name, w.solve, w.input, w.expected, strategy,
                              level, cap_name, cap_bytes);
          table.add_row({p.workload, p.strategy, p.level, p.cap,
                         p.status == "OOM" ? "-"
                                           : gs::strfmt("%.3f", p.virtual_s),
                         std::to_string(p.spilled),
                         std::to_string(p.readbacks),
                         std::to_string(p.evictions),
                         std::to_string(p.recomputed), p.status});
          points.push_back(std::move(p));
        }
      }
    }
  }
  benchutil::print_table(
      gs::strfmt("Storage-level ablation — n=%zu b=%zu, barrier, local(4,2)",
                 kN, kBlock),
      table, "ablation_storage_levels.csv");
  write_summary_json(points);

  std::printf(
      "\ntakeaway: the *_AND_DISK levels trade lineage recomputation for "
      "disk traffic — under a hard cap they keep the solve out-of-core and "
      "bit-identical, while MEMORY_ONLY evicts and replays lineage. The "
      "_SER levels halve residency for encodable tiles but pay a decode on "
      "every reuse; DISK_ONLY is the floor: every access is a readback.\n");
  return 0;
}

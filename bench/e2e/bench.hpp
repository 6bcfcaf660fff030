// bench.hpp — shared pieces of gs_bench, the wall-clock end-to-end benchmark.
//
// gs_bench runs one named workload through the library's public entry points
// (spark_floyd_warshall, spark_gaussian_elimination, nested::nested_solve,
// serve::JobServer), checks every output, and reports host wall-clock
// numbers. Untraced runs give the end-to-end metrics; `--trace 1` re-runs
// the workload with the span tracer on, splits the spans' wall time into
// per-layer self time (ledger.cpp), and adds the layer probes (probes.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "sparklet/cluster.hpp"

namespace e2e {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measured time budget of one run
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  bool probe = false;     ///< probe pass only
  bool smoke = false;     ///< toy sizes, 2 solves, 1 s of serve traffic
  std::string out = ".";  ///< directory for <workload>.trace.json
};

/// One reported number. `in_json` metrics go into the final JSON object; the
/// rest are printed as `name value unit` lines only.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool in_json = false;
  std::string note;  ///< e.g. "nondeterministic", printed after the unit
};

struct Report {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< one line per failed operation kind

  void add(std::string name, double value, std::string unit,
           bool in_json = false, std::string note = "");
  void fail(const std::string& what, std::int64_t count = 1);
};

/// Adds an exact per-op counter (an in_json metric): the median, flagged
/// "nondeterministic" when the ops did not all read the same value.
void add_counter(Report& rep, const std::string& name,
                 const std::vector<double>& v, const std::string& unit);

// ---- statistics ----------------------------------------------------------

/// Linear-interpolation percentile (p in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// VmHWM of this process in MiB.
double peak_rss_mib();

/// Solve-workload cluster: local(nodes, cores) with the pool capped at
/// min(4, nproc) threads so the run measures the program, not the OS
/// scheduler juggling more threads than cores.
sparklet::ClusterConfig bench_cluster(int nodes, int cores, int threads);
int host_threads(int cap);

// ---- workloads -----------------------------------------------------------

bool is_workload(const std::string& name);
const std::vector<std::string>& workload_names();
/// Run one workload (end-to-end or traced per Args::trace) into `rep`.
void run_workload(const Args& args, Report& rep);

// ---- per-layer ledger (ledger.cpp) ---------------------------------------

inline constexpr int kNumLevels = 7;  ///< obs::SpanLevel kJob..kKernel

/// What one traced operation's spans say about where its wall time went.
struct LedgerSample {
  double wall_s = 0.0;              ///< measured wall time of the call
  double self_s[kNumLevels] = {};   ///< self time summed per span level
  double job_wall_s = 0.0;          ///< union of job spans
  double task_wall_s = 0.0;         ///< summed task-span durations
  std::size_t kernel_calls = 0;
  std::size_t spans = 0;
};

/// Self time of a span = its duration minus the union of its children's
/// intervals (clipped to the span). Children may run on other threads.
LedgerSample analyze_spans(const std::vector<obs::Span>& spans, double wall_s);

/// Per-op aggregate of a traced run plus the JSON/table writers.
struct Ledger {
  std::vector<LedgerSample> samples;
  int pool_threads = 1;

  /// Adds the per-layer metrics (driver/stage/task/kernel self time, shares,
  /// idle fraction, coverage, spans per op) to `rep` and prints the table.
  void report(Report& rep) const;
  /// Writes <dir>/<workload>.trace.json; returns false on I/O failure.
  bool write_json(const std::string& dir, const std::string& workload,
                  const Report& rep) const;
};

// ---- probes (probes.cpp) -------------------------------------------------

/// Times the public functions of each layer in isolation on fixed seeded
/// payloads and prints each rate beside the model constant simtime assumes.
void run_probes(const Args& args, Report& rep);

}  // namespace e2e

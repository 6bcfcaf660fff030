// gs_bench — wall-clock end-to-end benchmark of the gepspark library.
//
//   gs_bench --workload apsp-im [--seed 1] [--seconds 20] [--trace 0|1]
//            [--out DIR] [--smoke]
//   gs_bench --probe [--smoke]
//   gs_bench --smoke [--workload all]   (every workload, both modes)
//
// Prints `name value unit` lines, then as its LAST stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 when
// any output check, solve, or job failed, 2 on bad usage.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"

namespace e2e {

// The metric sets BENCHMARK.json declares. Every workload reports every name
// (main() checks), so the two lists are the benchmark's contract.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "latency_ms.p50", "latency_ms.p90", "throughput_per_s",
    "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "kernels.busy_ms", "kernels.calls", "kernels.share",
    "kernels.probe.tile_d_gups", "kernels.probe.fused_d_gups",
    "kernels.probe.pack_gbps",
    "sparklet.stage.self_ms", "sparklet.task.self_ms",
    "sparklet.pool.idle_frac", "sparklet.stages", "sparklet.tasks",
    "sparklet.probe.graph_task_us", "sparklet.probe.stage_us",
    "sparklet.shuffle_bytes", "sparklet.collect_bytes",
    "sparklet.broadcast_bytes",
    "sparklet.storage.spilled_blocks", "sparklet.storage.spilled_bytes",
    "sparklet.storage.readbacks", "sparklet.storage.readback_bytes",
    "sparklet.storage.evictions", "sparklet.storage.recomputed_partitions",
    "sparklet.storage.readbacks_per_spill",
    "sparklet.probe.codec_encode_mbps", "sparklet.probe.codec_decode_mbps",
    "support.probe.lz_compress_mbps", "support.probe.lz_decompress_mbps",
    "sparklet.probe.spill_write_mbps", "sparklet.probe.spill_read_mbps",
    "driver.self_ms",
    "outside_solve_ms.p50", "outside_solve_ms.p90", "solve_ms.p50",
    "serve.rejected", "serve.backlog_max", "serve.probe.query_ns",
    "obs.trace_overhead", "obs.spans_per_solve", "obs.spans_dropped",
    "obs.ledger_coverage",
    "sparklet.timeline.virtual_s", "model.task_overhead_ratio",
    "model.spill_write_ratio"};

void Report::add(std::string name, double value, std::string unit, bool in_json,
                 std::string note) {
  metrics.push_back({std::move(name), value, std::move(unit), in_json,
                     std::move(note)});
}

void Report::fail(const std::string& what, std::int64_t count) {
  failed += count;
  errors.push_back(what);
}

void add_counter(Report& rep, const std::string& name,
                 const std::vector<double>& v, const std::string& unit) {
  const bool same =
      std::all_of(v.begin(), v.end(), [&](double x) { return x == v.front(); });
  rep.add(name, median(v), unit, true, same ? "" : "nondeterministic");
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

int host_threads(int cap) {
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return std::min(cap, hw);
}

sparklet::ClusterConfig bench_cluster(int nodes, int cores, int threads) {
  sparklet::ClusterConfig cfg = sparklet::ClusterConfig::local(nodes, cores);
  cfg.physical_threads = threads;
  return cfg;
}

namespace {

const char* simd_backend() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

void usage() {
  std::fprintf(stderr,
               "usage: gs_bench --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--out DIR] [--smoke]\n"
               "       gs_bench --probe [--smoke]\n"
               "       gs_bench --smoke [--workload all]\n"
               "workloads:");
  for (const auto& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--probe") {
      a.probe = true;
    } else if (flag == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a.seed = std::stoull(argv[++i]);
    } else if (flag == "--seconds" && has_value) {
      a.seconds = std::stod(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (flag == "--out" && has_value) {
      a.out = argv[++i];
    } else {
      return false;
    }
  }
  if (!(a.seconds > 0.0)) return false;
  if (a.probe) return true;
  if (a.smoke && a.workload.empty()) a.workload = "all";
  return a.workload == "all" ? a.smoke : is_workload(a.workload);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Prints the human lines and the final JSON line; returns the exit code.
int emit(const Report& rep, const std::vector<std::string>* contract) {
  Report out = rep;
  if (contract != nullptr) {
    for (const auto& name : *contract) {
      const auto n = std::count_if(
          rep.metrics.begin(), rep.metrics.end(),
          [&](const Metric& m) { return m.in_json && m.name == name; });
      if (n != 1) out.fail("metric " + name + " reported " + std::to_string(n) + " times");
    }
  }
  for (const auto& m : out.metrics) {
    std::printf("%s %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : " ", m.note.c_str());
  }
  for (const auto& e : out.errors) std::printf("# FAILED: %s\n", e.c_str());
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::int64_t>(1, out.attempted));
  json += ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& m : out.metrics) {
    if (!m.in_json) continue;
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::fflush(stdout);
  std::printf("%s\n", json.c_str());
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args args;
  try {
    if (!parse(argc, argv, args)) {
      usage();
      return 2;
    }
  } catch (const std::exception&) {
    usage();
    return 2;
  }
  if (!args.smoke &&
      (std::strcmp(GS_E2E_BUILD_TYPE, "Release") != 0 || sanitized_build())) {
    std::fprintf(stderr,
                 "gs_bench: refusing to time a %s%s build; configure "
                 "bench/e2e with CMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 GS_E2E_BUILD_TYPE, sanitized_build() ? " sanitizer" : "");
    return 2;
  }
  std::printf("# build: type=%s compiler=\"%s\" flags=\"%s\" simd=%s nproc=%u\n",
              GS_E2E_BUILD_TYPE, __VERSION__, GS_E2E_CXX_FLAGS, simd_backend(),
              std::thread::hardware_concurrency());
  try {
    if (args.probe) {
      Report rep;
      run_probes(args, rep);
      return emit(rep, nullptr);
    }
    if (args.workload == "all") {  // smoke of every workload, both modes
      int rc = 0;
      for (const auto& w : workload_names()) {
        for (bool traced : {false, true}) {
          Args one = args;
          one.workload = w;
          one.trace = traced;
          std::printf("# workload %s%s\n", w.c_str(), traced ? " (traced)" : "");
          Report rep;
          run_workload(one, rep);
          rc = std::max(rc, emit(rep, traced ? &kPerLayer : &kEndToEnd));
        }
      }
      return rc;
    }
    Report rep;
    run_workload(args, rep);
    return emit(rep, args.trace ? &kPerLayer : &kEndToEnd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gs_bench: %s\n", e.what());
    return 1;
  }
}

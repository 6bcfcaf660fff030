// gepspark_cli — command-line runner in the spirit of the paper's DPSpark
// scripts: pick a benchmark, problem size, strategy, and kernel from flags,
// run it for real on the in-process engine, and print the execution
// metrics (optionally exporting a Chrome trace of the virtual schedule).
//
//   $ ./gepspark_cli --benchmark fw --n 512 --block 128 --strategy im
//                     --kernel rec4 --omp 2 --trace fw.json
//   $ ./gepspark_cli --benchmark align --n 2048 --block 512
//   $ ./gepspark_cli --serve --n 256 --tenants 4 --queries 1000
//   $ ./gepspark_cli --help
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "align/align_plan.hpp"
#include "analysis/hb_detector.hpp"
#include "baseline/nested_reference.hpp"
#include "baseline/reference.hpp"
#include "gepspark/solver.hpp"
#include "gepspark/workload.hpp"
#include "nested/nested_driver.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "paren/paren_plan.hpp"
#include "serve/job_server.hpp"
#include "sparklet/storage_level.hpp"

namespace {

struct CliArgs {
  std::string benchmark = "fw";  // fw | ge | tc | gap | accordion
                                 // | viterbi | paren | align
  std::size_t n = 256;
  std::size_t block = 64;
  std::string strategy = "im";   // im | cb
  std::string schedule = "barrier";  // barrier | dataflow
  // Pivot lookahead depth under dataflow; -1 = auto (1 under dataflow,
  // ignored by the barrier loop).
  int lookahead = gepspark::SolverOptions::kAutoLookahead;
  std::string kernel = "rec4";   // iter | tiled<T> | rec<R>
  std::string base = "auto";     // auto | scalar | simd
  int omp = 1;
  int nodes = 4;
  int cores = 2;
  std::string trace;             // chrome-trace output path
  std::string profile_json;      // JobProfile JSON export path
  std::string profile_csv;       // JobProfile CSV export path
  bool verify = true;
  std::string chaos;             // fault-injection spec (key=value CSV)
  int checkpoint_interval = 1;   // 0 = never checkpoint
  bool speculate = false;        // enable speculative execution
  bool validate_schedule = false;  // static schedule soundness checker
  bool race_check = false;         // happens-before race detector
  int model_check = 0;             // >0: interleaving-exploration budget
  bool audit_recovery = false;     // lineage-recovery closure audit
  bool fused_d = false;            // batched fused D phase (panel packing)
  bool strassen_d = false;         // one-level Strassen split (fields only)
  std::string storage_level = "memory_only";  // persist() level for DP tiles
  double memory_cap = 0.0;         // executor memory bytes (0 = default)
  bool track_predecessors = false;  // fw only: keep predecessor tiles
  bool serve = false;               // run the multi-tenant job-server demo
  int tenants = 4;                  // --serve: concurrent tenants
  int queries = 1000;               // --serve: point queries per table
};

void usage() {
  std::printf(
      "gepspark_cli — run a DP benchmark on the in-process Spark-style "
      "engine\n"
      "\nsolve\n"
      "  --benchmark fw|ge|tc|               (default fw)\n"
      "              gap|accordion|viterbi|  wavefront plans: GAP problem,\n"
      "              paren|align             protein accordion folding,\n"
      "                                      Viterbi decoding (--n = states,\n"
      "                                      horizon n/2), matrix chain (--n\n"
      "                                      matrices), local alignment of\n"
      "                                      two --n bp sequences\n"
      "  --n <size>                          problem size (default 256)\n"
      "  --block <b>                         tile side (default 64)\n"
      "  --strategy im|cb                    distribution strategy (default im)\n"
      "  --kernel iter|tiled<T>|rec<R>       e.g. rec16, tiled64 (default rec4)\n"
      "  --base auto|scalar|simd             base-case backend (default auto)\n"
      "  --omp <t>                           OMP_NUM_THREADS (default 1)\n"
      "  --nodes <n> --cores <c>             virtual cluster (default 4x2)\n"
      "  --no-verify                         skip reference validation\n"
      "  --track-predecessors                fw only: keep predecessor tiles\n"
      "                                      so full shortest paths can be\n"
      "                                      reconstructed per point query\n"
      "\nschedule\n"
      "  --schedule barrier|dataflow         per-phase barriers vs tile-level\n"
      "                                      dataflow DAG (default barrier;\n"
      "                                      on gap|accordion|viterbi|paren|\n"
      "                                      align, barrier is the dataflow\n"
      "                                      engine at lookahead 0)\n"
      "  --lookahead <d>                     pivot lookahead depth under\n"
      "                                      --schedule dataflow (default:\n"
      "                                      auto — 1 under dataflow)\n"
      "  --fused-d                           batched fused D phase: pack the\n"
      "                                      step-k pivot panels once and\n"
      "                                      batch each executor's trailing\n"
      "                                      tiles into one task\n"
      "  --strassen-d                        one-level Strassen split of the\n"
      "                                      fused trailing update (GE only;\n"
      "                                      tolerance- not bit-identical)\n"
      "  --speculate                         enable speculative execution\n"
      "\nstorage\n"
      "  --storage-level <level>             persist() level for the DP tiles:\n"
      "                                      memory_only | memory_only_ser |\n"
      "                                      memory_and_disk |\n"
      "                                      memory_and_disk_ser | disk_only\n"
      "                                      (default memory_only)\n"
      "  --memory-cap <bytes>                executor memory budget, accepts\n"
      "                                      k/m/g suffixes (e.g. 64m); under\n"
      "                                      pressure blocks demote down the\n"
      "                                      storage ladder instead of being\n"
      "                                      dropped (0 = cluster default;\n"
      "                                      needs a disk-backed level)\n"
      "  --checkpoint-interval <k>           checkpoint DP every k iterations\n"
      "                                      (default 1; 0 = never)\n"
      "\nchaos\n"
      "  --chaos <spec>                      seeded fault injection, e.g.\n"
      "      tasks=0.2,kills=2,killp=0.5,fetch=0.2,straggle=0.2,factor=8,\n"
      "      corrupt=1.0,attempts=6,stageattempts=4,spillcorrupt=0.5,\n"
      "      torn=0.5,enospc=0.5,slowdisk=0.5,slowfactor=4,seed=42\n"
      "      (tasks/fetch/killp/straggle/corrupt are probabilities; kills =\n"
      "      max executor kills; attempts = task retries; factor = straggler\n"
      "      slowdown; spillcorrupt/torn corrupt or truncate spill files,\n"
      "      enospc refuses a node's spill writes, slowdisk slows a node's\n"
      "      spill device by slowfactor)\n"
      "\nobs\n"
      "  --trace <file.json>                 export Chrome trace (schedule "
      "+ spans)\n"
      "  --profile-json <file.json>          export JobProfile "
      "(gepspark.profile/v3)\n"
      "  --profile-csv <file.csv>            export JobProfile rows "
      "(job + per-k)\n"
      "  --validate-schedule                 statically verify every emitted\n"
      "                                      task graph against the symbolic\n"
      "                                      GEP footprints (dataflow only)\n"
      "  --race-check                        happens-before race detection\n"
      "                                      over the executed task graphs\n"
      "  --model-check[=N]                   systematically explore the\n"
      "                                      distinct interleavings of the\n"
      "                                      dataflow task graphs (DPOR-\n"
      "                                      pruned to conflicting reorders,\n"
      "                                      budget N, default 64); every\n"
      "                                      order must be bit-identical\n"
      "                                      with clean analysis verdicts\n"
      "  --audit-recovery                    statically audit each checkpoint\n"
      "                                      segment's lineage: every live\n"
      "                                      block's recompute closure must\n"
      "                                      be complete, acyclic, and\n"
      "                                      k-monotone (dataflow only)\n"
      "\nserve\n"
      "  --serve                             DP-as-a-service quickstart: a\n"
      "                                      JobServer solves one job per\n"
      "                                      tenant concurrently, answers\n"
      "                                      point queries (dist + paths)\n"
      "                                      from the resident tables, then\n"
      "                                      cancels a job mid-flight and\n"
      "                                      shuts down cleanly\n"
      "  --tenants <k>                       --serve: concurrent tenants\n"
      "                                      (default 4)\n"
      "  --queries <q>                       --serve: point queries against\n"
      "                                      the first resident table\n"
      "                                      (default 1000)\n");
}

// "64m" → 64 MiB, "1g" → 1 GiB, "4096" → bytes.
double parse_bytes(const std::string& s) {
  GS_THROW_IF(s.empty(), gs::ConfigError, "empty byte size");
  std::size_t idx = 0;
  const double v = std::stod(s, &idx);
  double mult = 1.0;
  if (idx < s.size()) {
    switch (s[idx]) {
      case 'k': case 'K': mult = 1024.0; break;
      case 'm': case 'M': mult = 1024.0 * 1024.0; break;
      case 'g': case 'G': mult = 1024.0 * 1024.0 * 1024.0; break;
      default:
        throw gs::ConfigError("bad byte-size suffix: " + s);
    }
  }
  return v * mult;
}

bool parse(int argc, char** argv, CliArgs& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (flag == "--help" || flag == "-h") return false;
    if (flag == "--no-verify") {
      a.verify = false;
    } else if (const char* v = nullptr;
               (flag == "--benchmark" && (v = next())) != 0) {
      a.benchmark = v;
    } else if (flag == "--n" && (i + 1) < argc) {
      a.n = std::stoul(argv[++i]);
    } else if (flag == "--block" && (i + 1) < argc) {
      a.block = std::stoul(argv[++i]);
    } else if (flag == "--strategy" && (i + 1) < argc) {
      a.strategy = argv[++i];
    } else if (flag == "--schedule" && (i + 1) < argc) {
      a.schedule = argv[++i];
    } else if (flag == "--lookahead" && (i + 1) < argc) {
      a.lookahead = std::stoi(argv[++i]);
    } else if (flag == "--kernel" && (i + 1) < argc) {
      a.kernel = argv[++i];
    } else if (flag == "--base" && (i + 1) < argc) {
      a.base = argv[++i];
    } else if (flag == "--omp" && (i + 1) < argc) {
      a.omp = std::stoi(argv[++i]);
    } else if (flag == "--nodes" && (i + 1) < argc) {
      a.nodes = std::stoi(argv[++i]);
    } else if (flag == "--cores" && (i + 1) < argc) {
      a.cores = std::stoi(argv[++i]);
    } else if (flag == "--trace" && (i + 1) < argc) {
      a.trace = argv[++i];
    } else if (flag == "--profile-json" && (i + 1) < argc) {
      a.profile_json = argv[++i];
    } else if (flag == "--profile-csv" && (i + 1) < argc) {
      a.profile_csv = argv[++i];
    } else if (flag == "--chaos" && (i + 1) < argc) {
      a.chaos = argv[++i];
    } else if (flag == "--checkpoint-interval" && (i + 1) < argc) {
      a.checkpoint_interval = std::stoi(argv[++i]);
    } else if (flag == "--speculate") {
      a.speculate = true;
    } else if (flag == "--validate-schedule") {
      a.validate_schedule = true;
    } else if (flag == "--race-check") {
      a.race_check = true;
    } else if (flag == "--model-check") {
      a.model_check = 64;
    } else if (flag.rfind("--model-check=", 0) == 0) {
      a.model_check = std::stoi(flag.substr(std::strlen("--model-check=")));
    } else if (flag == "--audit-recovery") {
      a.audit_recovery = true;
    } else if (flag == "--fused-d") {
      a.fused_d = true;
    } else if (flag == "--strassen-d") {
      a.strassen_d = true;
    } else if (flag == "--storage-level" && (i + 1) < argc) {
      a.storage_level = argv[++i];
    } else if (flag == "--memory-cap" && (i + 1) < argc) {
      a.memory_cap = parse_bytes(argv[++i]);
    } else if (flag == "--track-predecessors") {
      a.track_predecessors = true;
    } else if (flag == "--serve") {
      a.serve = true;
    } else if (flag == "--tenants" && (i + 1) < argc) {
      a.tenants = std::stoi(argv[++i]);
    } else if (flag == "--queries" && (i + 1) < argc) {
      a.queries = std::stoi(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

// Parses a `--chaos` spec: comma-separated key=value pairs, e.g.
// "tasks=0.2,kills=2,fetch=0.2,seed=42". Unknown keys are an error so typos
// don't silently run a fault-free experiment.
sparklet::ChaosPlan parse_chaos(const std::string& spec) {
  sparklet::ChaosPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    GS_THROW_IF(eq == std::string::npos, gs::ConfigError,
                "chaos spec item '" + item + "' is not key=value");
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "tasks") plan.task_failure_prob = std::stod(val);
    else if (key == "attempts") plan.max_task_attempts = std::stoi(val);
    else if (key == "killp") plan.executor_kill_prob = std::stod(val);
    else if (key == "kills") plan.max_executor_kills = std::stoi(val);
    else if (key == "fetch") plan.fetch_failure_prob = std::stod(val);
    else if (key == "stageattempts") plan.max_stage_attempts = std::stoi(val);
    else if (key == "straggle") plan.straggler_prob = std::stod(val);
    else if (key == "factor") plan.straggler_factor = std::stod(val);
    else if (key == "corrupt") plan.checkpoint_corruption_prob = std::stod(val);
    else if (key == "corruptmax") plan.max_block_corruptions = std::stoi(val);
    else if (key == "spillcorrupt") plan.spill_corruption_prob = std::stod(val);
    else if (key == "spillcorruptmax") plan.max_spill_corruptions = std::stoi(val);
    else if (key == "torn") plan.torn_write_prob = std::stod(val);
    else if (key == "tornmax") plan.max_torn_writes = std::stoi(val);
    else if (key == "enospc") plan.enospc_prob = std::stod(val);
    else if (key == "enospcmax") plan.max_enospc_nodes = std::stoi(val);
    else if (key == "slowdisk") plan.slow_spill_prob = std::stod(val);
    else if (key == "slowfactor") plan.slow_spill_factor = std::stod(val);
    else if (key == "seed") plan.seed = std::stoull(val);
    else
      throw gs::ConfigError("unknown chaos key: " + key);
  }
  return plan;
}

void print_recovery(const sparklet::RecoveryCounters& rc) {
  std::printf(
      "  recovery: %d task failures (%d retries), %d executor kills "
      "(%d tasks rescheduled), %d fetch failures (%d stage resubmissions)\n"
      "            %d partitions dropped / %d recomputed, %d checkpoint "
      "blocks (%s, %d corrupted), %d evictions\n"
      "            %d stragglers, %d speculative launches (%d wins)\n",
      rc.task_failures, rc.task_retries, rc.executor_kills,
      rc.tasks_rescheduled, rc.fetch_failures, rc.stage_resubmissions,
      rc.partitions_dropped, rc.partitions_recomputed, rc.checkpoint_blocks,
      gs::human_bytes(double(rc.checkpoint_bytes)).c_str(),
      rc.corrupted_blocks, rc.evictions, rc.stragglers_injected,
      rc.speculative_launches, rc.speculative_wins);
  if (rc.spilled_blocks || rc.spill_readbacks || rc.corrupt_spills ||
      rc.spill_write_failures) {
    std::printf(
        "            %d blocks spilled (%s), %d readbacks (%s), %d corrupt "
        "spills, %d refused spill writes\n",
        rc.spilled_blocks, gs::human_bytes(double(rc.spilled_bytes)).c_str(),
        rc.spill_readbacks,
        gs::human_bytes(double(rc.spill_readback_bytes)).c_str(),
        rc.corrupt_spills, rc.spill_write_failures);
  }
}

gs::KernelBase parse_base(const std::string& base) {
  if (base == "auto") return gs::KernelBase::kAuto;
  if (base == "scalar") return gs::KernelBase::kScalar;
  if (base == "simd") return gs::KernelBase::kSimd;
  throw gs::ConfigError("unknown base backend: " + base +
                        " (want auto|scalar|simd)");
}

gs::KernelConfig parse_kernel(const CliArgs& a) {
  const gs::KernelBase base = parse_base(a.base);
  if (a.kernel == "iter") return gs::KernelConfig::iterative().with_base(base);
  if (a.kernel.rfind("tiled", 0) == 0) {
    return gs::KernelConfig::tiled(std::stoul(a.kernel.substr(5)), a.omp)
        .with_base(base);
  }
  if (a.kernel.rfind("rec", 0) == 0) {
    return gs::KernelConfig::recursive(std::stoul(a.kernel.substr(3)), a.omp)
        .with_base(base);
  }
  throw gs::ConfigError("unknown kernel spec: " + a.kernel);
}

/// The SolverOptions both runners build from the flags, with `kernel` as
/// the tile kernel.
gepspark::SolverOptions solver_options(const CliArgs& a,
                                       gs::KernelConfig kernel) {
  gepspark::SolverOptions opt;
  opt.block_size = a.block;
  opt.strategy = a.strategy == "cb" ? gepspark::Strategy::kCollectBroadcast
                                    : gepspark::Strategy::kInMemory;
  opt.kernel = kernel;
  opt.kernel.strassen_d = a.strassen_d;
  opt.checkpoint_interval = a.checkpoint_interval;
  if (a.schedule == "dataflow") {
    opt.schedule = gepspark::ScheduleMode::kDataflow;
  } else if (a.schedule != "barrier") {
    throw gs::ConfigError("unknown schedule: " + a.schedule +
                          " (want barrier|dataflow)");
  }
  opt.lookahead = a.lookahead;
  opt.validate_schedule = a.validate_schedule;
  opt.fused_d = a.fused_d;
  const auto level = sparklet::parse_storage_level(a.storage_level);
  GS_THROW_IF(!level, gs::ConfigError,
              "unknown storage level: " + a.storage_level);
  opt.storage_level = *level;
  opt.memory_cap = static_cast<std::size_t>(a.memory_cap);
  opt.track_predecessors = a.track_predecessors;
  opt.audit_recovery = a.audit_recovery;
  opt.model_check = a.model_check;
  return opt;
}

int run_gep(sparklet::SparkContext& sc, const CliArgs& a) {
  gepspark::SolverOptions opt = solver_options(a, parse_kernel(a));
  opt.track_predecessors = a.track_predecessors && a.benchmark == "fw";
  opt.validate();

  analysis::ModelCheckOptions mc_opt;
  mc_opt.max_schedules = a.model_check;
  std::function<analysis::ModelCheckReport()> mc_run;

  obs::JobProfile prof;
  double diff = 0.0;
  if (a.benchmark == "fw" && opt.track_predecessors) {
    serve::SolveRequest req;
    req.kind = serve::ProblemKind::kFloydWarshall;
    req.matrix = gs::workload::random_digraph({.n = a.n, .seed = 1});
    req.options = opt;
    mc_run = [&sc, input = req.matrix, opt, mc_opt] {
      return gepspark::model_check_gep<gs::FloydWarshallSpec>(sc, input, opt,
                                                              mc_opt);
    };
    auto table = serve::solve_now(sc, req);
    prof = table->profile;
    if (a.verify) {
      auto ref = req.matrix;
      gs::baseline::reference_floyd_warshall(ref);
      diff = gs::max_abs_diff(table->values, ref);
    }
    // Show the point-query front end once: the first finite off-diagonal
    // pair gets its full path reconstructed from the predecessor tiles.
    for (std::size_t u = 0; u < a.n; ++u) {
      std::size_t v = (u + a.n / 2) % a.n;
      if (u == v || table->dist(u, v) ==
                        std::numeric_limits<double>::infinity()) {
        continue;
      }
      auto path = table->path(u, v);
      std::printf("  path %zu -> %zu: %zu hops, dist %.1f\n", u, v,
                  path.size() - 1, table->dist(u, v));
      break;
    }
  } else if (a.benchmark == "fw") {
    auto input = gs::workload::random_digraph({.n = a.n, .seed = 1});
    mc_run = [&sc, input, opt, mc_opt] {
      return gepspark::model_check_gep<gs::FloydWarshallSpec>(sc, input, opt,
                                                              mc_opt);
    };
    auto res = gepspark::spark_floyd_warshall(sc, input, opt);
    prof = std::move(res.profile);
    if (a.verify) {
      auto ref = input;
      gs::baseline::reference_floyd_warshall(ref);
      diff = gs::max_abs_diff(res.matrix, ref);
    }
  } else if (a.benchmark == "ge") {
    auto input = gs::workload::diagonally_dominant_matrix(a.n, 1);
    mc_run = [&sc, input, opt, mc_opt] {
      return gepspark::model_check_gep<gs::GaussianEliminationSpec>(sc, input,
                                                                    opt, mc_opt);
    };
    auto res = gepspark::spark_gaussian_elimination(sc, input, opt);
    prof = std::move(res.profile);
    if (a.verify) diff = gs::baseline::lu_residual(input, res.matrix);
  } else {  // tc
    auto input = gs::workload::random_bool_digraph(a.n, 0.05, 1);
    mc_run = [&sc, input, opt, mc_opt] {
      return gepspark::model_check_gep<gs::TransitiveClosureSpec>(sc, input,
                                                                  opt, mc_opt);
    };
    auto res = gepspark::spark_transitive_closure(sc, input, opt);
    prof = std::move(res.profile);
    if (a.verify) {
      auto ref = input;
      gs::baseline::reference_transitive_closure(ref);
      diff = gs::max_abs_diff(res.matrix, ref);
    }
  }

  std::printf(
      "%s n=%zu %s: wall %.3fs | grid %dx%d | %d stages / %d tasks\n"
      "  shuffle %s, collect %s, broadcast %s%s\n",
      a.benchmark.c_str(), a.n, opt.describe().c_str(), prof.wall_seconds,
      prof.grid_r, prof.grid_r, prof.stages, prof.tasks,
      gs::human_bytes(double(prof.shuffle_bytes)).c_str(),
      gs::human_bytes(double(prof.collect_bytes)).c_str(),
      gs::human_bytes(double(prof.broadcast_bytes)).c_str(),
      a.verify ? gs::strfmt(" | verified (max err %.2e)", diff).c_str() : "");
  if (a.validate_schedule) {
    std::printf("  schedule check: SOUND (every emitted task graph matches "
                "the symbolic GEP footprints)\n");
  }
  if (a.audit_recovery) {
    std::printf("  recovery audit: PASS (every live block's recompute "
                "closure is complete, acyclic, and k-monotone)\n");
  }
  if (a.model_check > 0) {
    const analysis::ModelCheckReport rep = mc_run();
    std::printf("  %s\n", rep.summary().c_str());
    if (!rep.ok()) return 1;
  }
  prof.print(std::cout);
  const obs::CriticalPathReport cp = obs::analyze_critical_path(
      sc.timeline(), prof.record_begin, prof.record_end);
  cp.print(std::cout);
  if (!a.profile_json.empty()) {
    obs::write_profile_json(prof, a.profile_json);
    std::printf("  profile JSON written to %s\n", a.profile_json.c_str());
  }
  if (!a.profile_csv.empty()) {
    obs::write_profile_csv(prof, a.profile_csv);
    std::printf("  profile CSV written to %s\n", a.profile_csv.c_str());
  }
  return a.verify && diff > 1e-8 ? 1 : 0;
}

// The wavefront plans (GAP / accordion folding / Viterbi / paren / align)
// share SolverOptions with the GEP specs. The GEP-only knobs (fused_d,
// strassen_d, track_predecessors) pass through, and nested_solve's
// validate_wavefront_options rejects them by name. --kernel stays GEP-only:
// a plan runs its own tile kernels, so its profile must not name the GEP
// kernel the flag picked (scripts/verify.sh passes --kernel to every
// benchmark).
int run_nested(sparklet::SparkContext& sc, const CliArgs& a) {
  const gepspark::SolverOptions opt = solver_options(a, gs::KernelConfig{});
  gepspark::validate_wavefront_options(opt);

  analysis::ModelCheckOptions mc_opt;
  mc_opt.max_schedules = a.model_check;
  std::function<analysis::ModelCheckReport()> mc_run;

  gepspark::SolveOutcome<double> res;
  double diff = 0.0;
  std::string extra;
  if (a.benchmark == "gap") {
    const nested::GapProblem prob{a.n, 1};
    mc_run = [&sc, prob, block = a.block, opt, mc_opt] {
      return nested::model_check_nested(sc, nested::GapPlan(prob, block), opt,
                                        mc_opt);
    };
    res = nested::nested_solve(sc, nested::GapPlan(prob, a.block), opt);
    if (a.verify) {
      diff = gs::max_abs_diff(res.matrix, gs::baseline::reference_gap(prob));
    }
    extra = gs::strfmt(" | G(0,%zu) = %.3f", a.n, res.matrix(0, a.n));
  } else if (a.benchmark == "accordion") {
    const nested::AccordionProblem prob{a.n, 1};
    mc_run = [&sc, prob, block = a.block, opt, mc_opt] {
      return nested::model_check_nested(sc, nested::AccordionPlan(prob, block),
                                        opt, mc_opt);
    };
    res = nested::nested_solve(sc, nested::AccordionPlan(prob, a.block), opt);
    if (a.verify) {
      diff = gs::max_abs_diff(res.matrix,
                              gs::baseline::reference_accordion(prob));
    }
    extra = gs::strfmt(" | folding optimum %.3f",
                       nested::accordion_best(res.matrix, a.n));
  } else if (a.benchmark == "paren") {  // a chain of --n matrices
    std::vector<double> dims(a.n + 1);
    gs::Rng rng(1);
    for (auto& d : dims) d = std::floor(rng.uniform(2.0, 80.0));
    const auto prob = paren::matrix_chain_problem(dims);
    using Plan = paren::ParenPlan<paren::MatrixChainSpec>;
    mc_run = [&sc, prob, block = a.block, opt, mc_opt] {
      return nested::model_check_nested(sc, Plan(prob, block), opt, mc_opt);
    };
    res = nested::nested_solve(sc, Plan(prob, a.block), opt);
    if (a.verify) {
      diff = gs::max_abs_diff(res.matrix, paren::reference_table(prob));
    }
    extra = gs::strfmt(" | optimum %.3e scalar mults", res.matrix(0, a.n));
  } else if (a.benchmark == "align") {  // local alignment, --n bp each
    static const char* kAlphabet = "ACGT";
    align::AlignProblem prob;
    prob.mode = align::AlignMode::kLocal;
    gs::Rng rng(1);
    for (std::size_t i = 0; i < a.n; ++i) {
      prob.a.push_back(kAlphabet[rng.uniform_u64(4)]);
      prob.b.push_back(kAlphabet[rng.uniform_u64(4)]);
    }
    mc_run = [&sc, prob, block = a.block, opt, mc_opt] {
      return nested::model_check_nested(sc, align::AlignPlan(prob, block), opt,
                                        mc_opt);
    };
    res = nested::nested_solve(sc, align::AlignPlan(prob, a.block), opt);
    if (a.verify) {
      const auto ref = align::reference_align(prob.a, prob.b, prob.scheme,
                                              prob.mode);
      diff = gs::max_abs_diff(
          res.matrix, align::AlignResult{ref.score, ref.end_i, ref.end_j}
                          .table());
    }
    const auto hit = align::AlignResult::from_table(res.matrix);
    extra = gs::strfmt(" | best score %.0f at (%zu, %zu)", hit.score,
                       hit.end_i, hit.end_j);
  } else {  // viterbi: --n = states, horizon = n/2 for a non-square trellis
    const nested::ViterbiProblem prob{a.n, std::max<std::size_t>(4, a.n / 2),
                                      8, 1};
    mc_run = [&sc, prob, block = a.block, opt, mc_opt] {
      return nested::model_check_nested(sc, nested::ViterbiPlan(prob, block),
                                        opt, mc_opt);
    };
    res = nested::nested_solve(sc, nested::ViterbiPlan(prob, a.block), opt);
    if (a.verify) {
      diff = gs::max_abs_diff(res.matrix,
                              gs::baseline::reference_viterbi(prob));
    }
    extra = gs::strfmt(" | %zu-step trellis", prob.rows());
  }

  obs::JobProfile& prof = res.profile;
  std::printf(
      "%s n=%zu %s: wall %.3fs | %d stages / %d tasks%s\n"
      "  shuffle %s, collect %s, broadcast %s%s\n",
      a.benchmark.c_str(), a.n, opt.describe().c_str(), prof.wall_seconds,
      prof.stages, prof.tasks, extra.c_str(),
      gs::human_bytes(double(prof.shuffle_bytes)).c_str(),
      gs::human_bytes(double(prof.collect_bytes)).c_str(),
      gs::human_bytes(double(prof.broadcast_bytes)).c_str(),
      a.verify ? gs::strfmt(" | verified (max err %.2e)", diff).c_str() : "");
  if (a.validate_schedule) {
    std::printf("  schedule check: SOUND (every emitted task graph matches "
                "the symbolic %s footprints)\n", a.benchmark.c_str());
  }
  if (a.audit_recovery) {
    std::printf("  recovery audit: PASS (every live block's recompute "
                "closure is complete, acyclic, and k-monotone)\n");
  }
  if (a.model_check > 0) {
    const analysis::ModelCheckReport rep = mc_run();
    std::printf("  %s\n", rep.summary().c_str());
    if (!rep.ok()) return 1;
  }
  prof.print(std::cout);
  if (!a.profile_json.empty()) {
    obs::write_profile_json(prof, a.profile_json);
    std::printf("  profile JSON written to %s\n", a.profile_json.c_str());
  }
  if (!a.profile_csv.empty()) {
    obs::write_profile_csv(prof, a.profile_csv);
    std::printf("  profile CSV written to %s\n", a.profile_csv.c_str());
  }
  return a.verify && diff != 0.0 ? 1 : 0;
}

// --serve quickstart: the DP-as-a-service loop end to end — concurrent
// tenants, resident tables, point queries at measured latency, a mid-flight
// cancellation, and a graceful drain.
int run_serve(const CliArgs& a) {
  using Clock = std::chrono::steady_clock;
  serve::ServerConfig cfg;
  cfg.cluster = sparklet::ClusterConfig::local(a.nodes, a.cores);
  cfg.num_contexts = 2;
  serve::JobServer server(cfg);
  std::printf("job server up: %d contexts (%dx%d each), queue cap %d\n",
              server.num_contexts(), a.nodes, a.cores, cfg.max_queue_depth);

  // One job per tenant: even tenants solve FW with predecessor tracking
  // (so paths can be served), odd tenants run GE.
  struct Submitted {
    std::string tenant;
    serve::SolveTicket ticket;
  };
  std::vector<Submitted> jobs;
  for (int t = 0; t < a.tenants; ++t) {
    serve::SolveRequest req;
    req.tenant = "tenant-" + std::to_string(t);
    req.options.block_size = a.block;
    if (t % 2 == 0) {
      req.kind = serve::ProblemKind::kFloydWarshall;
      req.options.track_predecessors = true;
      req.matrix = gs::workload::random_digraph(
          {.n = a.n, .seed = 100 + std::uint64_t(t)});
    } else {
      req.kind = serve::ProblemKind::kGaussianElimination;
      req.matrix =
          gs::workload::diagonally_dominant_matrix(a.n, 100 + std::uint64_t(t));
    }
    jobs.push_back({req.tenant, server.submit(req)});
  }
  for (auto& j : jobs) {
    const auto status = j.ticket.await();
    const auto table = server.table(j.ticket.id());
    std::printf("  job %lld (%s): %s — %.3fs, table %s\n",
                static_cast<long long>(j.ticket.id()), j.tenant.c_str(),
                serve::job_status_name(status),
                table != nullptr ? table->profile.wall_seconds : 0.0,
                table != nullptr
                    ? gs::human_bytes(double(table->bytes())).c_str()
                    : "-");
    GS_THROW_IF(status != serve::JobStatus::kDone, gs::ConfigError,
                "serve quickstart job failed");
  }

  // Point queries against the first tenant's FW table: dist + a path per
  // round, latency measured per query.
  const serve::JobId fw_id = jobs.front().ticket.id();
  const auto table = server.table(fw_id);
  std::vector<double> lat_us;
  lat_us.reserve(static_cast<std::size_t>(a.queries));
  std::size_t paths = 0, hops = 0;
  gs::Rng rng(7);
  for (int q = 0; q < a.queries; ++q) {
    const std::size_t u = rng.uniform_u64(a.n), v = rng.uniform_u64(a.n);
    const auto t0 = Clock::now();
    const double d = server.query_dist(fw_id, u, v);
    auto path = server.query_path(fw_id, u, v);
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    if (d != std::numeric_limits<double>::infinity() && !path.empty()) {
      ++paths;
      hops += path.size() - 1;
    }
  }
  std::sort(lat_us.begin(), lat_us.end());
  const auto pct = [&](double p) {
    return lat_us[std::min(lat_us.size() - 1,
                           std::size_t(p * double(lat_us.size())))];
  };
  std::printf(
      "  %d point queries (dist + path): p50 %.1fus p99 %.1fus max %.1fus — "
      "%zu reachable pairs, %.1f hops avg\n",
      a.queries, pct(0.50), pct(0.99), lat_us.back(), paths,
      paths > 0 ? double(hops) / double(paths) : 0.0);

  // Cancellation: a straggler job is aborted mid-flight; the server keeps
  // serving and the next submit reuses the freed context.
  serve::SolveRequest big;
  big.tenant = "straggler";
  big.kind = serve::ProblemKind::kFloydWarshall;
  big.matrix = gs::workload::random_digraph({.n = std::max<std::size_t>(a.n, 256),
                                             .seed = 999});
  big.options.block_size = 32;
  auto doomed = server.submit(big);
  doomed.cancel();
  std::printf("  cancelled job %lld: %s\n",
              static_cast<long long>(doomed.id()),
              serve::job_status_name(doomed.await()));

  const auto st = server.stats();
  std::printf(
      "  server stats: %lld submitted, %lld done, %lld cancelled, "
      "%lld rejected | %zu resident tables (%s)\n",
      static_cast<long long>(st.submitted), static_cast<long long>(st.completed),
      static_cast<long long>(st.cancelled), static_cast<long long>(st.rejected),
      st.resident_tables, gs::human_bytes(double(st.resident_bytes)).c_str());
  server.shutdown();
  std::printf("  clean shutdown: workers joined, tables still queryable "
              "(dist(0,0) = %.1f)\n",
              server.query_dist(fw_id, 0, 0));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  try {
    if (args.serve) return run_serve(args);
    sparklet::ClusterConfig cfg =
        sparklet::ClusterConfig::local(args.nodes, args.cores);
    if (args.memory_cap > 0.0) cfg.executor_mem_bytes = args.memory_cap;
    sparklet::SparkContext sc(cfg);
    if (!args.chaos.empty()) sc.set_chaos_plan(parse_chaos(args.chaos));
    if (args.speculate) sc.set_speculation({.enabled = true});
    analysis::HbDetector detector;
    if (args.race_check) {
      GS_THROW_IF(!analysis::kAnalysisEnabled, gs::ConfigError,
                  "--race-check needs a build with GS_ANALYSIS=ON");
      sc.set_race_detector(&detector);
    }
    // Spans are only collected when asked for: profiling uses them for
    // per-iteration attribution, tracing renders them alongside the schedule.
    if (!args.trace.empty() || !args.profile_json.empty() ||
        !args.profile_csv.empty()) {
      sc.tracer().set_enabled(true);
    }
    int rc;
    if (args.benchmark == "gap" || args.benchmark == "accordion" ||
        args.benchmark == "viterbi" || args.benchmark == "paren" ||
        args.benchmark == "align") {
      rc = run_nested(sc, args);
    } else if (args.benchmark == "fw" || args.benchmark == "ge" ||
               args.benchmark == "tc") {
      rc = run_gep(sc, args);
    } else {
      std::fprintf(stderr, "unknown benchmark: %s\n", args.benchmark.c_str());
      usage();
      return 2;
    }
    if (!args.chaos.empty() || args.speculate ||
        args.storage_level != "memory_only") {
      print_recovery(sc.metrics().recovery());
    }
    if (args.race_check) {
      std::printf("  %s\n", detector.summary().c_str());
      if (detector.races_found() > 0 && rc == 0) rc = 1;
    }
    if (!args.trace.empty()) {
      obs::write_chrome_trace(sc.timeline(), &sc.tracer(), args.trace);
      std::printf("  virtual-schedule trace written to %s\n",
                  args.trace.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

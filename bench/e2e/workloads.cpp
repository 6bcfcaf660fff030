// workloads.cpp — the five gs_bench workloads, their output checks, and the
// end-to-end and traced measurement loops.
//
// Every input, arrival time and query comes from --seed; the library only
// ever sees the generated inputs. All contexts are sized so the pool never
// has more threads than min(4, nproc) per solve (see README.md).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "analysis/model_check.hpp"
#include "baseline/nested_reference.hpp"
#include "baseline/reference.hpp"
#include "bench.hpp"
#include "gepspark/solver.hpp"
#include "gepspark/workload.hpp"
#include "nested/nested_driver.hpp"
#include "serve/job_server.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

/// Fresh contexts (or servers) per run whose median is setup_s.
constexpr int kSetups = 5;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- independent output checks --------------------------------------------

/// FW-APSP against dense-array Dijkstra from 16 seeded sources (shares no
/// code with the GEP kernels; sums in a different order, hence a tolerance).
std::string check_apsp(const gs::Matrix<double>& adj,
                       const gs::Matrix<double>& out, std::uint64_t seed) {
  const std::size_t n = adj.rows();
  const double inf = std::numeric_limits<double>::infinity();
  gs::Rng rng(seed ^ 0xd1a57a11ull);
  for (int s = 0; s < 16; ++s) {
    const std::size_t src = rng.uniform_u64(n);
    std::vector<double> dist(n, inf);
    std::vector<char> done(n, 0);
    dist[src] = 0.0;
    for (std::size_t step = 0; step < n; ++step) {
      std::size_t u = n;
      for (std::size_t v = 0; v < n; ++v) {
        if (!done[v] && dist[v] < inf && (u == n || dist[v] < dist[u])) u = v;
      }
      if (u == n) break;
      done[u] = 1;
      for (std::size_t v = 0; v < n; ++v) {
        const double w = adj(u, v);
        if (u != v && w < inf && dist[u] + w < dist[v]) dist[v] = dist[u] + w;
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      const double got = out(src, v);
      const bool ok = dist[v] == inf
                          ? got == inf
                          : std::abs(got - dist[v]) <=
                                1e-9 * std::max(1.0, std::abs(dist[v]));
      if (!ok) {
        return gs::strfmt("apsp (%zu,%zu) = %.17g, Dijkstra says %.17g", src, v,
                          got, dist[v]);
      }
    }
  }
  return "";
}

/// GE without pivoting, Freivalds-style: ‖L(Ux) − Ax‖∞ ≤ 1e-9·‖A‖∞ on three
/// random vectors, with L and U read off the eliminated table.
std::string check_ge(const gs::Matrix<double>& a, const gs::Matrix<double>& out,
                     std::uint64_t seed) {
  const std::size_t n = a.rows();
  double a_norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) row += std::abs(a(i, j));
    a_norm = std::max(a_norm, row);
  }
  gs::Rng rng(seed ^ 0xf4e1a1dull);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<double> x(n), ux(n, 0.0);
    for (auto& xi : x) xi = rng.uniform(-1.0, 1.0);
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t j = k; j < n; ++j) ux[k] += out(k, j) * x[j];
    }
    for (std::size_t i = 0; i < n; ++i) {
      double lux = ux[i];
      double ax = 0.0;
      for (std::size_t k = 0; k < i; ++k) lux += out(i, k) / out(k, k) * ux[k];
      for (std::size_t j = 0; j < n; ++j) ax += a(i, j) * x[j];
      if (!(std::abs(lux - ax) <= 1e-9 * a_norm)) {
        return gs::strfmt("GE row %zu: |L(Ux) - Ax| = %.3g > 1e-9 * %.3g", i,
                          std::abs(lux - ax), a_norm);
      }
    }
  }
  return "";
}

std::string check_tc(const gs::Matrix<std::uint8_t>& adj,
                     const gs::Matrix<std::uint8_t>& out) {
  gs::Matrix<std::uint8_t> ref = adj;
  gs::baseline::reference_transitive_closure(ref);
  return gs::max_abs_diff(ref, out) == 0.0 ? "" : "transitive closure differs";
}

// ---- generic operation loops -----------------------------------------------

std::uint64_t table_digest(const serve::ResidentTable& t) {
  return t.kind == serve::ProblemKind::kTransitiveClosure
             ? analysis::digest_matrix(t.bools)
             : analysis::digest_matrix(t.values);
}

std::uint64_t combine(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
  return gs::splitmix64(s);
}

/// What one measured operation produced; `profile` sums the JobProfiles of
/// the op's solves.
struct OpOutcome {
  gs::Matrix<double> matrix;  ///< solve workloads: the table
  std::vector<std::shared_ptr<const serve::ResidentTable>> tables;  ///< serve
  obs::JobProfile profile;
};

/// Digest of every output table, taken outside the timed region.
std::uint64_t digest_of(const OpOutcome& o) {
  std::uint64_t d = analysis::digest_matrix(o.matrix);
  for (const auto& t : o.tables) d = combine(d, table_digest(*t));
  return d;
}

/// A workload as a repeatable operation on a context, plus the independent
/// check of its first output ("" = pass).
struct OpCase {
  sparklet::ClusterConfig cluster;
  std::function<OpOutcome(sparklet::SparkContext&)> op;
  std::function<std::string(const OpOutcome&)> check;
  const char* unit = "solve";  ///< what one op is, for the printed lines
};

void accumulate(obs::JobProfile& into, const obs::JobProfile& p) {
  into.wall_seconds += p.wall_seconds;
  into.virtual_seconds += p.virtual_seconds;
  into.stages += p.stages;
  into.tasks += p.tasks;
  into.shuffle_bytes += p.shuffle_bytes;
  into.collect_bytes += p.collect_bytes;
  into.broadcast_bytes += p.broadcast_bytes;
  auto& r = into.recovery;
  r.spilled_blocks += p.recovery.spilled_blocks;
  r.spilled_bytes += p.recovery.spilled_bytes;
  r.spill_readbacks += p.recovery.spill_readbacks;
  r.spill_readback_bytes += p.recovery.spill_readback_bytes;
  r.evictions += p.recovery.evictions;
  r.partitions_recomputed += p.recovery.partitions_recomputed;
}

OpOutcome outcome_of(gepspark::SolveOutcome<double> res) {
  OpOutcome out;
  out.matrix = std::move(res.matrix);
  out.profile = std::move(res.profile);
  return out;
}

/// The context's metrics registry and virtual timeline keep a record of every
/// task ever run; clearing them between ops keeps the process footprint a
/// per-solve working set instead of a function of how many solves fit in
/// the time budget.
void reset_records(sparklet::SparkContext& sc) {
  sc.metrics().reset();
  sc.timeline().reset();
}

/// Runs one op and verifies its digest; returns the wall time or a negative
/// value after recording the failure.
double timed_op(const OpCase& c, sparklet::SparkContext& sc,
                std::uint64_t want, Report& rep, OpOutcome* keep = nullptr) {
  reset_records(sc);
  ++rep.attempted;
  try {
    const auto t0 = Clock::now();
    OpOutcome out = c.op(sc);
    const double dt = since(t0);
    if (digest_of(out) != want) {
      rep.fail(gs::strfmt("%s output digest differs from the first %s", c.unit,
                          c.unit));
      return -1.0;
    }
    if (keep != nullptr) *keep = std::move(out);
    return dt;
  } catch (const std::exception& e) {
    rep.fail(gs::strfmt("%s threw: %s", c.unit, e.what()));
    return -1.0;
  }
}

/// A fresh context and the first op on it; `setup_s` times both.
std::unique_ptr<sparklet::SparkContext> first_op(const OpCase& c,
                                                 OpOutcome& out,
                                                 double& setup_s) {
  const auto t0 = Clock::now();
  auto sc = std::make_unique<sparklet::SparkContext>(c.cluster);
  out = c.op(*sc);
  setup_s = since(t0);
  return sc;
}

/// The independent reference check of a first output, outside any timing.
void check_first(const OpCase& c, const OpOutcome& out, Report& rep) {
  ++rep.attempted;
  const std::string err = c.check(out);
  if (!err.empty()) rep.fail("reference check: " + err);
}

void add_latency_metrics(Report& rep, const std::vector<double>& lat_ms) {
  rep.add("latency_ms.p50", percentile(lat_ms, 0.5), "ms", true);
  rep.add("latency_ms.p90", percentile(lat_ms, 0.9), "ms", true);
}

/// End-to-end run: setup_s over kSetups fresh contexts, then ops until the
/// time budget is spent (at least 10; exactly 2 under --smoke).
void run_end_to_end(const Args& args, const OpCase& c, Report& rep) {
  std::vector<double> setup;
  std::unique_ptr<sparklet::SparkContext> sc;
  std::uint64_t digest = 0;
  for (int i = 0; i < kSetups; ++i) {
    sc.reset();  // tear the previous context down outside the timed region
    OpOutcome out;
    double s = 0.0;
    sc = first_op(c, out, s);
    setup.push_back(s);
    if (i == 0) {
      digest = digest_of(out);
      check_first(c, out, rep);
    } else {
      ++rep.attempted;
      if (digest_of(out) != digest) rep.fail("setup solve digest differs from the first");
    }
  }
  std::vector<double> lat_ms;
  double sum_s = 0.0;
  const auto loop0 = Clock::now();
  for (int n = 0; args.smoke ? n < 2 : (n < 10 || since(loop0) < args.seconds);
       ++n) {
    const double dt = timed_op(c, *sc, digest, rep);
    if (dt < 0.0) continue;
    lat_ms.push_back(1e3 * dt);
    sum_s += dt;
  }
  rep.add("setup_s", median(setup), "s", true);
  add_latency_metrics(rep, lat_ms);
  rep.add("throughput_per_s", sum_s > 0.0 ? double(lat_ms.size()) / sum_s : 0.0,
          "1/s", true);
  rep.add("peak_rss_mb", peak_rss_mib(), "MiB", true);
  rep.add("samples", double(lat_ms.size()), c.unit);
  rep.add("latency_ms.min", percentile(lat_ms, 0.0), "ms");
  rep.add("latency_ms.max", percentile(lat_ms, 1.0), "ms");
}

/// Exact per-op counters of the traced ops, read off their JobProfiles.
struct Counter {
  const char* name;
  const char* unit;
  double (*get)(const obs::JobProfile&);
};
const Counter kCounters[] = {
    {"sparklet.stages", "count", [](const obs::JobProfile& p) { return double(p.stages); }},
    {"sparklet.tasks", "count", [](const obs::JobProfile& p) { return double(p.tasks); }},
    {"sparklet.shuffle_bytes", "B",
     [](const obs::JobProfile& p) { return double(p.shuffle_bytes); }},
    {"sparklet.collect_bytes", "B",
     [](const obs::JobProfile& p) { return double(p.collect_bytes); }},
    {"sparklet.broadcast_bytes", "B",
     [](const obs::JobProfile& p) { return double(p.broadcast_bytes); }},
    {"sparklet.storage.spilled_blocks", "count",
     [](const obs::JobProfile& p) { return double(p.recovery.spilled_blocks); }},
    {"sparklet.storage.spilled_bytes", "B",
     [](const obs::JobProfile& p) { return double(p.recovery.spilled_bytes); }},
    {"sparklet.storage.readbacks", "count",
     [](const obs::JobProfile& p) { return double(p.recovery.spill_readbacks); }},
    {"sparklet.storage.readback_bytes", "B",
     [](const obs::JobProfile& p) { return double(p.recovery.spill_readback_bytes); }},
    {"sparklet.storage.evictions", "count",
     [](const obs::JobProfile& p) { return double(p.recovery.evictions); }},
    {"sparklet.storage.recomputed_partitions", "count",
     [](const obs::JobProfile& p) { return double(p.recovery.partitions_recomputed); }},
    {"sparklet.storage.readbacks_per_spill", "ratio",
     [](const obs::JobProfile& p) {
       const auto& r = p.recovery;
       return r.spilled_blocks > 0
                  ? double(r.spill_readbacks) / double(r.spilled_blocks)
                  : 0.0;
     }},
};

/// Traced run: untraced and traced ops alternate for `budget_s` (at least 10
/// pairs; 2 under --smoke); the traced ones feed the ledger, the pairs give
/// the tracing overhead. `outside_ms`/`solve_ms` come from the caller when it
/// measured them itself (serve-mix: queueing inside the server).
void run_traced(const Args& args, const OpCase& c, double budget_s, Report& rep,
                std::vector<double> outside_ms, std::vector<double> solve_ms) {
  OpOutcome first;
  double unused = 0.0;
  auto sc = first_op(c, first, unused);
  check_first(c, first, rep);
  const std::uint64_t digest = digest_of(first);
  obs::Tracer& tracer = sc->tracer();
  tracer.set_capacity(std::size_t{1} << 20);
  Ledger ledger;
  ledger.pool_threads = c.cluster.physical_threads;
  std::vector<double> plain, traced, virt;
  std::vector<std::vector<double>> counters(std::size(kCounters));
  std::size_t dropped = 0;
  const bool own_queue = outside_ms.empty();
  const auto loop0 = Clock::now();
  for (int i = 0; args.smoke ? i < 2 : (i < 10 || since(loop0) < budget_s); ++i) {
    OpOutcome out;
    const double dt = timed_op(c, *sc, digest, rep, &out);
    if (dt >= 0.0) {
      plain.push_back(dt);
      virt.push_back(out.profile.virtual_seconds);
      if (own_queue) {
        outside_ms.push_back(1e3 * (dt - out.profile.wall_seconds));
        solve_ms.push_back(1e3 * out.profile.wall_seconds);
      }
    }
    tracer.clear();
    tracer.set_enabled(true);
    const double tt = timed_op(c, *sc, digest, rep, &out);
    tracer.set_enabled(false);
    if (tt < 0.0) continue;
    traced.push_back(tt);
    dropped += tracer.dropped();
    ledger.samples.push_back(analyze_spans(tracer.spans(), tt));
    for (std::size_t k = 0; k < std::size(kCounters); ++k) {
      counters[k].push_back(kCounters[k].get(out.profile));
    }
  }
  ledger.report(rep);
  for (std::size_t k = 0; k < std::size(kCounters); ++k) {
    add_counter(rep, kCounters[k].name, counters[k], kCounters[k].unit);
  }
  rep.add("outside_solve_ms.p50", percentile(outside_ms, 0.5), "ms", true);
  rep.add("outside_solve_ms.p90", percentile(outside_ms, 0.9), "ms", true);
  rep.add("solve_ms.p50", percentile(solve_ms, 0.5), "ms", true);
  const double p50_plain = median(plain);
  rep.add("obs.trace_overhead",
          p50_plain > 0.0 ? median(traced) / p50_plain - 1.0 : 0.0, "ratio",
          true);
  rep.add("obs.spans_dropped", double(dropped), "count", true);
  rep.add("sparklet.timeline.virtual_s", median(virt), "s", true);
  rep.add("untraced_ms.p50", 1e3 * p50_plain, "ms");
  rep.add("traced_ms.p50", 1e3 * median(traced), "ms");
  run_probes(args, rep);
  if (!ledger.write_json(args.out, args.workload, rep)) {
    rep.fail("could not write " + args.out + "/" + args.workload + ".trace.json");
  }
}

// ---- the solve workloads -----------------------------------------------------

// Sizes keep one solve near 0.1 s, so a 20 s run holds about 200 samples and
// the p90 has about twenty beyond it.
OpCase apsp_case(const Args& args, bool spill) {
  const std::size_t n = args.smoke ? 128 : spill ? 640 : 1024;
  auto input = std::make_shared<const gs::Matrix<double>>(
      gs::workload::random_digraph({.n = n, .seed = args.seed}));
  gepspark::SolverOptions opt;
  opt.block_size = args.smoke ? 32 : 128;
  opt.strategy = gepspark::Strategy::kInMemory;
  opt.schedule = gepspark::ScheduleMode::kBarrier;
  opt.kernel = gs::KernelConfig::recursive(4, 1);
  opt.checkpoint_interval = 1;
  OpCase c;
  c.cluster = bench_cluster(2, 2, host_threads(4));
  if (spill) {
    // 1 MiB per executor against a 3.1 MiB table: the barrier engine demotes
    // (serialize + LZ) and spills real files, then reads them back.
    const std::size_t cap = args.smoke ? n * n : std::size_t{1} << 20;
    opt.storage_level = sparklet::StorageLevel::kMemoryAndDiskSer;
    opt.memory_cap = cap;
    c.cluster.executor_mem_bytes = static_cast<double>(cap);
  }
  c.op = [input, opt](sparklet::SparkContext& sc) {
    return outcome_of(gepspark::spark_floyd_warshall(sc, *input, opt));
  };
  c.check = [input, seed = args.seed](const OpOutcome& o) {
    return check_apsp(*input, o.matrix, seed);
  };
  return c;
}

OpCase ge_case(const Args& args) {
  const std::size_t n = args.smoke ? 128 : 768;
  auto input = std::make_shared<const gs::Matrix<double>>(
      gs::workload::diagonally_dominant_matrix(n, args.seed));
  gepspark::SolverOptions opt;
  opt.block_size = args.smoke ? 16 : 64;
  opt.strategy = gepspark::Strategy::kCollectBroadcast;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.lookahead = 1;
  opt.fused_d = true;
  opt.kernel = gs::KernelConfig::recursive(4, 1);
  OpCase c;
  c.cluster = bench_cluster(2, 2, host_threads(4));
  c.op = [input, opt](sparklet::SparkContext& sc) {
    return outcome_of(gepspark::spark_gaussian_elimination(sc, *input, opt));
  };
  c.check = [input, seed = args.seed](const OpOutcome& o) {
    return check_ge(*input, o.matrix, seed);
  };
  return c;
}

OpCase viterbi_case(const Args& args) {
  const nested::ViterbiProblem prob{args.smoke ? 32u : 256u,
                                    args.smoke ? 16u : 48u, 8, args.seed};
  gepspark::SolverOptions opt;
  opt.block_size = 8;
  opt.strategy = gepspark::Strategy::kInMemory;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.lookahead = 1;
  OpCase c;
  c.cluster = bench_cluster(2, 2, host_threads(4));
  c.op = [prob, opt](sparklet::SparkContext& sc) {
    return outcome_of(
        nested::nested_solve(sc, nested::ViterbiPlan(prob, opt.block_size), opt));
  };
  c.check = [prob](const OpOutcome& o) -> std::string {
    const double diff =
        gs::max_abs_diff(o.matrix, gs::baseline::reference_viterbi(prob));
    return diff == 0.0 ? "" : gs::strfmt("Viterbi trellis differs by %.3g", diff);
  };
  return c;
}

// ---- serve-mix --------------------------------------------------------------

/// The request mix: input j is FW (n=192) / GE (n=192) / TC (n=256) by j % 3,
/// each with its own seeded matrix. `digests[j]` is what serve::solve_now
/// produced for it at setup. b = 64: at b = 32 a job spends most of its time
/// in task dispatch, which made its latency swing 1.5-2x with host load
/// against 1.3x for the compute-bound solves.
struct Mix {
  std::vector<serve::SolveRequest> reqs;
  std::vector<std::uint64_t> digests;
  serve::ServerConfig server;
};

Mix make_mix(const Args& args, Report& rep) {
  Mix mix;
  mix.server.cluster = bench_cluster(1, 2, 2);
  mix.server.num_contexts = 2;
  mix.server.max_queue_depth = 1024;
  const std::size_t inputs = args.smoke ? 6 : 60;
  const std::size_t n = args.smoke ? 64 : 192;
  const std::size_t n_tc = args.smoke ? 64 : 256;
  sparklet::SparkContext sc(mix.server.cluster);
  for (std::size_t j = 0; j < inputs; ++j) {
    const std::uint64_t seed = args.seed * 1000003ull + j;
    serve::SolveRequest req;
    req.options.block_size = args.smoke ? 16 : 64;
    switch (j % 3) {
      case 0:
        req.kind = serve::ProblemKind::kFloydWarshall;
        req.matrix = gs::workload::random_digraph({.n = n, .seed = seed});
        break;
      case 1:
        req.kind = serve::ProblemKind::kGaussianElimination;
        req.matrix = gs::workload::diagonally_dominant_matrix(n, seed);
        break;
      default:
        req.kind = serve::ProblemKind::kTransitiveClosure;
        req.bool_matrix = gs::workload::random_bool_digraph(n_tc, 0.05, seed);
        break;
    }
    auto table = serve::solve_now(sc, req);
    reset_records(sc);
    if (j < 3) {  // one independent check per kind
      ++rep.attempted;
      const std::string err =
          j == 0   ? check_apsp(req.matrix, table->values, seed)
          : j == 1 ? check_ge(req.matrix, table->values, seed)
                   : check_tc(req.bool_matrix, table->bools);
      if (!err.empty()) rep.fail("reference check: " + err);
    }
    mix.digests.push_back(table_digest(*table));
    mix.reqs.push_back(std::move(req));
  }
  return mix;
}

/// Open-loop and closed-drain client of one JobServer. Submissions come from
/// the caller's thread; a fixed pool of awaiter threads waits on the tickets
/// in submission order (the server serves tenants round-robin and the client
/// assigns tenants round-robin, so completions reorder by at most the tenant
/// count, far below the pool size), verifies each table's digest, keeps at
/// most 8 tables resident, and publishes the newest FW table for queries.
class Client {
 public:
  static constexpr int kTenants = 4;
  static constexpr std::size_t kResident = 8;

  Client(serve::JobServer& server, const Mix& mix)
      : server_(server), mix_(mix), epoch_(Clock::now()) {
    for (int i = 0; i < 16; ++i) awaiters_.emplace_back([this] { await_loop(); });
  }
  ~Client() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
    for (auto& t : awaiters_) t.join();
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  double now() const { return since(epoch_); }

  /// Submit input `seq % inputs` as tenant `seq % kTenants`; a job is timed
  /// from `due_s` when `timed`. Rejections count as failures.
  void submit(std::size_t seq, double due_s, bool timed) {
    serve::SolveRequest req = mix_.reqs[seq % mix_.reqs.size()];
    req.tenant = "tenant-" + std::to_string(seq % kTenants);
    serve::SolveTicket ticket;
    try {
      ticket = server_.submit(std::move(req));
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu_);
      ++rejected_;
      errors_.push_back(std::string("submit rejected: ") + e.what());
      return;
    }
    const int queued = timed ? server_.stats().queued : 0;
    std::lock_guard<std::mutex> lock(mu_);
    backlog_max_ = std::max(backlog_max_, queued);
    ++outstanding_;
    pending_.push_back({std::move(ticket), due_s, seq % mix_.reqs.size(), timed});
    cv_.notify_one();
  }

  /// Block until every submitted job has been awaited and checked; returns
  /// the time the last one completed.
  double wait_idle() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [&] { return outstanding_ == 0; });
    return last_done_s_;
  }

  serve::JobId newest_fw() const { return newest_fw_.load(); }

  struct Results {
    std::vector<double> latency_ms, queue_ms, solve_ms;
    std::int64_t jobs = 0, failed = 0, rejected = 0;
    int backlog_max = 0;
    std::vector<std::string> errors;
  };
  Results results() {
    std::lock_guard<std::mutex> lock(mu_);
    return {latency_ms_, queue_ms_, solve_ms_, jobs_,
            failed_,     rejected_, backlog_max_, errors_};
  }

 private:
  struct Pending {
    serve::SolveTicket ticket;
    double due_s = 0.0;
    std::size_t input = 0;
    bool timed = false;
  };

  void await_loop() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return closed_ || !pending_.empty(); });
        if (pending_.empty()) return;
        p = std::move(pending_.front());
        pending_.pop_front();
      }
      const serve::JobStatus status = p.ticket.await();
      const double done_s = now();
      std::string error;
      std::shared_ptr<const serve::ResidentTable> table;
      if (status != serve::JobStatus::kDone) {
        error = gs::strfmt("job %lld %s: %s", static_cast<long long>(p.ticket.id()),
                           serve::job_status_name(status), p.ticket.error().c_str());
      } else {
        table = server_.table(p.ticket.id());
        if (table == nullptr || table_digest(*table) != mix_.digests[p.input]) {
          error = gs::strfmt("job %lld: served table differs from solve_now",
                             static_cast<long long>(p.ticket.id()));
        }
      }
      std::lock_guard<std::mutex> lock(mu_);
      ++jobs_;
      if (!error.empty()) {
        ++failed_;
        errors_.push_back(error);
      } else {
        if (p.timed) {
          latency_ms_.push_back(1e3 * (done_s - p.due_s));
          solve_ms_.push_back(1e3 * table->profile.wall_seconds);
          queue_ms_.push_back(latency_ms_.back() - solve_ms_.back());
        }
        resident_.push_back(p.ticket.id());
        if (table->kind == serve::ProblemKind::kFloydWarshall) {
          newest_fw_.store(p.ticket.id());
        }
        while (resident_.size() > kResident) {
          const auto victim = std::find_if(
              resident_.begin(), resident_.end(),
              [&](serve::JobId id) { return id != newest_fw_.load(); });
          server_.evict(*victim);
          resident_.erase(victim);
        }
      }
      last_done_s_ = std::max(last_done_s_, done_s);
      if (--outstanding_ == 0) idle_cv_.notify_all();
    }
  }

  serve::JobServer& server_;
  const Mix& mix_;
  const Clock::time_point epoch_;

  std::mutex mu_;  // guards everything below except newest_fw_
  std::condition_variable cv_, idle_cv_;
  std::deque<Pending> pending_;
  bool closed_ = false;
  std::int64_t outstanding_ = 0;
  double last_done_s_ = 0.0;
  std::vector<double> latency_ms_, queue_ms_, solve_ms_;
  std::int64_t jobs_ = 0, failed_ = 0, rejected_ = 0;
  int backlog_max_ = 0;
  std::vector<std::string> errors_;
  std::deque<serve::JobId> resident_;
  std::atomic<serve::JobId> newest_fw_{-1};

  std::vector<std::thread> awaiters_;  // last: started after all state
};

/// Point queries at a fixed open-loop rate against the newest resident FW
/// table, each answer checked against the table it came from.
class QueryLoad {
 public:
  QueryLoad(serve::JobServer& server, const Client& client, std::uint64_t seed,
            double per_s)
      : thread_([this, &server, &client, seed, per_s] {
          run(server, client, seed, per_s);
        }) {}
  ~QueryLoad() { stop(); }
  QueryLoad(const QueryLoad&) = delete;
  QueryLoad& operator=(const QueryLoad&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  std::vector<double> latency_us;  ///< valid after stop()
  std::int64_t attempted = 0, failed = 0;

 private:
  void run(serve::JobServer& server, const Client& client, std::uint64_t seed,
           double per_s) {
    gs::Rng rng(seed ^ 0x9e7e5ull);
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / per_s));
    auto next = Clock::now();
    while (!stop_.load()) {
      next += period;
      std::this_thread::sleep_until(next);
      const serve::JobId id = client.newest_fw();
      if (id < 0) continue;
      const auto table = server.table(id);
      if (table == nullptr) continue;  // evicted between the two reads
      const std::size_t n = table->n();
      const std::size_t u = rng.uniform_u64(n), v = rng.uniform_u64(n);
      ++attempted;
      try {
        const auto t0 = Clock::now();
        const double d = server.query_dist(id, u, v);
        latency_us.push_back(1e6 * since(t0));
        if (!(d == table->values(u, v))) ++failed;
      } catch (const std::exception&) {
        ++failed;
      }
    }
  }

  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after all state
};

/// Poisson arrivals at `rate` jobs/s for `duration_s`, with queries alongside.
/// Adds the generator lateness and query latency lines to `rep`.
void open_loop(Client& client, serve::JobServer& server, const Args& args,
               double rate, double duration_s, Report& rep) {
  gs::Rng rng(args.seed ^ 0xa771e5ull);
  std::vector<double> due;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  QueryLoad queries(server, client, args.seed, 2000.0);
  const double t0 = client.now() + 0.01;
  std::vector<double> late_ms;
  for (std::size_t i = 0; i < due.size(); ++i) {
    const double at = t0 + due[i];
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::max(0.0, at - client.now())));
    late_ms.push_back(1e3 * (client.now() - at));
    client.submit(i, at, true);
  }
  client.wait_idle();
  queries.stop();
  rep.attempted += queries.attempted;
  if (queries.failed > 0) rep.fail("point queries failed", queries.failed);
  rep.add("serve.jobs_open_loop", double(due.size()), "count");
  rep.add("serve.gen_late_ms.p50", percentile(late_ms, 0.5), "ms");
  rep.add("serve.gen_late_ms.p99", percentile(late_ms, 0.99), "ms");
  rep.add("serve.gen_late_ms.max", percentile(late_ms, 1.0), "ms");
  rep.add("serve.queries", double(queries.latency_us.size()), "count");
  rep.add("query_us.p50", percentile(queries.latency_us, 0.5), "us");
  rep.add("query_us.p99", percentile(queries.latency_us, 0.99), "us");
  rep.add("query_us.max", percentile(queries.latency_us, 1.0), "us");
}

void account(const Client::Results& r, Report& rep) {
  rep.attempted += r.jobs + r.rejected;
  for (const auto& e : r.errors) rep.fail(e);
}

/// serve-mix, end to end: setup_s over kSetups fresh servers (construct + one
/// job per kind), then the open loop (80 jobs/s for half the budget, about a
/// quarter of capacity, so queueing shows without amplifying host noise), then
/// nine closed drains of 12 jobs per budget second. Back-to-back drains in one
/// process differ by ±10%, so capacity is the median of nine.
void run_serve_end_to_end(const Args& args, Report& rep) {
  const Mix mix = make_mix(args, rep);
  std::vector<double> setup;
  std::unique_ptr<serve::JobServer> server;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<serve::JobServer>(mix.server);
    std::vector<serve::SolveTicket> tickets;
    for (std::size_t j = 0; j < 3; ++j) {
      serve::SolveRequest req = mix.reqs[j];
      req.tenant = "tenant-" + std::to_string(j);
      tickets.push_back(server->submit(std::move(req)));
    }
    for (auto& t : tickets) t.await();
    setup.push_back(since(t0));
    for (std::size_t j = 0; j < 3; ++j) {
      ++rep.attempted;
      const auto table = server->table(tickets[j].id());
      if (table == nullptr || table_digest(*table) != mix.digests[j]) {
        rep.fail("setup job differs from solve_now");
      }
      server->evict(tickets[j].id());
    }
  }
  std::vector<double> drains;
  Client::Results r;
  {
    Client client(*server, mix);
    open_loop(client, *server, args, args.smoke ? 40.0 : 80.0,
              args.smoke ? 1.0 : 0.5 * args.seconds, rep);
    const std::size_t per_drain =
        args.smoke ? 10 : static_cast<std::size_t>(12.0 * args.seconds);
    std::size_t seq = 1u << 20;  // drains continue the input cycle elsewhere
    for (int d = 0; d < (args.smoke ? 3 : 9); ++d) {
      const double t0 = client.now();
      for (std::size_t k = 0; k < per_drain; ++k) client.submit(seq++, t0, false);
      const double t1 = client.wait_idle();
      drains.push_back(double(per_drain) / std::max(1e-9, t1 - t0));
    }
    r = client.results();
  }
  server->shutdown();
  account(r, rep);
  rep.add("setup_s", median(setup), "s", true);
  add_latency_metrics(rep, r.latency_ms);
  rep.add("throughput_per_s", median(drains), "1/s", true);
  rep.add("peak_rss_mb", peak_rss_mib(), "MiB", true);
  rep.add("samples", double(r.latency_ms.size()), "job");
  rep.add("serve.drain_jobs_per_s.min", percentile(drains, 0.0), "1/s");
  rep.add("serve.drain_jobs_per_s.max", percentile(drains, 1.0), "1/s");
  rep.add("serve.rejected", double(r.rejected), "count");
  rep.add("serve.backlog_max", double(r.backlog_max), "count");
  rep.add("serve.queue_ms.p50", percentile(r.queue_ms, 0.5), "ms");
  rep.add("serve.queue_ms.p90", percentile(r.queue_ms, 0.9), "ms");
  rep.add("serve.solve_ms.p50", percentile(r.solve_ms, 0.5), "ms");
}

/// serve-mix, traced: the server's queueing split from a shorter open loop,
/// then the span ledger of one FW+GE+TC cycle replayed through solve_now —
/// the code path the server's workers run — on a traced context shaped like
/// one server context.
void run_serve_traced(const Args& args, Report& rep) {
  const Mix mix = make_mix(args, rep);
  Client::Results r;
  {
    serve::JobServer server(mix.server);
    {
      Client client(server, mix);
      open_loop(client, server, args, args.smoke ? 40.0 : 80.0,
                args.smoke ? 1.0 : 0.3 * args.seconds, rep);
      r = client.results();
    }
    server.shutdown();
  }
  account(r, rep);
  rep.add("serve.rejected", double(r.rejected), "count", true);
  rep.add("serve.backlog_max", double(r.backlog_max), "count", true);
  OpCase c;
  c.unit = "cycle";
  c.cluster = mix.server.cluster;
  c.op = [&mix](sparklet::SparkContext& sc) {
    OpOutcome out;
    for (std::size_t j = 0; j < 3; ++j) {
      out.tables.push_back(serve::solve_now(sc, mix.reqs[j]));
      accumulate(out.profile, out.tables.back()->profile);
    }
    return out;
  };
  c.check = [&mix](const OpOutcome& o) -> std::string {
    for (std::size_t j = 0; j < 3; ++j) {
      if (table_digest(*o.tables[j]) != mix.digests[j]) {
        return "replayed job differs from its setup solve_now table";
      }
    }
    return "";
  };
  run_traced(args, c, 0.7 * args.seconds, rep, r.queue_ms, r.solve_ms);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "apsp-im", "apsp-spill", "ge-cb-fused", "viterbi-fine", "serve-mix"};
  return names;
}

bool is_workload(const std::string& name) {
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

void run_workload(const Args& args, Report& rep) {
  if (args.workload == "serve-mix") {
    if (args.trace) {
      run_serve_traced(args, rep);
    } else {
      run_serve_end_to_end(args, rep);
    }
    return;
  }
  const OpCase c = args.workload == "apsp-im"      ? apsp_case(args, false)
                   : args.workload == "apsp-spill" ? apsp_case(args, true)
                   : args.workload == "ge-cb-fused" ? ge_case(args)
                                                    : viterbi_case(args);
  if (args.trace) {
    rep.add("serve.rejected", 0.0, "count", true);
    rep.add("serve.backlog_max", 0.0, "count", true);
    run_traced(args, c, args.seconds, rep, {}, {});
  } else {
    run_end_to_end(args, c, rep);
  }
}

}  // namespace e2e

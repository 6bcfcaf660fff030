// DP-as-a-service: JobServer admission control, fair scheduling,
// cancellation, resident tables, point queries, and path reconstruction.
// The concurrency tests here also run under TSan and ASan in verify.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "align/align_plan.hpp"
#include "gepspark/solver.hpp"
#include "nested/nested_driver.hpp"
#include "paren/paren_plan.hpp"
#include "serve/job_server.hpp"
#include "serve/pred.hpp"
#include "test_util.hpp"

namespace {

using namespace gs;
using gepspark::SolverOptions;
using serve::JobServer;
using serve::JobStatus;
using serve::ProblemKind;
using serve::ServerConfig;
using serve::SolveRequest;
using testutil::random_input;
using testutil::reference_solution;

constexpr double kInf = std::numeric_limits<double>::infinity();

SolveRequest fw_request(std::size_t n, std::uint64_t seed,
                        const std::string& tenant = "default",
                        std::size_t block = 16) {
  SolveRequest req;
  req.kind = ProblemKind::kFloydWarshall;
  req.tenant = tenant;
  req.matrix = random_input<FloydWarshallSpec>(n, seed);
  req.options.block_size = block;
  return req;
}

ServerConfig config(int contexts, int queue_depth = 64,
                    std::size_t budget = 256ull << 20) {
  ServerConfig cfg;
  cfg.num_contexts = contexts;
  cfg.max_queue_depth = queue_depth;
  cfg.tenant_budget_bytes = budget;
  return cfg;
}

void expect_throws_with(const std::string& needle,
                        const std::function<void()>& fn) {
  try {
    fn();
    FAIL() << "expected gs::ConfigError containing \"" << needle << "\"";
  } catch (const gs::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

void expect_throws_exact(const std::string& golden,
                         const std::function<void()>& fn) {
  try {
    fn();
    FAIL() << "expected gs::ConfigError \"" << golden << "\"";
  } catch (const gs::ConfigError& e) {
    EXPECT_EQ(std::string(e.what()), golden);
  }
}

void wait_for(const std::function<bool()>& pred) {
  for (int i = 0; i < 20000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ASSERT_TRUE(pred()) << "condition not reached within 10s";
}

// ------------------------------------------- options / request validation

TEST(OptionsValidate, RejectsEveryIncoherentCombination) {
  expect_throws_with("block_size must be > 0", [] {
    SolverOptions opt;
    opt.block_size = 0;
    opt.validate();
  });
  expect_throws_with("lookahead must be >= 0 (or -1 for auto)", [] {
    SolverOptions opt;
    opt.lookahead = -2;
    opt.validate();
  });
  expect_throws_with("lookahead > 0 requires the dataflow schedule", [] {
    SolverOptions opt;
    opt.schedule = gepspark::ScheduleMode::kBarrier;
    opt.lookahead = 2;
    opt.validate();
  });
  expect_throws_with("validate_schedule requires the dataflow schedule", [] {
    SolverOptions opt;
    opt.validate_schedule = true;
    opt.validate();
  });
  expect_throws_with("strassen_d requires fused_d", [] {
    SolverOptions opt;
    opt.kernel.strassen_d = true;
    opt.fused_d = false;
    opt.validate();
  });
  expect_throws_with("memory_cap requires a disk-backed storage level", [] {
    SolverOptions opt;
    opt.memory_cap = 1 << 20;
    opt.storage_level = sparklet::StorageLevel::kMemoryOnly;
    opt.validate();
  });
}

// Golden copies of every SolverOptions::validate() message. Clients (the
// job server, the CLI, scripted harnesses) match on these strings; substring
// checks alone would let a reworded or truncated message drift silently.
TEST(OptionsValidate, ErrorMessagesAreExactlyTheDocumentedStrings) {
  expect_throws_exact("block_size must be > 0", [] {
    SolverOptions opt;
    opt.block_size = 0;
    opt.validate();
  });
  expect_throws_exact("num_partitions must be >= 0", [] {
    SolverOptions opt;
    opt.num_partitions = -1;
    opt.validate();
  });
  expect_throws_exact("checkpoint_interval must be >= 0", [] {
    SolverOptions opt;
    opt.checkpoint_interval = -1;
    opt.validate();
  });
  expect_throws_exact("lookahead must be >= 0 (or -1 for auto)", [] {
    SolverOptions opt;
    opt.lookahead = -2;
    opt.validate();
  });
  expect_throws_exact(
      "lookahead > 0 requires the dataflow schedule (the barrier loop cannot "
      "overlap iterations)",
      [] {
        SolverOptions opt;
        opt.schedule = gepspark::ScheduleMode::kBarrier;
        opt.lookahead = 2;
        opt.validate();
      });
  expect_throws_exact("validate_schedule requires the dataflow schedule", [] {
    SolverOptions opt;
    opt.validate_schedule = true;
    opt.validate();
  });
  expect_throws_exact(
      "strassen_d requires fused_d (the Strassen split only exists inside "
      "the batched D backend)",
      [] {
        SolverOptions opt;
        opt.kernel.strassen_d = true;
        opt.fused_d = false;
        opt.validate();
      });
  expect_throws_exact(
      "memory_cap requires a disk-backed storage level (MEMORY_ONLY evicts "
      "under pressure instead of spilling; use memory_and_disk[_ser] or "
      "disk_only)",
      [] {
        SolverOptions opt;
        opt.memory_cap = 1 << 20;
        opt.storage_level = sparklet::StorageLevel::kMemoryOnly;
        opt.validate();
      });
}

TEST(OptionsValidate, AutoLookaheadResolvesPerSchedule) {
  SolverOptions opt;  // default: auto
  EXPECT_EQ(opt.effective_lookahead(), 0);  // barrier never overlaps
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  EXPECT_EQ(opt.effective_lookahead(), 1);  // auto under dataflow
  opt.lookahead = 3;
  EXPECT_EQ(opt.effective_lookahead(), 3);
  opt.validate();  // explicit depth under dataflow is coherent
}

TEST(RequestValidate, RejectsMalformedRequests) {
  expect_throws_with("non-empty square `matrix`", [] {
    SolveRequest req;
    req.kind = ProblemKind::kFloydWarshall;
    req.matrix = Matrix<double>(4, 3, 0.0);
    req.validate();
  });
  expect_throws_with("non-empty square `bool_matrix`", [] {
    SolveRequest req;
    req.kind = ProblemKind::kTransitiveClosure;
    req.validate();
  });
  expect_throws_with("track_predecessors requires the Floyd-Warshall kind", [] {
    SolveRequest req;
    req.kind = ProblemKind::kGaussianElimination;
    req.matrix = Matrix<double>(4, 4, 1.0);
    req.options.track_predecessors = true;
    req.validate();
  });
  expect_throws_with("tenant id must be non-empty", [] {
    SolveRequest req = {};
    req.matrix = Matrix<double>(4, 4, 1.0);
    req.tenant.clear();
    req.validate();
  });
  expect_throws_with(">= 2 matrix-chain dimensions", [] {
    SolveRequest req;
    req.kind = ProblemKind::kParen;
    req.paren_dims = {8.0};
    req.validate();
  });
  expect_throws_with("non-empty sequences", [] {
    SolveRequest req;
    req.kind = ProblemKind::kAlign;
    req.seq_a = "ACGT";
    req.validate();
  });
}

SolveRequest paren_request() {
  SolveRequest req;
  req.kind = ProblemKind::kParen;
  req.paren_dims = {30, 35, 15, 5, 10, 20, 25, 12, 40, 8, 17};
  req.options.block_size = 3;
  req.options.strategy = gepspark::Strategy::kCollectBroadcast;
  return req;
}

SolveRequest align_request() {
  SolveRequest req;
  req.kind = ProblemKind::kAlign;
  req.seq_a = "GATTACAGATTACACCGTAGGCTAGCTAGGATCCA";
  req.seq_b = "GCATGCTAGCTAGGCATTACAGGATC";
  req.align_mode = align::AlignMode::kLocal;
  req.options.block_size = 8;
  return req;
}

/// The one-shot nested_solve a paren/align request stands for.
gepspark::SolveOutcome<double> direct_solve(sparklet::SparkContext& sc,
                                            const SolveRequest& req) {
  const std::size_t b = req.options.block_size;
  if (req.kind == ProblemKind::kParen) {
    return nested::nested_solve(
        sc,
        paren::ParenPlan<paren::MatrixChainSpec>(
            paren::matrix_chain_problem(req.paren_dims), b),
        req.options);
  }
  return nested::nested_solve(
      sc,
      align::AlignPlan({req.seq_a, req.seq_b, req.scoring, req.align_mode}, b),
      req.options);
}

// Paren and align requests run nested_solve, so they get nested_solve's
// option check — and its exact messages — at submit time.
TEST(RequestValidate, WavefrontKindsFailLikeTheDirectSolve) {
  const std::string fused =
      "fused_d applies only to GEP-shaped workloads (the nested wavefronts "
      "have no D phase to batch)";
  const std::string pred = "track_predecessors applies only to the FW spec";
  for (SolveRequest base : {paren_request(), align_request()}) {
    expect_throws_exact(fused, [&] {
      SolveRequest req = base;
      req.options.fused_d = true;
      req.validate();
    });
    expect_throws_exact(pred, [&] {
      SolveRequest req = base;
      req.options.track_predecessors = true;
      req.validate();
    });
    expect_throws_exact("block_size must be > 0", [&] {
      SolveRequest req = base;
      req.options.block_size = 0;
      req.validate();
    });
    // The same message from the one-shot solve.
    sparklet::SparkContext sc(sparklet::ClusterConfig::local(1, 1));
    SolveRequest req = base;
    req.options.fused_d = true;
    expect_throws_exact(fused, [&] { direct_solve(sc, req); });
  }
  expect_throws_exact("gap penalty must be negative", [] {
    SolveRequest req = align_request();
    req.scoring.gap = 1.0;
    req.validate();
  });

  // Rejected at submit(), before any budget is charged.
  JobServer server(config(1));
  SolveRequest bad = paren_request();
  bad.options.fused_d = true;
  EXPECT_THROW(server.submit(bad), gs::ConfigError);
  const auto st = server.stats();
  EXPECT_EQ(st.submitted, 0);
  EXPECT_EQ(st.rejected, 0);
  EXPECT_TRUE(st.tenant_bytes.empty());
}

// ------------------------------------------------------- served == direct

TEST(Serving, ServedTableBitIdenticalToOneShotSolve) {
  auto req = fw_request(64, 901);

  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto direct = gepspark::spark_floyd_warshall(sc, req.matrix, req.options);

  sparklet::SparkContext sc2(sparklet::ClusterConfig::local(2, 2));
  auto now = serve::solve_now(sc2, req);

  JobServer server(config(1));
  auto ticket = server.submit(req);
  EXPECT_EQ(ticket.await(), JobStatus::kDone);
  auto table = server.table(ticket.id());
  ASSERT_NE(table, nullptr);

  EXPECT_TRUE(direct.matrix == now->values);     // one-shot == solve_now
  EXPECT_TRUE(direct.matrix == table->values);   // one-shot == served
  EXPECT_EQ(table->job, ticket.id());
  EXPECT_EQ(table->profile.job_id, ticket.id());
  EXPECT_EQ(table->profile.tenant, "default");
}

TEST(Serving, ServedParenAndAlignEqualDirectSolveWithFullProfiles) {
  JobServer server(config(1));
  for (const SolveRequest& req : {paren_request(), align_request()}) {
    sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
    const Matrix<double> direct = direct_solve(sc, req).matrix;
    auto ticket = server.submit(req);
    ASSERT_EQ(ticket.await(), JobStatus::kDone) << ticket.error();
    auto table = server.table(ticket.id());
    ASSERT_NE(table, nullptr);
    EXPECT_TRUE(table->values == direct)
        << serve::problem_kind_name(req.kind);
    const obs::JobProfile& prof = table->profile;
    EXPECT_GT(prof.virtual_seconds, 0.0);
    EXPECT_GT(prof.tasks, 0);
    EXPECT_NEAR(prof.attributed_fraction(), 1.0, 1e-9);
    EXPECT_EQ(prof.job_id, ticket.id());
  }
  // The resident align table decodes to the reference's answer.
  const SolveRequest req = align_request();
  auto t = server.submit(req);
  ASSERT_EQ(t.await(), JobStatus::kDone);
  const auto hit = align::AlignResult::from_table(server.table(t.id())->values);
  const auto ref =
      align::reference_align(req.seq_a, req.seq_b, req.scoring, req.align_mode);
  EXPECT_EQ(hit.score, ref.score);
  EXPECT_EQ(hit.end_i, ref.end_i);
  EXPECT_EQ(hit.end_j, ref.end_j);
}

TEST(Serving, FourTenantsConcurrentMixedKindsAllCorrect) {
  JobServer server(config(2));
  struct Expect {
    serve::SolveTicket ticket;
    Matrix<double> want;
  };
  std::vector<Expect> jobs;
  for (int t = 0; t < 4; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    if (t % 2 == 0) {
      auto req = fw_request(48, 910 + t, tenant);
      jobs.push_back({server.submit(req),
                      reference_solution<FloydWarshallSpec>(req.matrix)});
    } else {
      SolveRequest req;
      req.kind = ProblemKind::kGaussianElimination;
      req.tenant = tenant;
      req.matrix = random_input<GaussianEliminationSpec>(48, 910 + t);
      req.options.block_size = 16;
      jobs.push_back({server.submit(req),
                      reference_solution<GaussianEliminationSpec>(req.matrix)});
    }
  }
  for (auto& j : jobs) {
    EXPECT_EQ(j.ticket.await(), JobStatus::kDone);
    auto table = server.table(j.ticket.id());
    ASSERT_NE(table, nullptr);
    EXPECT_LE(max_abs_diff(table->values, j.want), 1e-9);
  }
  const auto st = server.stats();
  EXPECT_EQ(st.submitted, 4);
  EXPECT_EQ(st.completed, 4);
  EXPECT_EQ(st.resident_tables, 4u);
  EXPECT_EQ(st.tenant_bytes.size(), 4u);
}

TEST(Serving, RoundRobinInterleavesTenantsFairly) {
  // One worker; park it on a big job, then queue 3 jobs for a flooding
  // tenant and 3 for a light one. RR must alternate A,B,A,B,A,B even though
  // all of A's jobs arrived first.
  JobServer server(config(1, 64, 1ull << 30));
  auto blocker = server.submit(fw_request(256, 920, "blocker", 32));
  wait_for([&] { return blocker.status() != JobStatus::kQueued; });

  std::vector<serve::JobId> a_ids, b_ids;
  for (int i = 0; i < 3; ++i) {
    a_ids.push_back(server.submit(fw_request(32, 921 + i, "tenant-a")).id());
  }
  std::vector<serve::SolveTicket> rest;
  for (int i = 0; i < 3; ++i) {
    auto t = server.submit(fw_request(32, 924 + i, "tenant-b"));
    b_ids.push_back(t.id());
    rest.push_back(t);
  }
  for (auto& t : rest) EXPECT_EQ(t.await(), JobStatus::kDone);
  EXPECT_EQ(blocker.await(), JobStatus::kDone);

  const auto order = server.stats().completion_order;
  ASSERT_EQ(order.size(), 7u);
  EXPECT_EQ(order[0], blocker.id());
  // After the blocker: a, b, a, b, a, b (FIFO within each tenant).
  const std::vector<serve::JobId> want = {a_ids[0], b_ids[0], a_ids[1],
                                          b_ids[1], a_ids[2], b_ids[2]};
  EXPECT_EQ(std::vector<serve::JobId>(order.begin() + 1, order.end()), want);
}

// ------------------------------------------------------ admission control

TEST(Admission, QueueOverflowRejectsWithBackpressure) {
  JobServer server(config(1, 1));
  auto blocker = server.submit(fw_request(128, 930, "big", 32));
  wait_for([&] { return blocker.status() != JobStatus::kQueued; });

  auto queued = server.submit(fw_request(32, 931));  // fills the queue
  try {
    server.submit(fw_request(32, 932));
    FAIL() << "expected CapacityError";
  } catch (const gs::CapacityError& e) {
    EXPECT_NE(std::string(e.what()).find("admission queue full"),
              std::string::npos);
  }
  EXPECT_EQ(blocker.await(), JobStatus::kDone);
  EXPECT_EQ(queued.await(), JobStatus::kDone);
  EXPECT_EQ(server.stats().rejected, 1);
}

TEST(Admission, TenantBudgetIsPerTenantAndRefundedOnEvict) {
  ServerConfig cfg;
  cfg.num_contexts = 1;
  cfg.tenant_budget_bytes = 64 * 64 * sizeof(double) + 512;  // ~one table
  cfg.tenant_budgets["vip"] = 1ull << 30;
  JobServer server(cfg);

  auto t1 = server.submit(fw_request(64, 940, "small"));
  EXPECT_EQ(t1.await(), JobStatus::kDone);
  try {
    server.submit(fw_request(64, 941, "small"));  // second table over budget
    FAIL() << "expected CapacityError";
  } catch (const gs::CapacityError& e) {
    EXPECT_NE(std::string(e.what()).find("over memory budget"),
              std::string::npos);
  }
  // Another tenant is unaffected by small's pressure.
  EXPECT_EQ(server.submit(fw_request(64, 942, "vip")).await(),
            JobStatus::kDone);
  // Evicting small's table refunds the budget; the resubmit is admitted.
  EXPECT_TRUE(server.evict(t1.id()));
  EXPECT_EQ(server.table(t1.id()), nullptr);
  EXPECT_EQ(server.submit(fw_request(64, 941, "small")).await(),
            JobStatus::kDone);
}

// ----------------------------------------------------------- cancellation

TEST(Cancel, QueuedJobIsDroppedAtDequeueWithRefund) {
  JobServer server(config(1));
  auto blocker = server.submit(fw_request(128, 950, "big", 32));
  wait_for([&] { return blocker.status() != JobStatus::kQueued; });

  auto victim = server.submit(fw_request(64, 951, "victim"));
  EXPECT_TRUE(victim.cancel());
  EXPECT_EQ(victim.await(), JobStatus::kCancelled);
  EXPECT_EQ(victim.error(), "cancelled while queued");
  EXPECT_EQ(blocker.await(), JobStatus::kDone);
  const auto st = server.stats();
  EXPECT_EQ(st.cancelled, 1);
  EXPECT_EQ(st.tenant_bytes.at("victim"), 0u);  // charge refunded
}

TEST(Cancel, MidFlightCancelLeavesServerReusable) {
  JobServer server(config(1));
  auto big = server.submit(fw_request(320, 952, "big", 32));
  wait_for([&] { return big.status() != JobStatus::kQueued; });
  big.cancel();
  const JobStatus s = big.await();
  // The solve is fast, so allow the benign race where it finished first;
  // the interesting assertion is that the server keeps working either way.
  EXPECT_TRUE(s == JobStatus::kCancelled || s == JobStatus::kDone);
  if (s == JobStatus::kCancelled) {
    EXPECT_EQ(server.table(big.id()), nullptr);
    EXPECT_EQ(server.stats().tenant_bytes.at("big"), 0u);
  }

  auto after = fw_request(48, 953, "after");
  auto want = reference_solution<FloydWarshallSpec>(after.matrix);
  auto t = server.submit(after);
  EXPECT_EQ(t.await(), JobStatus::kDone);
  EXPECT_LE(max_abs_diff(server.table(t.id())->values, want), 1e-9);
}

TEST(Cancel, CooperativeFlagUnwindsSolveWithoutLeakingBlocks) {
  // Below the server: a pre-set abort flag must stop the solve at its first
  // poll, and RAII must leave the executor store empty for the next job.
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  std::atomic<bool> cancel{true};
  sc.set_cancel_flag(&cancel);
  auto input = random_input<FloydWarshallSpec>(48, 954);
  SolverOptions opt;
  opt.block_size = 16;
  EXPECT_THROW(gepspark::spark_floyd_warshall(sc, input, opt),
               gs::JobCancelledError);
  sc.set_cancel_flag(nullptr);
  EXPECT_EQ(sc.executor_store().num_blocks(), 0u);

  // Same context, flag cleared: solves normally.
  auto got = gepspark::spark_floyd_warshall(sc, input, opt);
  EXPECT_LE(max_abs_diff(got.matrix,
                         reference_solution<FloydWarshallSpec>(input)),
            1e-9);
  EXPECT_EQ(sc.executor_store().num_blocks(), 0u);
}

// -------------------------------------------------- queries + pred tables

TEST(PredTable, DistHalfBitIdenticalToPlainSolveAndPathsCheckOut) {
  const std::size_t n = 64;
  auto adj = random_input<FloydWarshallSpec>(n, 960);
  SolverOptions opt;
  opt.block_size = 16;

  sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
  auto plain = gepspark::spark_floyd_warshall(sc, adj, opt);

  opt.track_predecessors = true;
  SolveRequest req;
  req.kind = ProblemKind::kFloydWarshall;
  req.matrix = adj;
  req.options = opt;
  sparklet::SparkContext sc2(sparklet::ClusterConfig::local(2, 2));
  auto table = serve::solve_now(sc2, req);

  // Tie-keeping in FwPredSpec::update makes the dist half bit-identical.
  EXPECT_TRUE(table->values == plain.matrix);
  ASSERT_TRUE(table->has_pred());

  int reconstructed = 0;
  for (std::size_t u = 0; u < n; u += 7) {
    for (std::size_t v = 0; v < n; v += 5) {
      const double d = table->dist(u, v);
      auto path = table->path(u, v);
      if (u == v || d == kInf) continue;
      ASSERT_FALSE(path.empty()) << u << "->" << v;
      EXPECT_EQ(path.front(), static_cast<std::int64_t>(u));
      EXPECT_EQ(path.back(), static_cast<std::int64_t>(v));
      double total = 0.0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const double w = adj(static_cast<std::size_t>(path[i]),
                             static_cast<std::size_t>(path[i + 1]));
        ASSERT_NE(w, kInf) << "path uses a non-edge";
        total += w;
      }
      EXPECT_NEAR(total, d, 1e-9) << u << "->" << v;
      ++reconstructed;
    }
  }
  EXPECT_GT(reconstructed, 20);  // the graph is connected enough to matter
}

TEST(Queries, ReachabilityAndErrorsBehave) {
  JobServer server(config(1));
  SolveRequest req;
  req.kind = ProblemKind::kTransitiveClosure;
  req.bool_matrix = random_input<TransitiveClosureSpec>(48, 961);
  req.options.block_size = 16;
  auto want = reference_solution<TransitiveClosureSpec>(req.bool_matrix);
  auto t = server.submit(req);
  EXPECT_EQ(t.await(), JobStatus::kDone);
  for (std::size_t u = 0; u < 48; u += 5) {
    for (std::size_t v = 0; v < 48; v += 7) {
      EXPECT_EQ(server.query_reachable(t.id(), u, v), want(u, v) != 0);
    }
  }
  EXPECT_THROW(server.query_dist(t.id(), 0, 1), gs::ConfigError);
  EXPECT_THROW(server.query_dist(9999, 0, 1), gs::ConfigError);
  EXPECT_THROW(server.query_path(t.id(), 0, 1), gs::ConfigError);
}

TEST(Queries, PointQueriesRaceSolvesSafely) {
  // Reads against a resident table while other jobs run and finish — the
  // TSan tree proves the registry/table handoff is properly synchronized.
  JobServer server(config(2));
  auto base = fw_request(48, 962, "reader");
  auto want = reference_solution<FloydWarshallSpec>(base.matrix);
  auto t = server.submit(base);
  ASSERT_EQ(t.await(), JobStatus::kDone);

  std::atomic<bool> mismatch{false};
  std::thread reader([&] {
    for (int round = 0; round < 200; ++round) {
      for (std::size_t u = 0; u < 48; u += 11) {
        for (std::size_t v = 0; v < 48; v += 13) {
          if (server.query_dist(t.id(), u, v) != want(u, v)) {
            mismatch.store(true);
          }
        }
      }
    }
  });
  std::vector<serve::SolveTicket> writers;
  for (int i = 0; i < 4; ++i) {
    writers.push_back(server.submit(fw_request(48, 963 + i, "writer")));
  }
  for (auto& w : writers) EXPECT_EQ(w.await(), JobStatus::kDone);
  reader.join();
  EXPECT_FALSE(mismatch.load());
}

TEST(Shutdown, DrainsQueueAndRejectsNewWorkButServesQueries) {
  auto req = fw_request(48, 970);
  auto want = reference_solution<FloydWarshallSpec>(req.matrix);
  JobServer server(config(1));
  auto t1 = server.submit(req);
  auto t2 = server.submit(fw_request(48, 971));
  server.shutdown();
  EXPECT_EQ(t1.status(), JobStatus::kDone);  // graceful: queue drained
  EXPECT_EQ(t2.status(), JobStatus::kDone);
  EXPECT_THROW(server.submit(fw_request(16, 972)), gs::ConfigError);
  EXPECT_LE(max_abs_diff(server.table(t1.id())->values, want), 1e-9);
  server.shutdown();  // idempotent
}

}  // namespace

// job_server.cpp — JobServer scheduling, admission, and job execution.
#include "serve/job_server.hpp"

#include <algorithm>

#include "align/align_plan.hpp"
#include "gepspark/solver.hpp"
#include "nested/nested_driver.hpp"
#include "paren/paren_plan.hpp"
#include "serve/pred.hpp"
#include "support/format.hpp"

namespace serve {

namespace {

/// The single execution path shared by the worker threads and solve_now():
/// every kind lands in the same drivers the one-shot entry points use, so a
/// served table is bit-identical to a direct solve with the same options.
std::shared_ptr<ResidentTable> execute_request(sparklet::SparkContext& sc,
                                               const SolveRequest& req) {
  auto out = std::make_shared<ResidentTable>();
  out->kind = req.kind;
  out->tenant = req.tenant;
  auto solve_plan = [&](const auto& plan) {
    auto r = nested::nested_solve(sc, plan, req.options);
    out->values = std::move(r.matrix);
    out->profile = std::move(r.profile);
  };
  switch (req.kind) {
    case ProblemKind::kFloydWarshall: {
      if (req.options.track_predecessors) {
        auto r = gepspark::solve_gep<FwPredSpec>(sc, make_pred_input(req.matrix),
                                                 req.options);
        split_pred_table(r.matrix, &out->values, &out->pred);
        out->profile = std::move(r.profile);
      } else {
        auto r = gepspark::spark_floyd_warshall(sc, req.matrix, req.options);
        out->values = std::move(r.matrix);
        out->profile = std::move(r.profile);
      }
      break;
    }
    case ProblemKind::kGaussianElimination: {
      auto r = gepspark::spark_gaussian_elimination(sc, req.matrix, req.options);
      out->values = std::move(r.matrix);
      out->profile = std::move(r.profile);
      break;
    }
    case ProblemKind::kWidestPath: {
      auto r = gepspark::spark_widest_path(sc, req.matrix, req.options);
      out->values = std::move(r.matrix);
      out->profile = std::move(r.profile);
      break;
    }
    case ProblemKind::kTransitiveClosure: {
      auto r = gepspark::spark_transitive_closure(sc, req.bool_matrix,
                                                  req.options);
      out->bools = std::move(r.matrix);
      out->profile = std::move(r.profile);
      break;
    }
    case ProblemKind::kParen:
      solve_plan(paren::ParenPlan<paren::MatrixChainSpec>(
          paren::matrix_chain_problem(req.paren_dims), req.options.block_size));
      break;
    case ProblemKind::kAlign:
      solve_plan(align::AlignPlan(
          {req.seq_a, req.seq_b, req.scoring, req.align_mode},
          req.options.block_size));
      break;
  }
  return out;
}

}  // namespace

std::shared_ptr<const ResidentTable> solve_now(sparklet::SparkContext& sc,
                                               const SolveRequest& req) {
  req.validate();
  return execute_request(sc, req);
}

JobServer::JobServer(ServerConfig cfg) : cfg_(std::move(cfg)) {
  GS_THROW_IF(cfg_.num_contexts <= 0, gs::ConfigError,
              "num_contexts must be > 0");
  GS_THROW_IF(cfg_.max_queue_depth <= 0, gs::ConfigError,
              "max_queue_depth must be > 0");
  contexts_.reserve(static_cast<std::size_t>(cfg_.num_contexts));
  for (int i = 0; i < cfg_.num_contexts; ++i) {
    contexts_.push_back(std::make_unique<sparklet::SparkContext>(cfg_.cluster));
  }
  workers_.reserve(contexts_.size());
  for (int i = 0; i < cfg_.num_contexts; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

JobServer::~JobServer() { shutdown(); }

std::size_t JobServer::tenant_budget(const std::string& tenant) const {
  auto it = cfg_.tenant_budgets.find(tenant);
  return it != cfg_.tenant_budgets.end() ? it->second
                                         : cfg_.tenant_budget_bytes;
}

SolveTicket JobServer::submit(SolveRequest req) {
  req.validate();  // shape/option errors surface before any accounting
  const std::size_t charge = req.estimated_table_bytes();
  auto state = std::make_shared<detail::JobState>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    GS_THROW_IF(stop_, gs::ConfigError, "job server is shut down");
    if (queued_ >= cfg_.max_queue_depth) {
      ++rejected_;
      throw gs::CapacityError(
          gs::strfmt("admission queue full: %d jobs queued (cap %d) — retry "
                     "after the backlog drains",
                     queued_, cfg_.max_queue_depth));
    }
    const std::size_t budget = tenant_budget(req.tenant);
    const std::size_t held = tenant_bytes_[req.tenant];
    if (held + charge > budget) {
      ++rejected_;
      throw gs::CapacityError(gs::strfmt(
          "tenant '%s' over memory budget: %zu B held + %zu B requested > "
          "%zu B budget — evict resident tables or raise the budget",
          req.tenant.c_str(), held, charge, budget));
    }
    state->id = next_job_++;
    state->tenant = req.tenant;
    state->kind = req.kind;
    state->charge = charge;
    tenant_bytes_[req.tenant] = held + charge;
    if (std::find(tenant_ring_.begin(), tenant_ring_.end(), req.tenant) ==
        tenant_ring_.end()) {
      tenant_ring_.push_back(req.tenant);
    }
    queues_[req.tenant].push_back(Pending{state, std::move(req)});
    ++queued_;
    ++submitted_;
  }
  work_cv_.notify_one();
  return SolveTicket(state);
}

void JobServer::finish(const std::shared_ptr<detail::JobState>& state,
                       JobStatus status, std::string error) {
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->error = std::move(error);
    state->status.store(status, std::memory_order_release);
  }
  state->cv.notify_all();
}

void JobServer::worker_loop(int slot) {
  sparklet::SparkContext& sc = *contexts_[static_cast<std::size_t>(slot)];
  for (;;) {
    Pending job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || queued_ > 0; });
      if (queued_ == 0) {
        if (stop_) return;
        continue;  // spurious / raced wakeup
      }
      // Fair round-robin: walk the tenant ring from the cursor to the first
      // non-empty queue, take its head, park the cursor after that tenant.
      const std::size_t nt = tenant_ring_.size();
      std::size_t chosen = nt;
      for (std::size_t off = 0; off < nt; ++off) {
        const std::size_t idx = (rr_cursor_ + off) % nt;
        auto it = queues_.find(tenant_ring_[idx]);
        if (it != queues_.end() && !it->second.empty()) {
          chosen = idx;
          break;
        }
      }
      GS_CHECK_MSG(chosen < nt, "queued_ > 0 but every tenant queue empty");
      auto& q = queues_[tenant_ring_[chosen]];
      job = std::move(q.front());
      q.pop_front();
      rr_cursor_ = (chosen + 1) % nt;
      --queued_;
      if (job.state->cancel.load(std::memory_order_acquire)) {
        // Cancelled while queued: refund the admission charge, never run.
        auto& held = tenant_bytes_[job.state->tenant];
        held = held >= job.state->charge ? held - job.state->charge : 0;
        job.state->charge = 0;
        ++cancelled_;
        completion_order_.push_back(job.state->id);
        lock.unlock();
        finish(job.state, JobStatus::kCancelled, "cancelled while queued");
        continue;
      }
      job.state->status.store(JobStatus::kRunning, std::memory_order_release);
      ++running_;
    }

    std::shared_ptr<ResidentTable> result;
    std::string error;
    JobStatus final_status = JobStatus::kDone;
    // The ticket's abort flag becomes this context's cancel flag for the
    // duration of the solve; sparklet polls it at task-release points.
    sc.set_cancel_flag(&job.state->cancel);
    try {
      result = execute_request(sc, job.req);
    } catch (const gs::JobCancelledError&) {
      final_status = JobStatus::kCancelled;
    } catch (const std::exception& e) {
      final_status = JobStatus::kFailed;
      error = e.what();
    }
    sc.set_cancel_flag(nullptr);

    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      auto& held = tenant_bytes_[job.state->tenant];
      if (final_status == JobStatus::kDone) {
        result->job = job.state->id;
        result->tenant = job.state->tenant;
        result->profile.tenant = job.state->tenant;
        result->profile.job_id = job.state->id;
        // True-up: replace the admission estimate with the real footprint.
        const std::size_t real = result->bytes();
        held = held >= job.state->charge ? held - job.state->charge : 0;
        held += real;
        job.state->charge = real;
        registry_[job.state->id] =
            std::shared_ptr<const ResidentTable>(std::move(result));
        ++completed_;
      } else {
        held = held >= job.state->charge ? held - job.state->charge : 0;
        job.state->charge = 0;
        if (final_status == JobStatus::kCancelled) {
          ++cancelled_;
        } else {
          ++failed_;
        }
      }
      completion_order_.push_back(job.state->id);
    }
    finish(job.state, final_status, std::move(error));
  }
}

std::shared_ptr<const ResidentTable> JobServer::table(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = registry_.find(id);
  return it != registry_.end() ? it->second : nullptr;
}

double JobServer::query_dist(JobId id, std::size_t u, std::size_t v) const {
  auto t = table(id);
  GS_THROW_IF(t == nullptr, gs::ConfigError,
              gs::strfmt("no resident table for job %lld",
                         static_cast<long long>(id)));
  return t->dist(u, v);
}

bool JobServer::query_reachable(JobId id, std::size_t u, std::size_t v) const {
  auto t = table(id);
  GS_THROW_IF(t == nullptr, gs::ConfigError,
              gs::strfmt("no resident table for job %lld",
                         static_cast<long long>(id)));
  return t->reachable(u, v);
}

std::vector<std::int64_t> JobServer::query_path(JobId id, std::size_t u,
                                                std::size_t v) const {
  auto t = table(id);
  GS_THROW_IF(t == nullptr, gs::ConfigError,
              gs::strfmt("no resident table for job %lld",
                         static_cast<long long>(id)));
  return t->path(u, v);
}

bool JobServer::evict(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = registry_.find(id);
  if (it == registry_.end()) return false;
  auto& held = tenant_bytes_[it->second->tenant];
  const std::size_t b = it->second->bytes();
  held = held >= b ? held - b : 0;
  registry_.erase(it);
  return true;
}

ServerStats JobServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.cancelled = cancelled_;
  s.failed = failed_;
  s.rejected = rejected_;
  s.queued = queued_;
  s.running = running_;
  s.resident_tables = registry_.size();
  for (const auto& [id, t] : registry_) s.resident_bytes += t->bytes();
  s.tenant_bytes = tenant_bytes_;
  s.completion_order = completion_order_;
  return s;
}

void JobServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

}  // namespace serve

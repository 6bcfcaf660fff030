#include "sparklet/context.hpp"

#include <algorithm>
#include <condition_variable>
#include <iterator>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "analysis/hb_detector.hpp"
#include "support/format.hpp"
#include "support/stopwatch.hpp"

namespace sparklet {

RddBase::RddBase(SparkContext* ctx, std::string label, int num_partitions,
                 bool wide_input, std::vector<std::shared_ptr<RddBase>> parents,
                 PartitionerPtr partitioner)
    : ctx_(ctx),
      id_(ctx->next_rdd_id()),
      label_(std::move(label)),
      num_partitions_(num_partitions),
      wide_input_(wide_input),
      parents_(std::move(parents)),
      partitioner_(std::move(partitioner)) {
  GS_THROW_IF(num_partitions_ < 1, gs::ConfigError,
              "RDD needs at least one partition: " + label_);
  ctx_->register_rdd(this);
}

RddBase::~RddBase() {
  if (ctx_ != nullptr) ctx_->forget_rdd(this);
}

namespace {
// The physical pool backing virtual executors. Oversubscribing a small host
// with hundreds of threads helps nothing, so cap it; virtual-cluster shape
// is handled by VirtualTimeline, not by physical threads.
std::size_t physical_pool_size(const ClusterConfig& cfg) {
  if (cfg.physical_threads > 0) {
    return static_cast<std::size_t>(cfg.physical_threads);
  }
  const std::size_t want = static_cast<std::size_t>(cfg.num_executors()) *
                           static_cast<std::size_t>(cfg.executor_cores);
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(want, 1, std::max<std::size_t>(hw * 2, 4));
}

// The executor store models cached-partition residency, not disk I/O: the
// interesting outputs are its block inventory (what an executor kill loses)
// and its eviction decisions, so transfers run at memory speed.
DiskSpec executor_mem_spec(const ClusterConfig& cfg) {
  DiskSpec d;
  d.read_Bps = 30.0e9;
  d.write_Bps = 30.0e9;
  d.seek_s = 0.0;
  d.capacity_bytes = cfg.executor_mem_bytes;
  d.kind = "mem";
  return d;
}
}  // namespace

SparkContext::SparkContext(ClusterConfig cfg)
    : cfg_(std::move(cfg)),
      timeline_(cfg_.num_executors(), cfg_.executor_cores),
      local_disks_(cfg_.local_disk, cfg_.num_nodes),
      shared_fs_(cfg_.shared_fs, 1),
      executor_store_(executor_mem_spec(cfg_), cfg_.num_executors()),
      pool_(physical_pool_size(cfg_)),
      spill_store_(cfg_.spill_dir) {
  cfg_.validate();
  node_spill_factor_.assign(static_cast<std::size_t>(cfg_.num_nodes), 1.0);
  // Driver-side spans stamp the virtual clock; safe because only the driver
  // thread advances it.
  tracer_.set_virtual_clock([this] { return timeline_.now(); });
  // Under memory pressure, evict only blocks outside the running job's
  // lineage whose owners can recompute them.
  executor_store_.set_eviction_filter([this](const BlockId& b) {
    if (protected_rdds_.count(b.rdd) != 0) return false;
    auto it = live_rdds_.find(b.rdd);
    return it == live_rdds_.end() || it->second->recomputable();
  });
  executor_store_.set_evict_hook(
      [this](const BlockId& b) { on_block_evicted(b); });
  // Tier ladder delegates: encode/restore/release route to the owning RDD
  // node (or a registered BlockSource); the disk tier lands in spill_store_.
  BlockStore::TierHooks th;
  th.encode = [this](const BlockId& id) { return source_encode(id); };
  th.restore = [this](const BlockId& id,
                      const std::vector<std::uint8_t>& payload) {
    return source_restore(id, payload);
  };
  th.release = [this](const BlockId& id) { source_release(id); };
  th.spill_write = [this](const BlockId& id, int node,
                          const std::vector<std::uint8_t>& payload) {
    return spill_write(id, node, payload);
  };
  th.spill_read = [this](const BlockId& id, int node) {
    return spill_read(id, node);
  };
  th.spill_remove = [this](const BlockId& id, int node) {
    spill_store_.remove(id, node);
  };
  th.spill_node_of = [this](int executor) { return node_of_executor(executor); };
  th.observer = [this](const StorageEvent& ev) { on_storage_event(ev); };
  executor_store_.set_tier_hooks(std::move(th));
}

SparkContext::~SparkContext() = default;

PartitionerPtr SparkContext::default_partitioner() const {
  return std::make_shared<HashPartitioner>(
      static_cast<int>(cfg_.effective_partitions()));
}

int SparkContext::current_stage_id() const {
  return current_stage_ != nullptr ? current_stage_->stage_id : -1;
}

void SparkContext::set_chaos_plan(const ChaosPlan& plan) {
  chaos_ = plan;
  executor_kills_done_ = 0;
  block_corruptions_done_ = 0;
  spill_corruptions_done_ = 0;
  torn_writes_done_ = 0;
  {
    std::lock_guard<std::mutex> lock(storage_mu_);
    spill_attempts_.clear();
  }
  // Node-level disk faults are decided once per plan (pure in seed + node),
  // so every spill on a node sees the same device for the whole run.
  spill_store_.clear_enospc();
  node_spill_factor_.assign(static_cast<std::size_t>(cfg_.num_nodes), 1.0);
  int full_nodes = 0;
  for (int node = 0; node < cfg_.num_nodes; ++node) {
    if (chaos_.enospc_prob > 0.0 && full_nodes < chaos_.max_enospc_nodes) {
      gs::Rng rng(chaos_event_seed(chaos_.seed, kChaosEnospc,
                                   static_cast<std::uint64_t>(node), 0, 0));
      if (rng.bernoulli(chaos_.enospc_prob)) {
        spill_store_.set_enospc(node, true);
        ++full_nodes;
      }
    }
    if (chaos_.slow_spill_prob > 0.0) {
      gs::Rng rng(chaos_event_seed(chaos_.seed, kChaosSlowSpill,
                                   static_cast<std::uint64_t>(node), 0, 0));
      if (rng.bernoulli(chaos_.slow_spill_prob)) {
        node_spill_factor_[static_cast<std::size_t>(node)] =
            chaos_.slow_spill_factor;
      }
    }
  }
}

void SparkContext::set_race_detector(analysis::HbDetector* detector) {
#ifdef GS_ANALYSIS_DISABLED
  (void)detector;
#else
  race_detector_ = detector;
  for (BlockStore* store : {&executor_store_, &shared_fs_}) {
    if (detector != nullptr) {
      store->set_access_observer([detector](const BlockId& id, bool is_write) {
        const std::uint64_t loc = analysis::HbDetector::block_location(id);
        if (is_write) {
          detector->on_write(loc, "block");
        } else {
          detector->on_read(loc, "block");
        }
      });
    } else {
      store->set_access_observer(nullptr);
    }
  }
  if (detector != nullptr) detector->set_tracer(&tracer_);
#endif
}

void SparkContext::register_rdd(RddBase* node) {
  GS_DCHECK(!task_set_in_flight_);
  live_rdds_[node->id()] = node;
}

void SparkContext::forget_rdd(RddBase* node) {
  GS_DCHECK(!task_set_in_flight_);
  auto it = live_rdds_.find(node->id());
  if (it != live_rdds_.end() && it->second == node) live_rdds_.erase(it);
  executor_store_.remove_rdd_blocks(node->id());
  shared_fs_.remove_rdd_blocks(node->id());
}

void SparkContext::on_block_evicted(const BlockId& id) {
  metrics_.note_eviction();
  auto it = live_rdds_.find(id.rdd);
  if (it == live_rdds_.end()) return;
  RddBase* nd = it->second;
  if (nd->materialized() && !nd->checkpointed() &&
      nd->partition_available(id.partition)) {
    nd->drop_partition(id.partition);
    metrics_.note_partitions_dropped(1);
  }
}

void SparkContext::register_node_blocks(RddBase& node) {
  if (node.checkpointed()) return;
  for (int p = 0; p < node.num_partitions(); ++p) {
    if (!node.partition_available(p)) continue;
    try {
      executor_store_.put_block(executor_of(p), {node.id(), p},
                                node.partition_bytes(p),
                                node.partition_checksum(p), /*pinned=*/false,
                                node.storage_level());
    } catch (const gs::CapacityError&) {
      // Even after demoting down the tier ladder and evicting every
      // unprotected block the executor is full — the running job's own
      // working set exceeds memory. Degrade instead of failing: the
      // partition simply goes untracked by the cache model (Spark's
      // MEMORY_ONLY drops what doesn't fit and recomputes later).
    }
  }
  flush_storage_charges();
}

void SparkContext::drop_executor_blocks(int executor,
                                        const RddBase* running_node) {
  int dropped = 0;
  for (const BlockId& b : executor_store_.blocks_on(executor)) {
    if (running_node != nullptr && b.rdd == running_node->id()) continue;
    if (executor_store_.block_tier(b) == StorageTier::kDisk) {
      // The spill file lives in a per-physical-node directory and survives
      // the executor (like Spark's external shuffle service). Only a
      // transient in-memory copy is lost; the next reader restores from disk.
      auto it = live_rdds_.find(b.rdd);
      if (it != live_rdds_.end()) {
        if (it->second->materialized() && !it->second->checkpointed() &&
            it->second->partition_available(b.partition)) {
          it->second->drop_partition(b.partition);
        }
      } else {
        // Block-source blocks (dataflow carried tiles) lose their transient
        // copy the same way; the owner heals via readback or recompute.
        auto s = block_sources_.find(b.rdd);
        if (s != block_sources_.end()) s->second->release_block(b);
      }
      continue;
    }
    auto it = live_rdds_.find(b.rdd);
    if (it != live_rdds_.end()) {
      RddBase* nd = it->second;
      if (nd->materialized() && !nd->checkpointed() &&
          nd->partition_available(b.partition)) {
        nd->drop_partition(b.partition);
        ++dropped;
      }
    }
    executor_store_.remove_block(b);
  }
  if (dropped > 0) metrics_.note_partitions_dropped(dropped);
}

std::vector<RddBase*> SparkContext::lineage_order(RddBase& root,
                                                  bool unmaterialized_only) {
  // Iterative post-order DFS: lineages can be thousands of nodes deep after
  // many driver iterations, and recursion would overflow.
  std::vector<RddBase*> order;
  std::unordered_set<RddBase*> visited{&root};
  struct Frame {
    RddBase* node;
    std::size_t next_parent;
  };
  std::vector<Frame> frames{{&root, 0}};
  while (!frames.empty()) {
    Frame& f = frames.back();
    if (f.next_parent < f.node->parents().size()) {
      RddBase* parent = f.node->parents()[f.next_parent++].get();
      if (parent != nullptr &&
          !(unmaterialized_only && parent->materialized()) &&
          visited.insert(parent).second) {
        frames.push_back({parent, 0});
      }
    } else {
      order.push_back(f.node);
      frames.pop_back();
    }
  }
  return order;
}

void SparkContext::ensure_lineage_available(RddBase& node) {
  // ALL ancestors, materialized ones included (they may have lost
  // partitions to a kill or an eviction), parents before children so
  // recomputation always finds its inputs.
  std::vector<RddBase*> order =
      lineage_order(node, /*unmaterialized_only=*/false);
  order.pop_back();  // `node` itself
  for (RddBase* a : order) {
    if (a->materialized() && recompute_lost(*a) > 0) register_node_blocks(*a);
  }
}

int SparkContext::recompute_lost(RddBase& node) {
  RecoveringGuard guard(this);
  const int k = node.recompute_missing();
  if (k > 0) metrics_.note_partitions_recomputed(k);
  return k;
}

void SparkContext::materialize_with_recovery(RddBase& node) {
  const int max_attempts = std::max(1, chaos_.max_stage_attempts);
  for (int attempt = 1;; ++attempt) {
    try {
      ensure_lineage_available(node);
      if (!node.materialized()) {
        node.do_materialize();
      } else {
        recompute_lost(node);
      }
      register_node_blocks(node);
      return;
    } catch (const gs::FetchFailedError& e) {
      // Lost shuffle/cache input: resubmit after regenerating the parent
      // outputs via lineage (ensure_lineage_available on the next spin),
      // with exponential backoff — Spark's FetchFailed handling.
      metrics_.note_stage_resubmission();
      timeline_.add_marker("stage-resubmit");
      if (attempt >= max_attempts) {
        throw gs::JobAbortedError(
            gs::strfmt("stage for RDD %d (%s) failed %d attempts: %s",
                       node.id(), node.label().c_str(), attempt, e.what()));
      }
      timeline_.add_serial(
          "stage-retry-backoff",
          cfg_.stage_overhead_s * static_cast<double>(1u << (attempt - 1)),
          TimeCategory::kRecovery);
    }
  }
}

void SparkContext::check_cancelled(const char* where) const {
  if (cancel_requested()) {
    throw gs::JobCancelledError(
        gs::strfmt("job cancelled (checked at %s)", where));
  }
}

void SparkContext::run_job(const std::shared_ptr<RddBase>& target,
                           const std::string& action_name) {
  GS_CHECK(target != nullptr);
  check_cancelled("run_job");

  // Shield the job's full lineage from memory-pressure eviction while it
  // runs; anything outside it is fair game (and recomputable on demand).
  struct ProtectGuard {
    SparkContext* c;
    ~ProtectGuard() { c->protected_rdds_.clear(); }
  } protect_guard{this};
  protected_rdds_.clear();
  for (RddBase* n : lineage_order(*target, /*unmaterialized_only=*/false)) {
    protected_rdds_.insert(n->id());
  }

  if (target->materialized()) {
    // Result cached — but partitions may have been lost to an executor kill
    // or an eviction since; restore them before the action reads the data.
    materialize_with_recovery(*target);
    return;
  }

  // 1. Topological order over unmaterialized ancestors.
  const std::vector<RddBase*> order =
      lineage_order(*target, /*unmaterialized_only=*/true);

  // 2. Stage assignment: stage(node) = max(parent stages) + (wide ? 1 : 0).
  std::unordered_map<RddBase*, int> stage_of;
  int max_stage = 0;
  for (RddBase* n : order) {
    int s = 0;
    for (const auto& p : n->parents()) {
      auto it = stage_of.find(p.get());
      if (it != stage_of.end()) s = std::max(s, it->second);
    }
    if (n->wide_input()) s += 1;
    stage_of[n] = s;
    max_stage = std::max(max_stage, s);
  }

  // 3. Execute stages in order, recovering lost inputs as they surface.
  gs::Stopwatch job_sw;
  int stages_run = 0;
  for (int s = 0; s <= max_stage; ++s) {
    check_cancelled("stage-boundary");
    std::vector<RddBase*> nodes;
    for (RddBase* n : order) {
      if (stage_of[n] == s) nodes.push_back(n);
    }
    if (nodes.empty()) continue;

    StageMetric sm;
    sm.stage_id = next_stage_id_++;
    sm.name = nodes.back()->label();
    sm.shuffle_input = std::any_of(nodes.begin(), nodes.end(),
                                   [](RddBase* n) { return n->wide_input(); });
    current_stage_ = &sm;
    obs::ScopedSpan stage_span(&tracer_, obs::SpanLevel::kStage, sm.name,
                               sm.stage_id);
    // Scheduler latency rides in the compute bucket: it is per-stage DAG
    // bookkeeping, inseparable from running the stage.
    timeline_.add_serial(gs::strfmt("stage-%d-overhead", sm.stage_id),
                         cfg_.stage_overhead_s);
    gs::Stopwatch stage_sw;
    try {
      for (RddBase* n : nodes) materialize_with_recovery(*n);
    } catch (...) {
      current_stage_ = nullptr;
      throw;
    }
    sm.wall_s = stage_sw.seconds();
    RddBase* final_node = nodes.back();
    sm.num_tasks = final_node->num_partitions();
    for (int p = 0; p < final_node->num_partitions(); ++p) {
      sm.records_out += final_node->partition_items(p);
    }
    current_stage_ = nullptr;
    metrics_.add_stage(sm);
    ++stages_run;
  }

  metrics_.add_job({next_job_id_++, action_name, job_sw.seconds(), stages_run});
}

void SparkContext::run_node_tasks(RddBase& node,
                                  const std::function<void(int)>& body) {
  std::vector<int> parts(static_cast<std::size_t>(node.num_partitions()));
  for (std::size_t i = 0; i < parts.size(); ++i) parts[i] = static_cast<int>(i);
  run_tasks_internal(node, parts, body, recovering_);
}

void SparkContext::run_recovery_tasks(RddBase& node,
                                      const std::vector<int>& parts,
                                      const std::function<void(int)>& body) {
  RecoveringGuard guard(this);
  run_tasks_internal(node, parts, body, /*recovery=*/true);
}

/// One task of a task set: the caller fills in key, executor and transfer
/// (a transfer's modeled cost goes in slot_s), the runner the rest.
struct SparkContext::SetTask {
  int key = 0;  ///< chaos key, body argument, TaskMetric::partition
  int executor = 0;  ///< home executor; the runner reroutes it off a kill
  bool transfer = false;  ///< modeled data movement: exempt from chaos
  int attempt = 1;
  bool straggler = false;
  double body_s = 0.0;  ///< measured wall time of the successful attempt
  double slot_s = 0.0;  ///< virtual slot time after straggler/speculation
  int lost_executor = -1;  ///< killed executor whose lanes hold lost work
  double lost_s = 0.0;
  int copy_executor = -1;  ///< executor of the speculative copy, -1: none
  double copy_s = 0.0;
};

/// What a task set runs under. Barrier stages key chaos on (rdd id, run
/// epoch) and launch with parallel_for; task graphs key it on (graph id,
/// 0) and launch through the ready queue or the scheduler hook.
struct SparkContext::TaskSetScope {
  std::uint64_t id = 0;
  std::uint64_t epoch = 0;
  bool recovery = false;  ///< lineage recompute: task failures only
  int stage_id = -1;      ///< TaskMetric::stage_id
  const RddBase* node = nullptr;  ///< barrier stage: labels, output records
  const std::string* graph_name = nullptr;  ///< task graph: name + specs
  const std::vector<DataflowTaskSpec>* graph = nullptr;
};

struct SparkContext::TaskSetRun {
  int kill_victim = -1;
  int compute_tasks = 0;
  std::vector<int> completion_order;  ///< task graphs only
};

SparkContext::TaskSetRun SparkContext::run_task_set(
    const TaskSetScope& scope, std::vector<SetTask>& tasks,
    const std::function<void(int)>& body,
    const std::function<void(const TaskSetRun&)>& place) {
  const int num_exec = cfg_.num_executors();
  const bool inject = !scope.recovery;  // recompute runs: task failures only
  TaskSetRun run;

  // --- Executor-kill decision (driver-side, budgeted, deterministic), made
  // before any body runs.
  double kill_fraction = 0.0;
  if (inject && chaos_.executor_kill_prob > 0.0 && num_exec > 1 &&
      executor_kills_done_ < chaos_.max_executor_kills) {
    gs::Rng rng(
        chaos_event_seed(chaos_.seed, kChaosKill, scope.id, scope.epoch, 0));
    if (rng.bernoulli(chaos_.executor_kill_prob)) {
      gs::Rng where(chaos_event_seed(chaos_.seed, kChaosKillPlace, scope.id,
                                     scope.epoch, 0));
      run.kill_victim = static_cast<int>(
          where.uniform_u64(static_cast<std::uint64_t>(num_exec)));
      // How far the victim's in-flight tasks got before it died — that work
      // is lost and shows up as dead spans on its timeline lanes.
      kill_fraction = where.uniform(0.2, 0.9);
      ++executor_kills_done_;
    }
  }

  // --- Execute the (pure) task bodies with same-task retry on injected
  // failures. Seeds depend only on (seed, id, key, epoch, attempt) — never
  // on which pool thread picked the task up.
  const char* const kind = scope.graph != nullptr ? "graph" : "RDD";
  analysis::HbDetector* const detector =
      scope.graph != nullptr ? race_detector() : nullptr;
  auto run_one = [&](std::size_t i) {
    SetTask& t = tasks[i];
    const std::string& label =
        scope.graph != nullptr ? (*scope.graph)[i].label : scope.node->label();
    // Wall-clock-only span on the pool thread; parents to the open stage
    // span via the tracer's cross-thread hint.
    obs::ScopedSpan task_span(&tracer_, obs::SpanLevel::kTask, label, t.key);
    // Cooperative cancellation: polled at every task release, so a cancel
    // lands within one task's latency.
    check_cancelled("task-release");
    // Vector-clock attribution (graphs): joins dependency clocks and routes
    // instrumented accesses on this thread to the task.
    analysis::HbDetector::TaskScope hb_scope(detector, t.key);
    gs::Stopwatch sw;
    for (int attempt = 1;; ++attempt) {
      if (!t.transfer && chaos_.task_failure_prob > 0.0) {
        gs::Rng rng(chaos_event_seed(
            chaos_.seed, kChaosTask, scope.id,
            static_cast<std::uint64_t>(t.key),
            (scope.epoch << 32) | static_cast<std::uint64_t>(attempt)));
        if (rng.bernoulli(chaos_.task_failure_prob)) {
          injected_failures_.fetch_add(1);
          metrics_.note_task_failure();
          if (attempt >= chaos_.max_task_attempts) {
            throw gs::JobAbortedError(
                gs::strfmt("task %d of %s %llu (%s) failed %d times — "
                           "aborting job",
                           t.key, kind,
                           static_cast<unsigned long long>(scope.id),
                           label.c_str(), attempt));
          }
          metrics_.note_task_retry();
          continue;  // same-task retry
        }
      }
      body(t.key);
      t.attempt = attempt;
      break;
    }
    t.body_s = sw.seconds();
  };
  {
    // One set in flight per context: a graph's helping wait drains the
    // whole pool queue, and the tier hooks read driver-side maps unlocked.
    GS_DCHECK(!task_set_in_flight_);
    task_set_in_flight_ = true;
    struct InFlight {
      bool& flag;
      ~InFlight() { flag = false; }
    } in_flight{task_set_in_flight_};
    if (scope.graph != nullptr) {
      run.completion_order =
          launch_graph(*scope.graph_name, *scope.graph, run_one);
    } else {
      gs::parallel_for(pool_, tasks.size(), run_one);
    }
  }

  // --- Virtual replay (driver-side, deterministic). Transfers keep their
  // modeled slot; a compute task's slot is body + per-task overhead, and a
  // straggler is slow end to end (dispatch, fetch, compute), so its factor
  // stretches the whole slot.
  for (SetTask& t : tasks) {
    if (t.transfer) continue;
    ++run.compute_tasks;
    if (inject && chaos_.straggler_prob > 0.0) {
      gs::Rng rng(chaos_event_seed(chaos_.seed, kChaosStraggler, scope.id,
                                   static_cast<std::uint64_t>(t.key),
                                   scope.epoch));
      t.straggler = rng.bernoulli(chaos_.straggler_prob);
    }
    t.slot_s = (t.body_s + cfg_.task_overhead_s) *
               (t.straggler ? chaos_.straggler_factor : 1.0);
  }

  // --- Speculation: compute tasks slower than multiplier × their median get
  // a copy, launched at the threshold at clean speed; it wins if it finishes
  // before the original. A set without compute tasks has no median.
  double spec_thr = 0.0;
  if (spec_.enabled && inject && run.compute_tasks > 0 &&
      run.compute_tasks >= spec_.min_tasks) {
    std::vector<double> sorted;
    sorted.reserve(static_cast<std::size_t>(run.compute_tasks));
    for (const SetTask& t : tasks) {
      if (!t.transfer) sorted.push_back(t.slot_s);
    }
    std::sort(sorted.begin(), sorted.end());
    spec_thr = spec_.multiplier * sorted[sorted.size() / 2];
  }

  // --- Kill reroute (deterministic survivor, spreading the victim's tasks),
  // speculative copies, and one TaskMetric per task attempt that finished.
  int rescheduled = 0;
  for (SetTask& t : tasks) {
    if (t.executor == run.kill_victim) {
      t.executor = (run.kill_victim + 1 + t.key % (num_exec - 1)) % num_exec;
      if (!t.transfer) {
        ++rescheduled;
        // The work in flight when the executor died is lost time on its lanes.
        t.lost_executor = run.kill_victim;
        t.lost_s = kill_fraction * t.slot_s;
      }
    }
    if (t.transfer) continue;
    const double clean = t.body_s + cfg_.task_overhead_s;
    const bool speculate = spec_thr > 0.0 && t.slot_s > spec_thr;
    const bool copy_wins = speculate && spec_thr + clean < t.slot_s;
    if (copy_wins) t.slot_s = spec_thr + clean;
    TaskMetric tm;
    tm.stage_id = scope.stage_id;
    tm.partition = t.key;
    tm.executor = t.executor;
    tm.duration_s = t.slot_s;
    if (scope.node != nullptr) {
      tm.output_records = scope.node->partition_items(t.key);
    }
    tm.attempt = t.attempt;
    tm.straggler = t.straggler;
    metrics_.add_task(tm);
    if (t.straggler) metrics_.note_straggler();
    if (!speculate) continue;
    t.copy_executor = num_exec > 1 ? (t.executor + 1) % num_exec : t.executor;
    if (t.copy_executor == run.kill_victim) {
      t.copy_executor = (t.copy_executor + 1) % num_exec;
    }
    t.copy_s = clean;
    TaskMetric ct;
    ct.stage_id = scope.stage_id;
    ct.partition = t.key;
    ct.executor = t.copy_executor;
    ct.duration_s = t.body_s;
    ct.speculative = true;
    metrics_.add_task(ct);
    metrics_.note_speculative_launch();
    if (copy_wins) metrics_.note_speculative_win();
  }
  place(run);

  if (run.kill_victim >= 0) {
    metrics_.note_executor_kill();
    metrics_.note_tasks_rescheduled(rescheduled);
    timeline_.add_marker(gs::strfmt("executor-%d-kill", run.kill_victim));
    // Everything the dead executor cached is gone; owners recompute from
    // lineage when (and only when) those partitions are next read.
    drop_executor_blocks(run.kill_victim, scope.node);
  }
  flush_storage_charges();  // readbacks performed by the task bodies above
  return run;
}

std::vector<int> SparkContext::launch_graph(
    const std::string& name, const std::vector<DataflowTaskSpec>& tasks,
    const std::function<void(std::size_t)>& run_one) {
  const std::size_t n = tasks.size();
  std::vector<std::vector<int>> succs(n);
  // Unmet dependencies per task. A completing task decrements its
  // successors' counts without a lock; the decrement that reaches zero
  // (acq_rel) has seen every producer's output and makes the task ready.
  std::vector<std::atomic<int>> pending(n);
  std::vector<int> ready;  // ascending
  for (std::size_t i = 0; i < n; ++i) {
    for (int d : tasks[i].deps) {
      succs[static_cast<std::size_t>(d)].push_back(static_cast<int>(i));
    }
    const int deps = static_cast<int>(tasks[i].deps.size());
    pending[i].store(deps, std::memory_order_relaxed);
    if (deps == 0) ready.push_back(static_cast<int>(i));
  }
  GS_CHECK_MSG(!ready.empty(), "task graph '" + name + "' has no sources");
  std::mutex mu;  // guards error and finished
  std::exception_ptr error;
  std::atomic<bool> stop{false};
  std::vector<int> order(n);
  std::atomic<std::size_t> completed{0};

  analysis::HbDetector* const detector = race_detector();
  if (detector != nullptr) detector->begin_graph(name, tasks);

  // Runs one task and says whether its successors may be released. A
  // failure is captured into `error` and stops the graph: in-flight tasks
  // drain, nothing new launches.
  auto exec_task = [&](int ti) {
    try {
      run_one(static_cast<std::size_t>(ti));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
      stop.store(true, std::memory_order_relaxed);
      return false;
    }
    order[completed.fetch_add(1, std::memory_order_relaxed)] = ti;
    return !stop.load(std::memory_order_relaxed);
  };
  // Decrements ti's successors and calls on_ready(s) for each it made ready.
  auto release_succs = [&](int ti, auto&& on_ready) {
    for (int s : succs[static_cast<std::size_t>(ti)]) {
      if (pending[static_cast<std::size_t>(s)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        on_ready(s);
      }
    }
  };

  SchedulerHook* const hook = scheduler_hook_;
  if (hook != nullptr) {
    // --- Serial hook-driven path: the hook picks every ready-queue pop and
    // the chosen task runs inline on the driver thread, so any topological
    // order is externally controlled and exactly replayable (the model
    // checker's substrate). Chaos, spans, and the race detector behave as on
    // the pool — decisions are pure in (seed, tag, graph, task, attempt).
    hook->begin_graph(name, tasks);
    while (!ready.empty() && !stop) {
      const int ti = hook->pick(ready);
      const auto it = std::lower_bound(ready.begin(), ready.end(), ti);
      if (it == ready.end() || *it != ti) {
        error = std::make_exception_ptr(gs::ConfigError(gs::strfmt(
            "task graph '%s': scheduler hook picked task %d which is not "
            "in the ready set",
            name.c_str(), ti)));
        break;
      }
      ready.erase(it);
      if (!exec_task(ti)) continue;
      release_succs(ti, [&ready](int s) {
        ready.insert(std::upper_bound(ready.begin(), ready.end(), s), s);
      });
    }
    hook->end_graph();
  } else {
    // --- Pooled path: a task is posted the moment its last dependency
    // completes. The thread that completes a task keeps going with one
    // successor it made ready (a continuation, no queue round trip) and
    // posts the others. `outstanding` counts tasks posted or running; the
    // thread that retires the last one wakes the launcher, once per graph.
    std::atomic<std::size_t> outstanding{ready.size()};
    std::condition_variable cv;
    bool finished = false;
    std::function<void(int)> release = [&](int ti) {
      for (int next = ti; next >= 0;) {
        const int cur = next;
        next = -1;
        if (!exec_task(cur)) break;
        release_succs(cur, [&](int s) {
          if (next < 0) {
            next = s;  // inherits cur's outstanding slot
            return;
          }
          outstanding.fetch_add(1, std::memory_order_relaxed);
          pool_.post([&release, s] { release(s); });
        });
      }
      if (outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Notify under the lock: the launcher returns, destroying cv, as
        // soon as it sees `finished`.
        std::lock_guard<std::mutex> lock(mu);
        finished = true;
        cv.notify_one();
      }
    };
    for (int r : ready) {
      pool_.post([&release, r] { release(r); });
    }
    // Helping wait: the launcher runs queued tasks of its own graph (the
    // pool has no other set in flight) and parks only once the queue is
    // empty.
    while (pool_.try_run_one()) {
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&finished] { return finished; });
  }
  if (detector != nullptr) detector->end_graph();
  if (error) std::rethrow_exception(error);
  order.resize(completed.load(std::memory_order_relaxed));
  return order;
}

void SparkContext::run_tasks_internal(RddBase& node,
                                      const std::vector<int>& parts,
                                      const std::function<void(int)>& body,
                                      bool recovery) {
  if (parts.empty()) return;
  const std::uint64_t epoch = node.next_run_epoch();

  // --- Injected reducer-side fetch failure (wide stages, first run only:
  // resubmissions model a recovered cluster view). Decided driver-side.
  if (!recovery && chaos_.fetch_failure_prob > 0.0 && node.wide_input() &&
      epoch == 0) {
    gs::Rng rng(chaos_event_seed(chaos_.seed, kChaosFetch,
                                 static_cast<std::uint64_t>(node.id()), epoch,
                                 0));
    if (rng.bernoulli(chaos_.fetch_failure_prob)) {
      for (const auto& par : node.parents()) {
        RddBase* pp = par.get();
        if (pp == nullptr || !pp->materialized() || pp->checkpointed() ||
            !pp->recomputable()) {
          continue;
        }
        std::vector<int> avail;
        for (int q = 0; q < pp->num_partitions(); ++q) {
          if (pp->partition_available(q)) avail.push_back(q);
        }
        if (avail.empty()) continue;
        const int lost = avail[rng.uniform_u64(avail.size())];
        pp->drop_partition(lost);
        executor_store_.remove_block({pp->id(), lost});
        metrics_.note_fetch_failure();
        metrics_.note_partitions_dropped(1);
        timeline_.add_marker("fetch-failure");
        throw gs::FetchFailedError(gs::strfmt(
            "reducer for RDD %d (%s) could not fetch map output %d of RDD %d "
            "(%s)",
            node.id(), node.label().c_str(), lost, pp->id(),
            pp->label().c_str()));
      }
    }
  }

  // One edge-free task per partition, keyed by partition, on its home
  // executor.
  std::vector<SetTask> tasks(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    tasks[i].key = parts[i];
    tasks[i].executor = executor_of(parts[i]);
  }
  TaskSetScope scope;
  scope.id = static_cast<std::uint64_t>(node.id());
  scope.epoch = epoch;
  scope.recovery = recovery;
  scope.stage_id = current_stage_id();
  scope.node = &node;
  run_task_set(scope, tasks, body, [&](const TaskSetRun&) {
    // A killed task's lost work precedes its rerun; a speculative copy
    // follows the task it races.
    std::vector<double> durations;
    std::vector<int> executors;
    durations.reserve(tasks.size());
    executors.reserve(tasks.size());
    for (const SetTask& t : tasks) {
      if (t.lost_executor >= 0) {
        durations.push_back(t.lost_s);
        executors.push_back(t.lost_executor);
      }
      durations.push_back(t.slot_s);
      executors.push_back(t.executor);
      if (t.copy_executor >= 0) {
        durations.push_back(t.copy_s);
        executors.push_back(t.copy_executor);
      }
    }
    timeline_.add_stage(
        recovery ? node.label() + "(recompute)" : node.label(), durations,
        executors, recovery ? TimeCategory::kRecovery : TimeCategory::kCompute);
  });
}

TaskGraphResult SparkContext::run_task_graph(
    const std::string& name, const std::vector<DataflowTaskSpec>& tasks,
    const std::function<void(int)>& body, std::size_t shuffle_bytes) {
  const std::size_t n = tasks.size();
  TaskGraphResult result;
  if (n == 0) return result;
  TaskSetScope scope;
  scope.id = static_cast<std::uint64_t>(next_graph_id_++);
  scope.graph_name = &name;
  scope.graph = &tasks;

  // deps[j] < own index is the DAG guarantee (checked here, relied on by the
  // ready queue and the replay).
  const int num_exec = cfg_.num_executors();
  std::vector<SetTask> set(n);
  for (std::size_t i = 0; i < n; ++i) {
    GS_THROW_IF(tasks[i].executor < 0 || tasks[i].executor >= num_exec,
                gs::ConfigError,
                "task graph '" + name + "': executor index out of range");
    for (int d : tasks[i].deps) {
      GS_THROW_IF(d < 0 || static_cast<std::size_t>(d) >= i, gs::ConfigError,
                  "task graph '" + name + "': dep must precede its consumer");
    }
    set[i].key = static_cast<int>(i);
    set[i].executor = tasks[i].executor;
    set[i].transfer = tasks[i].transfer;
    set[i].slot_s = tasks[i].model_s;
  }

  StageMetric sm;
  sm.stage_id = next_stage_id_++;
  sm.name = name;
  sm.shuffle_input = shuffle_bytes > 0;
  sm.shuffle_write_bytes = shuffle_bytes;
  scope.stage_id = sm.stage_id;
  obs::ScopedSpan stage_span(&tracer_, obs::SpanLevel::kStage, name,
                             sm.stage_id);
  timeline_.add_serial(gs::strfmt("stage-%d-overhead", sm.stage_id),
                       cfg_.stage_overhead_s);
  gs::Stopwatch graph_sw;
  TaskSetRun run = run_task_set(scope, set, body, [&](const TaskSetRun& r) {
    sm.wall_s = graph_sw.seconds();
    // Entries 0..n-1 of the dataflow schedule mirror the input tasks so dep
    // indices stay valid; lost-work and speculative-copy entries append
    // after.
    std::vector<VirtualTimeline::DataflowTask> sched(n);
    std::vector<VirtualTimeline::DataflowTask> extras;
    result.executors.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const SetTask& t = set[i];
      result.executors[i] = t.executor;
      sched[i] = {tasks[i].label, t.slot_s, t.executor, tasks[i].deps,
                  tasks[i].category};
      if (t.lost_executor >= 0) {
        extras.push_back({"lost-work", t.lost_s, t.lost_executor, {},
                          TimeCategory::kRecovery});
      }
      if (t.copy_executor >= 0) {
        extras.push_back({tasks[i].label, t.copy_s, t.copy_executor,
                          tasks[i].deps, tasks[i].category});
      }
    }
    sched.insert(sched.end(), std::make_move_iterator(extras.begin()),
                 std::make_move_iterator(extras.end()));
    result.makespan_s = timeline_.add_dataflow(name, sched);
    sm.num_tasks = r.compute_tasks;
    metrics_.add_stage(sm);
  });
  result.completion_order = std::move(run.completion_order);
  result.kill_victim = run.kill_victim;
  result.tasks_run = run.compute_tasks;
  return result;
}

double SparkContext::write_checkpoint_block(const BlockId& id,
                                            std::size_t bytes,
                                            std::uint64_t checksum,
                                            const std::function<void()>& heal) {
  const int max_attempts = std::max(1, chaos_.max_stage_attempts);
  double io_s = 0.0;
  for (int attempt = 1;; ++attempt) {
    std::uint64_t stored = checksum;
    if (chaos_.checkpoint_corruption_prob > 0.0 &&
        block_corruptions_done_ < chaos_.max_block_corruptions) {
      gs::Rng rng(chaos_event_seed(chaos_.seed, kChaosCorrupt,
                                   static_cast<std::uint64_t>(id.rdd),
                                   static_cast<std::uint64_t>(id.partition),
                                   static_cast<std::uint64_t>(attempt)));
      if (rng.bernoulli(chaos_.checkpoint_corruption_prob)) {
        stored ^= 0xbad0bad0bad0bad0ULL;
        ++block_corruptions_done_;
      }
    }
    io_s += shared_fs_.put_block(0, id, bytes, stored, /*pinned=*/true);
    io_s += shared_fs_.read(0, bytes);  // checksum verification read-back
    if (shared_fs_.verify_block(id, checksum)) {
      metrics_.note_checkpoint_block(bytes);
      return io_s;
    }
    // The write was corrupted: the block is useless, treat its data as
    // lost, regenerate it from lineage (still attached — truncation happens
    // after checkpointing succeeds) and write again.
    metrics_.note_corrupted_block();
    timeline_.add_marker("checkpoint-corruption");
    shared_fs_.remove_block(id);
    GS_THROW_IF(
        attempt >= max_attempts, gs::JobAbortedError,
        gs::strfmt("checkpoint block (%d,%d) failed verification %d times",
                   id.rdd, id.partition, attempt));
    metrics_.note_partitions_dropped(1);
    heal();
  }
}

void SparkContext::checkpoint_node(RddBase& node) {
  if (!node.materialized() || node.checkpointed()) return;
  obs::ScopedSpan span(&tracer_, obs::SpanLevel::kStage, "checkpoint",
                       node.id());
  double io_s = 0.0;
  for (int p = 0; p < node.num_partitions(); ++p) {
    if (!node.partition_available(p)) recompute_lost(node);
    io_s += write_checkpoint_block({node.id(), p}, node.partition_bytes(p),
                                   node.partition_checksum(p), [&] {
                                     node.drop_partition(p);
                                     recompute_lost(node);
                                   });
  }
  timeline_.add_serial("checkpoint", io_s, TimeCategory::kRecovery);
  node.mark_checkpointed();
  // The data now lives pinned in shared storage; executor kills and memory
  // pressure can no longer lose it, so its cached-block entries go away.
  executor_store_.remove_rdd_blocks(node.id());
  flush_storage_charges();
}

// ---------------- storage-level tier plumbing ----------------
//
// encode/restore/release run inside the executor store's mutex, so they must
// never call back into the store. They consult live_rdds_/block_sources_
// without a lock, from pool threads and from the launching thread alike: both
// maps change only driver-side between task sets (register/forget and
// set/clear_block_source DCHECK that no set is in flight), and while a set is
// in flight the launching thread runs nothing but that set's task bodies.

std::optional<std::vector<std::uint8_t>> SparkContext::source_encode(
    const BlockId& id) {
  auto s = block_sources_.find(id.rdd);
  if (s != block_sources_.end()) return s->second->encode_block(id);
  auto it = live_rdds_.find(id.rdd);
  if (it == live_rdds_.end()) return std::nullopt;
  return it->second->encode_partition(id.partition);
}

bool SparkContext::source_restore(const BlockId& id,
                                  const std::vector<std::uint8_t>& payload) {
  auto s = block_sources_.find(id.rdd);
  if (s != block_sources_.end()) return s->second->restore_block(id, payload);
  auto it = live_rdds_.find(id.rdd);
  if (it == live_rdds_.end()) return false;
  return it->second->restore_partition(id.partition, payload);
}

void SparkContext::source_release(const BlockId& id) {
  auto s = block_sources_.find(id.rdd);
  if (s != block_sources_.end()) {
    s->second->release_block(id);
    return;
  }
  auto it = live_rdds_.find(id.rdd);
  if (it != live_rdds_.end()) it->second->release_partition_data(id.partition);
}

bool SparkContext::spill_write(const BlockId& id, int node,
                               const std::vector<std::uint8_t>& payload) {
  std::uint64_t attempt = 0;
  {
    std::lock_guard<std::mutex> lock(storage_mu_);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.rdd)) << 32) |
        static_cast<std::uint32_t>(id.partition);
    attempt = spill_attempts_[key]++;
  }
  if (!spill_store_.write(id, node, payload)) return false;
  // Budgeted disk faults, applied at write time so each decision is pure in
  // (seed, tag, rdd, partition, spill attempt) — never in interleaving.
  bool corrupt = false, torn = false;
  {
    std::lock_guard<std::mutex> lock(storage_mu_);
    if (chaos_.spill_corruption_prob > 0.0 &&
        spill_corruptions_done_ < chaos_.max_spill_corruptions) {
      gs::Rng rng(chaos_event_seed(chaos_.seed, kChaosSpillCorrupt,
                                   static_cast<std::uint64_t>(id.rdd),
                                   static_cast<std::uint64_t>(id.partition),
                                   attempt));
      if (rng.bernoulli(chaos_.spill_corruption_prob)) {
        ++spill_corruptions_done_;
        corrupt = true;
      }
    }
    if (!corrupt && chaos_.torn_write_prob > 0.0 &&
        torn_writes_done_ < chaos_.max_torn_writes) {
      gs::Rng rng(chaos_event_seed(chaos_.seed, kChaosTornWrite,
                                   static_cast<std::uint64_t>(id.rdd),
                                   static_cast<std::uint64_t>(id.partition),
                                   attempt));
      if (rng.bernoulli(chaos_.torn_write_prob)) {
        ++torn_writes_done_;
        torn = true;
      }
    }
  }
  if (corrupt) spill_store_.corrupt_file(id, node);
  if (torn) spill_store_.truncate_file(id, node);
  return true;
}

std::optional<std::vector<std::uint8_t>> SparkContext::spill_read(
    const BlockId& id, int node) {
  return spill_store_.read(id, node);
}

void SparkContext::on_storage_event(const StorageEvent& ev) {
  const double factor =
      (ev.node >= 0 &&
       static_cast<std::size_t>(ev.node) < node_spill_factor_.size())
          ? node_spill_factor_[static_cast<std::size_t>(ev.node)]
          : 1.0;
  switch (ev.kind) {
    case StorageEvent::kDemoteToSer:
      // Memory-to-memory re-encode; cost is folded into the eventual spill
      // or readback, matching Spark's free unroll/serialize accounting.
      break;
    case StorageEvent::kSpillWrite: {
      metrics_.note_spill(ev.bytes);
      const double s = (cfg_.spill_disk.seek_s +
                        static_cast<double>(ev.bytes) /
                            cfg_.spill_disk.write_Bps) *
                       factor;
      std::lock_guard<std::mutex> lock(storage_mu_);
      pending_spill_s_ += s;
      ++pending_spills_;
      break;
    }
    case StorageEvent::kSpillRefused:
      metrics_.note_spill_write_failure();
      break;
    case StorageEvent::kReadbackMem: {
      metrics_.note_spill_readback(ev.bytes);
      // Decode from the in-memory serialized tier at memory speed.
      const double s = static_cast<double>(ev.bytes) / 30.0e9;
      std::lock_guard<std::mutex> lock(storage_mu_);
      pending_readback_s_ += s;
      ++pending_readbacks_;
      break;
    }
    case StorageEvent::kReadbackDisk: {
      metrics_.note_spill_readback(ev.bytes);
      const double s = (cfg_.spill_disk.seek_s +
                        static_cast<double>(ev.bytes) /
                            cfg_.spill_disk.read_Bps) *
                       factor;
      std::lock_guard<std::mutex> lock(storage_mu_);
      pending_readback_s_ += s;
      ++pending_readbacks_;
      break;
    }
    case StorageEvent::kCorruptSpill: {
      metrics_.note_corrupt_spill();
      std::lock_guard<std::mutex> lock(storage_mu_);
      ++pending_corrupt_spills_;
      break;
    }
  }
}

bool SparkContext::try_block_readback(const BlockId& id) {
  // One readback at a time: restore_partition on an already-available
  // partition no-ops, and the serialization makes that check race-free.
  std::lock_guard<std::mutex> lock(readback_mu_);
  return executor_store_.readback_block(id) == BlockStore::Readback::kOk;
}

void SparkContext::flush_storage_charges() {
  double spill_s = 0.0, readback_s = 0.0;
  int spills = 0, readbacks = 0, corrupt = 0;
  {
    std::lock_guard<std::mutex> lock(storage_mu_);
    std::swap(spill_s, pending_spill_s_);
    std::swap(readback_s, pending_readback_s_);
    std::swap(spills, pending_spills_);
    std::swap(readbacks, pending_readbacks_);
    std::swap(corrupt, pending_corrupt_spills_);
  }
  if (spills > 0) {
    timeline_.add_serial("spill", spill_s, TimeCategory::kSpill);
    timeline_.add_marker(gs::strfmt("spill x%d", spills));
  }
  if (readbacks > 0) {
    timeline_.add_serial("spill-readback", readback_s, TimeCategory::kReadback);
    timeline_.add_marker(gs::strfmt("spill-readback x%d", readbacks));
  }
  for (int i = 0; i < corrupt; ++i) timeline_.add_marker("spill-corrupt");
}

void SparkContext::set_block_source(int rdd, BlockSource* source) {
  GS_DCHECK(!task_set_in_flight_);
  block_sources_[rdd] = source;
}

void SparkContext::clear_block_source(int rdd) {
  GS_DCHECK(!task_set_in_flight_);
  executor_store_.remove_rdd_blocks(rdd);  // also removes spill files
  block_sources_.erase(rdd);
}

double SparkContext::charge_shuffle(std::size_t bytes) {
  const int nodes = cfg_.num_nodes;
  const std::size_t per_node = bytes / static_cast<std::size_t>(nodes) + 1;
  // Map outputs staged on every node's local disk in parallel; the slowest
  // node gates the stage. Reads happen during the fetch phase.
  double t_write = 0.0, t_read = 0.0;
  for (int node = 0; node < nodes; ++node) {
    t_write = std::max(t_write, local_disks_.write(node, per_node));
  }
  for (int node = 0; node < nodes; ++node) {
    t_read = std::max(t_read, local_disks_.read(node, per_node));
  }
  const double remote_fraction =
      nodes > 1 ? static_cast<double>(nodes - 1) / nodes : 0.0;
  const double t_net =
      cfg_.network.latency_s +
      static_cast<double>(bytes) * remote_fraction /
          (cfg_.network.bandwidth_Bps * static_cast<double>(nodes));
  const double total = t_write + t_read + t_net;
  timeline_.add_serial("shuffle", total, TimeCategory::kShuffle);
  // Shuffle files are cleaned up once consumed.
  for (int node = 0; node < nodes; ++node) {
    local_disks_.release(node, per_node);
  }
  return total;
}

double SparkContext::charge_collect(std::size_t bytes) {
  metrics_.add_collect_bytes(bytes);
  // All executors funnel through the driver's single NIC.
  const double t = cfg_.network.latency_s +
                   static_cast<double>(bytes) / cfg_.network.bandwidth_Bps;
  timeline_.add_serial("collect", t, TimeCategory::kCollect);
  return t;
}

double SparkContext::charge_broadcast(std::size_t bytes) {
  metrics_.add_broadcast_bytes(bytes * cfg_.num_executors());
  // Driver writes once to shared storage; every executor reads it back.
  const double t_write = shared_fs_.write(0, bytes);
  const double t_read =
      shared_fs_.read(0, bytes * static_cast<std::size_t>(cfg_.num_executors()));
  const double t = t_write + t_read + cfg_.network.latency_s;
  timeline_.add_serial("broadcast", t, TimeCategory::kBroadcast);
  shared_fs_.release(0, bytes);
  return t;
}

void SparkContext::note_shuffle(std::size_t read_bytes,
                                std::size_t write_bytes) {
  if (current_stage_ != nullptr) {
    current_stage_->shuffle_read_bytes += read_bytes;
    current_stage_->shuffle_write_bytes += write_bytes;
  }
}

}  // namespace sparklet

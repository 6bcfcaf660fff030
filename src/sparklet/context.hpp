// context.hpp — the sparklet driver: owns the executor pool, metrics,
// virtual timeline, storage models, and the stage scheduler.
//
// One SparkContext corresponds to one Spark application on a described
// cluster. RDDs are built lazily against it; actions (collect/count/…) call
// run_job(), which cuts the lineage into stages at wide dependencies and
// materializes them in order on the thread pool, charging metrics and
// virtual time along the way.
//
// Fault tolerance: a seeded ChaosPlan injects task failures, executor kills,
// reducer-side fetch failures, stragglers, and checkpoint corruption. The
// scheduler recovers through the lineage graph — same-task retries, survivor
// rescheduling, parent-stage resubmission with exponential backoff, and
// partition recomputation — and records everything in MetricsRegistry.
//
// Barrier stages and task graphs run through one task runner
// (run_task_set): a barrier stage is a task graph without edges. The runner
// owns the retry loop, the straggler, kill and speculation decisions, and
// TaskMetric emission; the two entry points differ only in how the set is
// launched (parallel_for vs the ready queue) and laid on the timeline.
//
// Launch: tasks are posted fire-and-forget onto the context's pool, and the
// launching (driver) thread is woken once, when the set's last task
// finishes. While a task graph runs, the driver does not park: it drains the
// queue, running task bodies itself, and sleeps only once the queue is
// empty, so a graph runs on up to physical_threads + 1 threads; the thread
// that completes a graph task runs one successor it made ready inline and
// posts the rest. A barrier stage's driver waits without helping (see
// DESIGN.md §8 for the memory cost that helping showed there). A context has
// one set in flight at a time; the serial scheduler-hook path (model
// checker) runs every task on the driver thread instead.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/span.hpp"
#include "sparklet/block_store.hpp"
#include "support/rng.hpp"
#include "sparklet/cluster.hpp"
#include "sparklet/item_bytes.hpp"
#include "sparklet/metrics.hpp"
#include "sparklet/rdd_base.hpp"
#include "sparklet/spill_store.hpp"
#include "sparklet/task_graph.hpp"
#include "sparklet/virtual_timeline.hpp"
#include "support/thread_pool.hpp"

namespace analysis {
class HbDetector;
}

namespace sparklet {

/// Full chaos taxonomy. Every decision is a pure function of (seed, event
/// tag, rdd id, partition, epoch/attempt) via chaos_event_seed(), so runs
/// are bit-reproducible regardless of thread-pool interleaving or host core
/// count.
struct ChaosPlan {
  /// Independent per-attempt task failure; retried in place up to
  /// max_task_attempts (spark.task.maxFailures).
  double task_failure_prob = 0.0;
  int max_task_attempts = 4;

  /// Probability (per task-set execution) of killing one executor mid-stage.
  /// Its in-flight tasks reschedule onto survivors; its cached partitions
  /// and shuffle map outputs are lost and recomputed from lineage on demand.
  double executor_kill_prob = 0.0;
  int max_executor_kills = 2;

  /// Probability of a reducer-side fetch failure on a wide stage: one parent
  /// map output is lost and the parent stage is resubmitted (bounded by
  /// max_stage_attempts, with exponential backoff between attempts).
  double fetch_failure_prob = 0.0;
  int max_stage_attempts = 4;

  /// Deterministic stragglers: a chosen task runs straggler_factor × slower
  /// (in virtual time). Mitigated by SpeculationPolicy.
  double straggler_prob = 0.0;
  double straggler_factor = 8.0;

  /// Probability that a checkpoint block is written corrupted (detected by
  /// checksum on read-back; the block is treated as lost and recomputed).
  double checkpoint_corruption_prob = 0.0;
  int max_block_corruptions = 1;

  // ---- disk faults (storage-level spill tier) ----

  /// Probability (per spill write) that the spill file is silently corrupted
  /// on disk. Detected by checksum at readback; the block falls back to
  /// lineage recomputation, never silent wrong data.
  double spill_corruption_prob = 0.0;
  int max_spill_corruptions = 2;

  /// Probability (per spill write) of a torn write: the file is truncated
  /// mid-payload, as if the writer died between write and rename. Detected
  /// by the length header at readback.
  double torn_write_prob = 0.0;
  int max_torn_writes = 2;

  /// Probability (per node, decided once at set_chaos_plan) that a node's
  /// spill volume is full: every spill write there fails with ENOSPC and the
  /// block stays in memory (graceful degradation to lossy eviction).
  double enospc_prob = 0.0;
  int max_enospc_nodes = 1;

  /// Probability (per node) of a slow spill disk: spill/readback virtual
  /// time on that node is multiplied by slow_spill_factor.
  double slow_spill_prob = 0.0;
  double slow_spill_factor = 4.0;

  std::uint64_t seed = 1;
};

/// Spark's speculative execution: once a stage's median task duration is
/// known, tasks slower than `multiplier` × median get a speculative copy on
/// another executor; the first finisher wins.
struct SpeculationPolicy {
  bool enabled = false;
  double multiplier = 2.0;
  int min_tasks = 4;  ///< don't speculate on tiny stages
};

/// Event tags keeping chaos decision streams independent of each other.
enum ChaosTag : std::uint64_t {
  kChaosTask = 1,
  kChaosKill = 2,
  kChaosKillPlace = 3,
  kChaosFetch = 4,
  kChaosStraggler = 5,
  kChaosCorrupt = 6,
  kChaosSpillCorrupt = 7,
  kChaosTornWrite = 8,
  kChaosEnospc = 9,
  kChaosSlowSpill = 10,
};

/// Derive a decision seed from (seed, tag, a, b, c) by absorbing each field
/// through splitmix64. Unlike the previous XOR-of-shifted-fields scheme,
/// distinct tuples cannot collide by bit overlap (e.g. partition 1 attempt 0
/// vs partition 0 attempt 256), so injection is deterministic in the tuple
/// alone — never in scheduling order.
inline std::uint64_t chaos_event_seed(std::uint64_t seed, std::uint64_t tag,
                                      std::uint64_t a, std::uint64_t b,
                                      std::uint64_t c) {
  std::uint64_t s = seed;
  for (std::uint64_t field : {tag, a, b, c}) {
    std::uint64_t st = s ^ field;
    s = gs::splitmix64(st);
  }
  return s;
}

/// Read-only value shipped once to every executor (via shared storage in
/// the CB driver). Cheap to copy; payload is shared.
template <typename T>
class Broadcast {
 public:
  Broadcast() = default;
  explicit Broadcast(std::shared_ptr<const T> v) : value_(std::move(v)) {}
  const T& value() const {
    GS_CHECK_MSG(value_ != nullptr, "empty broadcast");
    return *value_;
  }
  bool valid() const { return value_ != nullptr; }

 private:
  std::shared_ptr<const T> value_;
};

/// Producer of block payloads for cached data not owned by an RddBase node
/// (e.g. the dataflow engine's carried tiles). Registered per rdd-id; the
/// tier hooks route encode/restore/release through it before consulting the
/// live-node registry.
class BlockSource {
 public:
  virtual ~BlockSource() = default;
  virtual std::optional<std::vector<std::uint8_t>> encode_block(
      const BlockId& id) const = 0;
  virtual bool restore_block(const BlockId& id,
                             const std::vector<std::uint8_t>& payload) = 0;
  virtual void release_block(const BlockId& id) = 0;
};

class SparkContext {
 public:
  explicit SparkContext(ClusterConfig cfg);
  ~SparkContext();

  SparkContext(const SparkContext&) = delete;
  SparkContext& operator=(const SparkContext&) = delete;

  const ClusterConfig& config() const { return cfg_; }
  MetricsRegistry& metrics() { return metrics_; }
  VirtualTimeline& timeline() { return timeline_; }
  /// Span tracer (disabled by default; enable + read via obs::*).
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  BlockStore& local_disks() { return local_disks_; }
  BlockStore& shared_fs() { return shared_fs_; }
  /// Per-executor memory modeling cached RDD partitions; overflow evicts
  /// LRU unpinned blocks (graceful degradation) instead of failing.
  BlockStore& executor_store() { return executor_store_; }
  /// Real spill files backing the disk tier (per-physical-node directories).
  SpillStore& spill_store() { return spill_store_; }
  gs::ThreadPool& pool() { return pool_; }

  /// Default partitioner: hash over config().effective_partitions().
  PartitionerPtr default_partitioner() const;

  /// Install the full chaos plan (resets kill/corruption budgets).
  void set_chaos_plan(const ChaosPlan& plan);
  const ChaosPlan& chaos_plan() const { return chaos_; }

  void set_speculation(const SpeculationPolicy& policy) { spec_ = policy; }
  const SpeculationPolicy& speculation() const { return spec_; }

  /// Attach a happens-before race detector (analysis::HbDetector): task
  /// graphs thread vector clocks through execution and the block stores
  /// report access sets. Pass nullptr to detach. No-op when the build set
  /// GS_ANALYSIS=OFF.
  void set_race_detector(analysis::HbDetector* detector);
  /// The attached detector, or nullptr. Constant nullptr under
  /// GS_ANALYSIS=OFF so every instrumentation branch folds away.
  analysis::HbDetector* race_detector() const {
#ifdef GS_ANALYSIS_DISABLED
    return nullptr;
#else
    return race_detector_;
#endif
  }

  /// Install a scheduler hook (analysis/model_check.hpp): run_task_graph
  /// executes serially on the driver thread, asking the hook to pick every
  /// ready-queue pop, so a topological order is externally controlled and
  /// replayable. Pass nullptr to detach and restore pooled execution. The
  /// hook must outlive the graphs it schedules.
  void set_scheduler_hook(SchedulerHook* hook) { scheduler_hook_ = hook; }
  SchedulerHook* scheduler_hook() const { return scheduler_hook_; }

  /// Total injected task failures observed so far.
  int injected_failures() const { return injected_failures_.load(); }

  // ------- cooperative cancellation (serve layer) -------

  /// Install a per-job abort flag (owned by the caller, e.g. the JobServer's
  /// ticket). The scheduler polls it at every task release (barrier stages
  /// and task graphs alike) and at stage boundaries in run_job; when the
  /// flag is set the current action drains its in-flight tasks and throws
  /// gs::JobCancelledError. Pass nullptr to detach. The flag must outlive the
  /// solve it governs.
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_flag_ = flag; }
  const std::atomic<bool>* cancel_flag() const { return cancel_flag_; }

  /// True when a cancel flag is installed and set.
  bool cancel_requested() const {
    const std::atomic<bool>* f = cancel_flag_;
    return f != nullptr && f->load(std::memory_order_relaxed);
  }

  /// Throw gs::JobCancelledError if cancellation was requested. Called from
  /// scheduler checkpoints; safe from task threads (the flag is atomic and
  /// the throw unwinds through the normal task-failure drain paths).
  void check_cancelled(const char* where) const;

  /// Write one checkpoint block pinned into the shared store and verify it
  /// by checksum read-back. A write the chaos plan corrupts (budgeted, pure
  /// in (rdd, partition, attempt)) is discarded, the block's data is dropped
  /// and regenerated by `heal`, and the block is written again, up to
  /// max_stage_attempts times. Returns the virtual I/O seconds. Shared by
  /// checkpoint_node() and the dataflow engine's snapshots.
  double write_checkpoint_block(const BlockId& id, std::size_t bytes,
                                std::uint64_t checksum,
                                const std::function<void()>& heal);

  int next_rdd_id() { return next_rdd_id_++; }

  /// Virtual executor hosting partition p (Spark-style round-robin).
  int executor_of(int partition) const {
    return partition % cfg_.num_executors();
  }
  /// Physical node hosting an executor.
  int node_of_executor(int executor) const {
    return executor % cfg_.num_nodes;
  }

  /// Ship a value to all executors. Charges shared-storage + network time.
  template <typename T>
  Broadcast<T> broadcast(T value) {
    auto holder = std::make_shared<const T>(std::move(value));
    const std::size_t bytes = item_bytes(*holder);
    charge_broadcast(bytes);
    return Broadcast<T>(std::move(holder));
  }

  // ------- scheduler interface (used by RDD actions / typed nodes) -------

  /// Materialize `target` and all unmaterialized ancestors, stage by stage,
  /// recovering lost partitions and resubmitting failed stages along the way.
  void run_job(const std::shared_ptr<RddBase>& target,
               const std::string& action_name);

  /// Run one task per partition of `node` on the executor pool; records task
  /// metrics, applies the chaos plan, and feeds the virtual timeline.
  void run_node_tasks(RddBase& node, const std::function<void(int)>& body);

  /// Recovery path: run `body` only for `parts` (regenerating lost
  /// partitions). No executor kills or fetch failures are injected while
  /// recovering — matching Spark, where resubmitted stages run on the
  /// already-degraded cluster view.
  void run_recovery_tasks(RddBase& node, const std::vector<int>& parts,
                          const std::function<void(int)>& body);

  /// Execute a dependency DAG of tasks on the executor pool with no phase
  /// barriers: a task is posted the moment its last dependency completes.
  /// Chaos task failures are injected per attempt (retried up to
  /// max_task_attempts); stragglers, one optional executor kill, and
  /// speculation are applied to the virtual replay, which lands on the
  /// timeline as one dataflow stage via add_dataflow(). Tasks flagged
  /// `transfer` model data movement: they run `body` too (usually a no-op),
  /// are charged their modeled `model_s` instead of wall time, and are exempt
  /// from failure/straggler/speculation injection. Returns the deterministic
  /// completion order plus the virtual schedule summary.
  TaskGraphResult run_task_graph(const std::string& name,
                                 const std::vector<DataflowTaskSpec>& tasks,
                                 const std::function<void(int)>& body,
                                 std::size_t shuffle_bytes = 0);

  /// Persist `node`'s partitions into the shared block store with per-block
  /// checksums, verifying each write (a corrupted block is treated as lost
  /// and recomputed from lineage before checkpoint() truncates it).
  void checkpoint_node(RddBase& node);

  /// Account a shuffle of `bytes` through local-disk staging + network.
  /// Returns virtual seconds. Throws gs::CapacityError on disk overflow.
  double charge_shuffle(std::size_t bytes);

  /// Account a collect() of `bytes` into the driver.
  double charge_collect(std::size_t bytes);

  /// Account a broadcast of `bytes` to every executor.
  double charge_broadcast(std::size_t bytes);

  /// Record shuffle volumes into the currently-running stage metric.
  void note_shuffle(std::size_t read_bytes, std::size_t write_bytes);

  int current_stage_id() const;

  // ------- storage-level tiers (spill / readback) -------

  /// Restore a demoted block's deserialized data for a reading task. The
  /// block's tier and memory charge are unchanged (the transient copy models
  /// Spark's task-side unroll memory); the payload / spill file stays
  /// authoritative. Returns false when the block is gone or its payload is
  /// corrupt/torn/missing — the caller falls back to lineage recomputation.
  /// Safe to call from task threads; readbacks serialize on readback_mu_.
  bool try_block_readback(const BlockId& id);

  /// Drain accumulated spill/readback virtual time + counts onto the
  /// timeline (driver-side only; storage events fire from task threads and
  /// under store locks, so they can't touch the timeline directly).
  void flush_storage_charges();

  /// Route encode/restore/release for blocks of `rdd` through `source`
  /// instead of the live-node registry (dataflow engine's carried tiles).
  void set_block_source(int rdd, BlockSource* source);
  void clear_block_source(int rdd);

  // ------- live-node registry (called by RddBase ctor/dtor) -------
  void register_rdd(RddBase* node);
  void forget_rdd(RddBase* node);

 private:
  friend class RddBase;

  struct RecoveringGuard {
    explicit RecoveringGuard(SparkContext* c) : ctx(c), prev(c->recovering_) {
      ctx->recovering_ = true;
    }
    ~RecoveringGuard() { ctx->recovering_ = prev; }
    SparkContext* ctx;
    bool prev;
  };

  // Task-set records of the runner below, defined in context.cpp.
  struct SetTask;
  struct TaskSetScope;
  struct TaskSetRun;

  /// The one task runner behind barrier stages and task graphs: decides the
  /// budgeted executor kill, runs every task's attempts with chaos retry,
  /// then replays stragglers, kill reroutes and speculation, records the
  /// TaskMetrics, lets `place` put the set on the timeline, and lands the
  /// kill (marker, lost blocks).
  TaskSetRun run_task_set(const TaskSetScope& scope,
                          std::vector<SetTask>& tasks,
                          const std::function<void(int)>& body,
                          const std::function<void(const TaskSetRun&)>& place);

  /// Ready-queue launch of a task graph's tasks through `run_one`; returns
  /// the completion order.
  std::vector<int> launch_graph(
      const std::string& name, const std::vector<DataflowTaskSpec>& tasks,
      const std::function<void(std::size_t)>& run_one);

  void run_tasks_internal(RddBase& node, const std::vector<int>& parts,
                          const std::function<void(int)>& body, bool recovery);

  /// Post-order walk of `root`'s lineage, parents before children, ending
  /// with `root`. `unmaterialized_only` stops at materialized parents.
  static std::vector<RddBase*> lineage_order(RddBase& root,
                                             bool unmaterialized_only);

  /// Walk `node`'s ancestry (post-order) and regenerate any lost partitions
  /// of materialized ancestors from lineage.
  void ensure_lineage_available(RddBase& node);

  /// Regenerate `node`'s missing partitions from lineage as a recovery run
  /// and count them; returns how many were recomputed.
  int recompute_lost(RddBase& node);

  /// Materialize (or restore) `node`, retrying on fetch failures with
  /// exponential backoff up to chaos_.max_stage_attempts.
  void materialize_with_recovery(RddBase& node);

  /// Register `node`'s resident partitions as cached blocks in the
  /// executor store (skipped for checkpointed nodes — those live pinned in
  /// the shared store).
  void register_node_blocks(RddBase& node);

  /// An executor died: invalidate its cached blocks; the owning nodes lose
  /// those partitions and will recompute them from lineage on next access.
  void drop_executor_blocks(int executor, const RddBase* running_node);

  void on_block_evicted(const BlockId& id);

  // ---- tier-hook plumbing (see block_store.hpp for locking rules) ----
  std::optional<std::vector<std::uint8_t>> source_encode(const BlockId& id);
  bool source_restore(const BlockId& id,
                      const std::vector<std::uint8_t>& payload);
  void source_release(const BlockId& id);
  /// Write a spill payload (with budgeted chaos corruption/torn-write/ENOSPC
  /// applied at write time, keyed by per-(rdd,partition) attempt counters).
  bool spill_write(const BlockId& id, int node,
                   const std::vector<std::uint8_t>& payload);
  std::optional<std::vector<std::uint8_t>> spill_read(const BlockId& id,
                                                      int node);
  void on_storage_event(const StorageEvent& ev);

  ClusterConfig cfg_;
  MetricsRegistry metrics_;
  VirtualTimeline timeline_;
  BlockStore local_disks_;
  BlockStore shared_fs_;
  BlockStore executor_store_;
  gs::ThreadPool pool_;

  std::atomic<int> next_rdd_id_{0};
  int next_stage_id_ = 0;
  int next_job_id_ = 0;
  int next_graph_id_ = 0;  ///< chaos-event namespace for run_task_graph

  StageMetric* current_stage_ = nullptr;  // valid only inside run_job

  obs::Tracer tracer_;
  analysis::HbDetector* race_detector_ = nullptr;
  SchedulerHook* scheduler_hook_ = nullptr;  // driver-side; serializes graphs
  /// Per-job abort flag (serve layer); nullptr when no job is cancellable.
  /// Atomic pointer: the serve worker installs it driver-side, but task
  /// threads read through it inside the task runner (run_task_set).
  std::atomic<const std::atomic<bool>*> cancel_flag_{nullptr};
  ChaosPlan chaos_;
  SpeculationPolicy spec_;
  std::atomic<int> injected_failures_{0};

  // All driver-side (never touched from pool threads).
  /// True while run_task_set launches a set: one set per context at a time.
  bool task_set_in_flight_ = false;
  std::unordered_map<int, RddBase*> live_rdds_;
  std::unordered_set<int> protected_rdds_;  // current job's lineage
  bool recovering_ = false;
  int executor_kills_done_ = 0;
  int block_corruptions_done_ = 0;

  // ---- storage-level tier state ----
  SpillStore spill_store_;
  std::unordered_map<int, BlockSource*> block_sources_;  // driver-side
  /// Serializes all transient readbacks (restore may race with readers of
  /// the same partition otherwise). Ordered before the store's own mutex.
  std::mutex readback_mu_;
  /// Guards the pending charge accumulators below (events fire from task
  /// threads and inside the store lock; the timeline is driver-only).
  std::mutex storage_mu_;
  double pending_spill_s_ = 0.0;
  double pending_readback_s_ = 0.0;
  int pending_spills_ = 0;
  int pending_readbacks_ = 0;
  int pending_corrupt_spills_ = 0;
  /// Spill-attempt counter per (rdd, partition): keys the disk-fault chaos
  /// stream so decisions are pure in (seed, tag, rdd, partition, attempt).
  std::unordered_map<std::uint64_t, std::uint64_t> spill_attempts_;
  std::vector<double> node_spill_factor_;  // per-node slow-disk multiplier
  int spill_corruptions_done_ = 0;
  int torn_writes_done_ = 0;
};

}  // namespace sparklet

// dataflow.hpp — the tile-task dataflow engine: one scheduler for every
// workload the library runs as tiles, GEP (FW, GE, TC, …) and the wavefront
// plans (GAP, accordion, Viterbi, paren, align) alike.
//
// A workload is a *plan*: a sequence of steps (GEP's pivot iteration k, a
// wavefront's wave), each emitting tile tasks as (kind, written tile, read
// tiles), plus a pure `compute` for one task. A read resolves to the latest
// version of its tile when the task is emitted. That one rule covers GEP's
// versioned self-reads (D(i,j)@k reads D(i,j)@k-1) and the nested
// single-assignment waves alike. The engine builds the exact dependency DAG
// over those versions and releases each task the moment its inputs are
// ready, instead of a per-phase barrier loop:
//
//   - one task graph per checkpoint segment through
//     SparkContext::run_task_graph (per-attempt task failures, stragglers,
//     executor kills, speculation);
//   - a zero-cost fence per step anchoring the lookahead gate: step s may not
//     start before the fence of step s - lookahead - 1 (SolverOptions::
//     lookahead), so trailing work overlaps the next steps;
//   - IM routes every cross-executor data edge through a modeled transfer
//     task (one per producer × destination, like a map output fetched once
//     per reducer), which overlaps compute; CB charges a driver collect +
//     broadcast per step for the tiles the plan ships through the driver;
//   - batch tasks of one step that land on the same executor run as ONE
//     graph task (GEP's fused D); nodes and lineage stay per tile.
//
// The engine is the only executor of the wavefront plans: under
// ScheduleMode::kBarrier they run here at lookahead 0. GEP also keeps the
// paper's barrier drivers (driver.hpp).
//
// Tile outputs are immutable and `compute` is pure, so the result is
// bit-identical to GEP's barrier drivers and to the serial references under
// any schedule, chaos plan, or recovery.
//
// Fault tolerance: carried tiles live as unpinned blocks in the executor
// store between segments (the engine is their BlockSource, so the storage
// ladder can serialize, spill, and restore them). A kill, an eviction, or an
// injected fetch failure loses them, and the engine reads a demoted copy
// back or recomputes through its own lineage (the Node table below) down to
// the input tiles or the last checkpoint snapshot, which is written
// checksummed into the shared store at every checkpoint_interval boundary
// with corruption heal.
//
// The plan interface (GepPlan in driver.hpp; the wavefront plans in
// nested/nested_plan.hpp, paren/paren_plan.hpp and align/align_plan.hpp):
//   value_type                  tile element type
//   kStep                       step variable in labels ('k', 'w')
//   grid_cols(), waves()        grid width (block ids) and number of steps
//   step_tasks(step)            the step's tasks, in emission order: a task
//                               may read an output emitted before it in the
//                               same step (GEP's B/C read A; the accordion's
//                               panels read its diagonal)
//   inputs()                    (key, tile) present before step 0 — pinned
//   tile_bytes(key)             modeled payload of one tile
//   compute(task, in)           one task from its reads' tiles: `in` is a
//                               gs::TileReads, borrowed pointers in
//                               `task.reads` order, built once per task
//   compute_batch(tasks, ins)   one batch task's members, one TileReads each
//   assemble(at)                the result table from the final tiles,
//                               looked up by key (the only keyed read)
//   workload()                  ScheduleChecker's independent DepShape model
//   graph_name(), task_label(task), cb_round(task)   graph metadata
//
// The borrowed reads point into the engine's node table and are valid for
// the call only: no node's `out` is reset and the table does not grow while
// a task graph runs (see reads_of below for where outs are reset).
//
// The header also holds the solve frame both entry points (GepDriver::solve,
// nested::nested_solve) share: the job partitioner, the profiled-solve
// wrapper, and the model-check loop.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/hb_detector.hpp"
#include "analysis/model_check.hpp"
#include "analysis/schedule_check.hpp"
#include "gepspark/options.hpp"
#include "grid/tile.hpp"
#include "obs/span.hpp"
#include "sparklet/context.hpp"
#include "sparklet/item_codec.hpp"
#include "sparklet/partitioner.hpp"
#include "sparklet/storage_level.hpp"
#include "support/check.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace gepspark {

/// One tile task as a plan emits it: the kernel kind, the tile it writes,
/// and the tiles it reads. `reads` lists the kernel's operands in slot
/// order; a tile that fills two slots (GEP's pivot as both u and w) appears
/// twice, consecutively, and is one graph edge. `batch` tasks of one step on
/// one executor run as a single graph task through Plan::compute_batch.
struct TileTask {
  char kind = '?';
  gs::TileKey out{0, 0};
  std::vector<gs::TileKey> reads;
  bool batch = false;
};

/// The job partitioner both solve entry points use: grid-aware or Spark's
/// hash partitioner over `num_partitions` (0 → the cluster default).
inline sparklet::PartitionerPtr job_partitioner(sparklet::SparkContext& sc,
                                                const SolverOptions& opt,
                                                int grid_cols) {
  const int num_parts =
      opt.num_partitions > 0
          ? opt.num_partitions
          : static_cast<int>(sc.config().effective_partitions());
  if (opt.use_grid_partitioner) {
    return std::make_shared<sparklet::GridPartitioner>(num_parts, grid_cols);
  }
  return std::make_shared<sparklet::HashPartitioner>(num_parts);
}

/// Run one solve inside a scoped metrics window and a job span, and return
/// the table with its profile: the shared frame of every solve entry point.
/// Metrics capture is scoped (MetricsScope), so the profile covers exactly
/// this solve even on a reused context.
template <typename T, typename Body>
SolveOutcome<T> profiled_solve(sparklet::SparkContext& sc,
                               const std::string& job, int grid_r,
                               Body&& body) {
  sparklet::MetricsScope scope(sc.metrics(), sc.timeline());
  gs::Stopwatch wall;
  SolveOutcome<T> outcome;
  {
    obs::ScopedSpan job_span(&sc.tracer(), obs::SpanLevel::kJob, job);
    outcome.matrix = body();
  }
  outcome.profile =
      obs::build_job_profile(scope.delta(), sc.timeline(), &sc.tracer());
  outcome.profile.job = job;
  outcome.profile.wall_seconds = wall.seconds();
  outcome.profile.grid_r = grid_r;
  return outcome;
}

/// Model-check the dataflow schedule of a solve (`--model-check`):
/// systematically explore the distinct interleavings of the emitted task
/// graphs (DPOR-pruned to conflicting reorderings) and require every order
/// to produce a bit-identical table with a clean ScheduleChecker and
/// HbDetector verdict. `solve(opt)` runs the solve and returns its
/// SolveOutcome; solves run serially under a ReplayHook, so exploration is
/// deterministic regardless of the context's executor pool.
template <typename SolveFn>
analysis::ModelCheckReport model_check_dataflow(
    sparklet::SparkContext& sc, const SolverOptions& opt,
    const analysis::ModelCheckOptions& mc, SolveFn&& solve) {
  SolverOptions run_opt = opt;
  run_opt.schedule = ScheduleMode::kDataflow;  // hooks drive run_task_graph
  run_opt.validate_schedule = true;  // verdicts at every explored order
  run_opt.model_check = 0;
  run_opt.audit_recovery = false;  // one static audit elsewhere, not per run
  analysis::ModelChecker checker;
  return checker.explore(
      [&sc, &run_opt, &solve](analysis::ReplayHook& hook) {
        analysis::HbDetector detector;
        analysis::RunObservation obs;
        {
          analysis::ReplayScope scope(sc, hook, detector);
          obs.digest = analysis::digest_matrix(solve(run_opt).matrix);
        }
        if (detector.races_found() > 0) {
          obs.checks_ok = false;
          obs.detail = detector.summary();
        }
        return obs;
      },
      mc);
}

template <typename Plan>
class DataflowEngine : public sparklet::BlockSource {
 public:
  using T = typename Plan::value_type;
  using TileR = gs::TileRef<T>;
  using Graphs = std::vector<std::vector<sparklet::DataflowTaskSpec>>;
  using Lineage = std::vector<analysis::LineageSnapshot>;

  DataflowEngine(sparklet::SparkContext& sc, const SolverOptions& opt,
                 const Plan& plan, sparklet::PartitionerPtr part)
      : sc_(sc),
        opt_(opt),
        plan_(plan),
        part_(std::move(part)),
        store_rdd_(sc_.next_rdd_id()),
        cols_(plan.grid_cols()) {
    // The engine is the block source for its carried tiles: when the store
    // demotes one down the storage ladder (serialize / spill), the payload
    // comes from — and readbacks restore into — the Node table.
    sc_.set_block_source(store_rdd_, this);
    if (opt_.validate_schedule) graph_log_ = &own_graphs_;
    if (opt_.audit_recovery) lineage_log_ = &own_lineage_;
  }

  ~DataflowEngine() override {
    sc_.clear_block_source(store_rdd_);  // also removes executor-store blocks
    sc_.shared_fs().remove_rdd_blocks(store_rdd_);
  }

  DataflowEngine(const DataflowEngine&) = delete;
  DataflowEngine& operator=(const DataflowEngine&) = delete;

  /// Test hook: every task graph handed to run_task_graph is also appended
  /// here (one spec vector per segment), so tests can assert the exact edge
  /// set the engine builds. With validate_schedule the checker reads it.
  void set_graph_log(Graphs* log) { graph_log_ = log; }

  /// Analysis hook (`--audit-recovery`): one lineage snapshot per checkpoint
  /// segment — the node table plus the live block set at the boundary — for
  /// analysis::audit_recovery_closure to verify every possible loss
  /// re-derives from pinned data.
  void set_lineage_log(Lineage* log) { lineage_log_ = log; }

  /// Run every step, assemble the result table (after charging the
  /// driver-side gather), then audit the lineage and check the schedule
  /// when the options ask for it.
  gs::Matrix<T> solve() {
    // Input nodes: pinned — the driver holds the input, so lineage
    // recomputation always bottoms out here.
    for (const auto& [key, tile] : plan_.inputs()) {
      Node nd;
      nd.task.out = key;
      nd.out = tile;
      nd.pinned = true;
      nd.bytes = plan_.tile_bytes(key);
      nd.executor = executor_of_key(key);
      set_latest(key, add_node(std::move(nd)));
    }

    // Segments end at checkpoint boundaries: a checkpoint is a global
    // materialization fence (Listings 1 & 2 "checkpoint(DP)"), so lookahead
    // pipelines freely within a segment and synchronizes at its edge.
    const int steps = plan_.waves();
    const int interval = opt_.checkpoint_interval;
    const int seg_len = interval > 0 ? interval : steps;
    int seg_index = 0;
    for (int s = 0; s < steps; s += seg_len, ++seg_index) {
      const int e = std::min(s + seg_len, steps);
      if (seg_index > 0) recover_carried(seg_index);
      run_segment(s, e);
      if (interval > 0 && e % interval == 0) {
        checkpoint_snapshot();
      } else {
        register_carried_blocks();
      }
      drop_stale_outs();
      if (lineage_log_ != nullptr) log_lineage_snapshot(seg_index);
    }

    // Registering the final segment's tiles may have demoted some of them
    // down the storage ladder (releasing the in-memory copy); read them back
    // before the gather.
    restore_latest_outs();
    std::size_t total_bytes = 0;
    for (const TileSlot& t : tiles_) total_bytes += node(t.latest).bytes;
    sc_.charge_collect(total_bytes);  // gatherResult
    gs::Matrix<T> result = plan_.assemble([this](gs::TileKey key) {
      const TileR& out = node(latest_id(key)).out;
      GS_CHECK_MSG(out != nullptr, "final tile missing");
      return out;
    });

    if (opt_.audit_recovery) {
      const analysis::RecoveryAuditReport audit =
          analysis::audit_recovery_closure(*lineage_log_);
      GS_THROW_IF(!audit.ok(), analysis::RecoveryAuditError, audit.summary());
    }
    if (opt_.validate_schedule) {
      analysis::ScheduleCheckOptions copt;
      copt.lookahead = opt_.effective_lookahead();
      copt.in_memory = opt_.strategy == Strategy::kInMemory;
      copt.checkpoint_interval = opt_.checkpoint_interval;
      const analysis::ScheduleCheckReport report =
          analysis::check_dataflow_schedule(plan_.workload(), copt,
                                            *graph_log_);
      GS_THROW_IF(!report.ok(), analysis::ScheduleViolationError,
                  report.summary());
    }
    return result;
  }

 private:
  /// One immutable tile version plus its lineage: the task that made it,
  /// with each read resolved to the producing node. Consumers reference
  /// producer nodes, never keys, so overlapping steps can hold several live
  /// versions of one grid cell.
  struct Node {
    TileTask task;
    int step = -1;          ///< producing step (-1 for inputs)
    std::vector<int> deps;  ///< producing node ids of task.reads
    TileR out;              ///< materialized tile; empty = lost, recomputable
    bool pinned = false;    ///< survives anything (input / checkpoint)
    std::size_t bytes = 0;
    int executor = 0;
    int graph_task = -1;  ///< index in its segment's graph; -1 until pushed
  };

  int add_node(Node nd) {
    nodes_.push_back(std::move(nd));
    return static_cast<int>(nodes_.size() - 1);
  }

  Node& node(int id) { return nodes_[static_cast<std::size_t>(id)]; }
  const Node& node(int id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }

  /// A grid cell and its latest version. tiles_ keeps the cells in the order
  /// they first appear, which fixes the iteration order of every
  /// segment-boundary pass (and so the store's demotion order).
  struct TileSlot {
    gs::TileKey key;
    int latest = -1;
  };

  /// A cell's index, the block id's partition: i * cols + j.
  std::size_t cell_of(gs::TileKey key) const {
    GS_DCHECK(key.i >= 0 && key.j >= 0 && key.j < cols_);
    return static_cast<std::size_t>(key.i) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(key.j);
  }

  const TileSlot* find_tile(gs::TileKey key) const {
    const std::size_t c = cell_of(key);
    if (c >= slot_of_.size() || slot_of_[c] < 0) return nullptr;
    return &tiles_[static_cast<std::size_t>(slot_of_[c])];
  }

  int latest_id(gs::TileKey key) const {
    const TileSlot* t = find_tile(key);
    GS_CHECK_MSG(t != nullptr, "tile read before any task wrote it");
    return t->latest;
  }

  void set_latest(gs::TileKey key, int id) {
    const std::size_t c = cell_of(key);
    if (c >= slot_of_.size()) slot_of_.resize(c + 1, -1);
    int& slot = slot_of_[c];
    if (slot < 0) {
      slot = static_cast<int>(tiles_.size());
      tiles_.push_back({key, id});
    } else {
      tiles_[static_cast<std::size_t>(slot)].latest = id;
    }
  }

  /// Add the node for an emitted task: reads resolve to the latest versions
  /// now, then the task's output becomes the latest version of its tile.
  int add_task_node(TileTask task, int step) {
    Node nd;
    nd.step = step;
    nd.bytes = plan_.tile_bytes(task.out);
    nd.executor = executor_of_key(task.out);
    nd.deps.reserve(task.reads.size());
    for (const gs::TileKey& rd : task.reads) nd.deps.push_back(latest_id(rd));
    nd.task = std::move(task);
    const gs::TileKey out = nd.task.out;
    const int id = add_node(std::move(nd));
    set_latest(out, id);
    return id;
  }

  int executor_of_key(gs::TileKey key) const {
    return sc_.executor_of(part_->partition_of(sparklet::key_hash(key)));
  }

  sparklet::BlockId block_id(gs::TileKey key) const {
    return {store_rdd_, static_cast<int>(cell_of(key))};
  }

  gs::TileKey key_of_block(const sparklet::BlockId& id) const {
    return {id.partition / cols_, id.partition % cols_};
  }

  // --------------------------- task execution ---------------------------

  // A task reads its inputs as borrowed pointers into the node table,
  // resolved once per task. That is sound because no node's `out` is reset
  // and nodes_ does not grow while a graph runs: nodes are added only while
  // a segment's graph is built, and outs are reset only between graphs — by
  // drop_stale_outs, recover_carried, release_block (a demotion during
  // register_carried_blocks), and the checkpoint heal.

  /// The tiles `nd` reads, in `task.reads` order.
  std::vector<const gs::Tile<T>*> reads_of(const Node& nd) const {
    std::vector<const gs::Tile<T>*> in;
    in.reserve(nd.deps.size());
    for (int dep : nd.deps) {
      in.push_back(node(dep).out.get());
      GS_DCHECK(in.back() != nullptr);
    }
    return in;
  }

  void note_reads(const Node& nd) const {
    if (analysis::HbDetector* det = sc_.race_detector()) {
      for (int dep : nd.deps) {
        det->on_read(analysis::HbDetector::tile_location(store_rdd_, dep),
                     "tile");
      }
    }
  }

  void note_write(int id) const {
    if (analysis::HbDetector* det = sc_.race_detector()) {
      det->on_write(analysis::HbDetector::tile_location(store_rdd_, id),
                    "tile");
    }
  }

  /// Execute one node's task with race-detector footprints.
  void execute(int id) {
    Node& nd = node(id);
    note_reads(nd);
    nd.out = plan_.compute(nd.task, reads_of(nd));
    note_write(id);
  }

  /// Execute one batch task: per-member race-detector footprints are those
  /// of the per-tile path; only the kernel invocation coalesces.
  void execute_batch(const std::vector<int>& group) {
    std::vector<const TileTask*> tasks;
    std::vector<std::vector<const gs::Tile<T>*>> reads;
    tasks.reserve(group.size());
    reads.reserve(group.size());
    for (int id : group) {
      const Node& nd = node(id);
      note_reads(nd);
      tasks.push_back(&nd.task);
      reads.push_back(reads_of(nd));
    }
    std::vector<TileR> outs = plan_.compute_batch(
        tasks, std::vector<gs::TileReads<T>>(reads.begin(), reads.end()));
    for (std::size_t m = 0; m < group.size(); ++m) {
      node(group[m]).out = std::move(outs[m]);
      note_write(group[m]);
    }
  }

  // --------------------- storage-tier block source ---------------------
  //
  // Demotions and readbacks always target the *latest* version of a grid
  // cell — that is the only version register_carried_blocks tracks in the
  // executor store, so block ids map 1:1 onto tiles_ entries.

  std::optional<std::vector<std::uint8_t>> encode_block(
      const sparklet::BlockId& id) const override {
    const TileSlot* t = find_tile(key_of_block(id));
    if (t == nullptr) return std::nullopt;
    const Node& nd = node(t->latest);
    if (nd.out == nullptr) return std::nullopt;
    return sparklet::encode_payload(nd.out, nd.bytes);
  }

  bool restore_block(const sparklet::BlockId& id,
                     const std::vector<std::uint8_t>& payload) override {
    const TileSlot* t = find_tile(key_of_block(id));
    if (t == nullptr) return false;
    Node& nd = node(t->latest);
    if (nd.out != nullptr) return true;  // idempotent (concurrent readback)
    TileR tile;
    if (!sparklet::decode_payload(payload, tile)) return false;
    nd.out = std::move(tile);
    return true;
  }

  void release_block(const sparklet::BlockId& id) override {
    const TileSlot* t = find_tile(key_of_block(id));
    if (t == nullptr) return;
    Node& nd = node(t->latest);
    if (!nd.pinned) nd.out.reset();
  }

  // ------------------------- segment execution -------------------------

  void run_segment(int s, int e) {
    const int num_exec = sc_.config().num_executors();
    const bool im = opt_.strategy == Strategy::kInMemory;

    std::vector<sparklet::DataflowTaskSpec> specs;
    std::vector<std::vector<int>> task_nodes;  // per graph task; xfer/fence: {}
    // Nodes before first_node were made by earlier segments' graphs.
    const int first_node = static_cast<int>(nodes_.size());
    std::vector<int> xfer_memo;  // producer*num_exec+dest → task; -1: none
    std::vector<int> fences;  // fence task per step offset (step - s)
    std::vector<int> step_tasks;
    std::size_t shuffle_bytes = 0;
    std::map<std::pair<int, int>, std::size_t> cb_bytes;  // (step, round)

    auto push_task = [&](sparklet::DataflowTaskSpec t, std::vector<int> ids) {
      specs.push_back(std::move(t));
      const int idx = static_cast<int>(specs.size() - 1);
      for (int id : ids) node(id).graph_task = idx;
      task_nodes.push_back(std::move(ids));
      step_tasks.push_back(idx);
      return idx;
    };

    // Route one data edge (producer node → consumer executor). Tiles carried
    // from earlier segments are already resident — no edge needed. IM
    // cross-executor edges go through a modeled transfer task, memoised per
    // producer × destination.
    auto route = [&](int node_id, int consumer_exec, std::vector<int>& deps) {
      if (node_id < first_node) return;
      const int producer = node(node_id).graph_task;
      if (producer < 0) return;  // a batch member before its batch is pushed
      if (!im || specs[static_cast<std::size_t>(producer)].executor ==
                     consumer_exec) {
        deps.push_back(producer);
        return;
      }
      const auto memo_key =
          static_cast<std::size_t>(producer * num_exec + consumer_exec);
      if (memo_key >= xfer_memo.size()) {
        xfer_memo.resize(specs.size() * static_cast<std::size_t>(num_exec), -1);
      }
      if (xfer_memo[memo_key] >= 0) {
        deps.push_back(xfer_memo[memo_key]);
        return;
      }
      const Node& src = node(node_id);
      sparklet::DataflowTaskSpec t;
      t.label = "shuffleXfer";
      t.deps = {producer};
      t.executor = consumer_exec;
      t.category = sparklet::TimeCategory::kShuffle;
      t.transfer = true;
      t.gep_kind = 'X';
      t.gep_k = src.step;
      t.tile_i = src.task.out.i;
      t.tile_j = src.task.out.j;
      t.model_s = sc_.config().network.latency_s +
                  static_cast<double>(src.bytes) /
                      sc_.config().network.bandwidth_Bps;
      shuffle_bytes += src.bytes;
      const int idx = push_task(std::move(t), {});
      xfer_memo[memo_key] = idx;
      deps.push_back(idx);
    };

    auto route_reads = [&](const Node& nd, int exec, std::vector<int>& deps) {
      for (std::size_t r = 0; r < nd.deps.size(); ++r) {
        if (r > 0 && nd.deps[r] == nd.deps[r - 1]) continue;  // one operand
        route(nd.deps[r], exec, deps);
      }
    };

    // Lookahead: step st may not start before the fence of step
    // st - lookahead - 1 (when that fence is in this segment).
    auto gate = [&](int st, std::vector<int>& deps) {
      const int g = st - opt_.effective_lookahead() - 1;
      if (g >= s) deps.push_back(fences[static_cast<std::size_t>(g - s)]);
    };

    auto add_task = [&](int id) {
      const Node& nd = node(id);
      sparklet::DataflowTaskSpec t;
      t.label = plan_.task_label(nd.task);
      t.executor = nd.executor;
      t.gep_kind = nd.task.kind;
      t.gep_k = nd.step;
      t.tile_i = nd.task.out.i;
      t.tile_j = nd.task.out.j;
      route_reads(nd, nd.executor, t.deps);
      gate(nd.step, t.deps);
      push_task(std::move(t), {id});
    };

    // A batch task keeps per-tile identity in `batch` (union footprint for
    // ScheduleChecker); its deps are the deduped union of the members'
    // routed edges, and downstream consumers of any member route to it.
    auto add_batch_task = [&](const std::vector<int>& group, int exec,
                              int st) {
      const TileTask& first = node(group.front()).task;
      sparklet::DataflowTaskSpec t;
      t.label = plan_.task_label(first);
      t.executor = exec;
      t.gep_kind = first.kind;
      t.gep_k = st;
      for (int id : group) {
        const Node& nd = node(id);
        t.batch.push_back({nd.task.out.i, nd.task.out.j});
        route_reads(nd, exec, t.deps);
      }
      std::sort(t.deps.begin(), t.deps.end());
      t.deps.erase(std::unique(t.deps.begin(), t.deps.end()), t.deps.end());
      gate(st, t.deps);
      push_task(std::move(t), group);
    };

    for (int st = s; st < e; ++st) {
      step_tasks.clear();
      std::map<int, std::vector<int>> batches;  // executor → member nodes
      for (TileTask& task : plan_.step_tasks(st)) {
        const int round = plan_.cb_round(task);
        const bool batch = task.batch;
        const int id = add_task_node(std::move(task), st);
        if (round >= 0) cb_bytes[{st, round}] += node(id).bytes;
        if (batch) {
          batches[node(id).executor].push_back(id);
        } else {
          add_task(id);
        }
      }
      for (const auto& [exec, group] : batches) add_batch_task(group, exec, st);

      // Zero-cost fence summarizing step st, the lookahead anchor.
      sparklet::DataflowTaskSpec f;
      f.label = "fence";
      f.deps = step_tasks;
      f.transfer = true;  // exempt from chaos/metrics, zero modeled cost
      f.gep_kind = 'F';
      f.gep_k = st;
      specs.push_back(std::move(f));
      task_nodes.emplace_back();
      fences.push_back(static_cast<int>(specs.size() - 1));
    }

    obs::Tracer* tr = &sc_.tracer();
    auto body = [&](int ti) {
      const std::vector<int>& ids = task_nodes[static_cast<std::size_t>(ti)];
      if (ids.empty()) return;  // transfer or fence
      const Node& first = node(ids.front());
      if (specs[static_cast<std::size_t>(ti)].batch.empty()) {
        obs::ScopedSpan kernel_span(tr, obs::SpanLevel::kKernel,
                                    std::string_view(&first.task.kind, 1),
                                    first.step);
        execute(ids.front());
      } else {
        obs::ScopedSpan kernel_span(
            tr, obs::SpanLevel::kKernel,
            std::string(1, first.task.kind) + "batch", first.step);
        execute_batch(ids);
      }
    };
    if (graph_log_ != nullptr) graph_log_->push_back(specs);
    sc_.run_task_graph(
        gs::strfmt("%s(%c=%d..%d)", plan_.graph_name().c_str(), Plan::kStep,
                   s, e - 1),
        specs, body, im ? shuffle_bytes : 0);

    if (!im) {
      // CB ships tiles through the driver: collect + shared-storage
      // broadcast per step and round (GEP: the pivot, then its row and
      // column; a wavefront: the whole wave).
      for (const auto& [step_round, bytes] : cb_bytes) {
        if (bytes > 0) {
          sc_.charge_collect(bytes);
          sc_.charge_broadcast(bytes);
        }
      }
    }
  }

  // ------------------------- recovery & snapshots -------------------------

  /// Segment entry: chaos may have lost carried tiles since the last graph
  /// ran (executor kill dropped their blocks, memory pressure evicted them,
  /// or an injected fetch failure claims one outright). Anything missing is
  /// recomputed through the node lineage down to pinned data.
  void recover_carried(int seg_index) {
    const sparklet::ChaosPlan& chaos = sc_.chaos_plan();
    std::vector<int> unpinned;
    for (const TileSlot& t : tiles_) {
      if (!node(t.latest).pinned) unpinned.push_back(t.latest);
    }
    if (chaos.fetch_failure_prob > 0.0 && !unpinned.empty()) {
      gs::Rng rng(sparklet::chaos_event_seed(
          chaos.seed, sparklet::kChaosFetch,
          static_cast<std::uint64_t>(store_rdd_),
          static_cast<std::uint64_t>(seg_index), 0));
      if (rng.bernoulli(chaos.fetch_failure_prob)) {
        Node& nd = node(unpinned[rng.uniform_u64(unpinned.size())]);
        nd.out.reset();
        sc_.executor_store().remove_block(block_id(nd.task.out));
        sc_.metrics().note_fetch_failure();
        sc_.metrics().note_partitions_dropped(1);
        sc_.timeline().add_marker("fetch-failure");
        sc_.timeline().add_serial("stage-retry-backoff",
                                  sc_.config().stage_overhead_s,
                                  sparklet::TimeCategory::kRecovery);
      }
    }
    for (int id : unpinned) {
      Node& nd = node(id);
      if (nd.out != nullptr &&
          !sc_.executor_store().has_block(block_id(nd.task.out))) {
        nd.out.reset();  // lost to a kill or an eviction
        sc_.metrics().note_partitions_dropped(1);
      }
    }
    restore_latest_outs();
  }

  /// Bring every latest tile back in memory: readback first (a demoted copy
  /// on the serialized or disk tier restores the tile without touching
  /// lineage), recomputation for anything genuinely lost.
  void restore_latest_outs() {
    gs::Stopwatch sw;
    int recomputed = 0;
    for (const TileSlot& t : tiles_) {
      if (node(t.latest).out == nullptr) {
        sc_.try_block_readback(block_id(t.key));
      }
      recomputed += recompute_now(t.latest);
    }
    sc_.flush_storage_charges();
    if (recomputed > 0) {
      sc_.metrics().note_partitions_recomputed(recomputed);
      sc_.timeline().add_serial(
          "recompute",
          sw.seconds() + recomputed * sc_.config().task_overhead_s,
          sparklet::TimeCategory::kRecovery);
    }
  }

  /// Re-run the pure task chain for a lost tile version, as driver-side
  /// lineage recomputation between graphs. Inputs recurse; the chain bottoms
  /// out at input tiles, read-free tasks (a recurrence seeding itself from
  /// the problem instance), or checkpoint snapshots. Purity ⇒ the
  /// recomputed tile is bit-identical.
  int recompute_now(int id) {
    Node& nd = node(id);
    if (nd.out != nullptr) return 0;
    GS_CHECK_MSG(nd.step >= 0, "input tile cannot be lost");
    int count = 0;
    for (int dep : nd.deps) count += recompute_now(dep);
    execute(id);
    return count + 1;
  }

  /// Non-checkpoint segment boundary: carried tiles become unpinned cached
  /// blocks in the executor store, giving kills and memory pressure
  /// something concrete to lose.
  void register_carried_blocks() {
    for (const TileSlot& t : tiles_) {
      const Node& nd = node(t.latest);
      if (nd.pinned) continue;
      try {
        sc_.executor_store().put_block(nd.executor, block_id(t.key), nd.bytes,
                                       /*checksum=*/0, /*pinned=*/false,
                                       opt_.storage_level);
      } catch (const gs::CapacityError&) {
        // Executor memory is full even after demotion down the storage
        // ladder: the tile goes untracked and will be recomputed next
        // segment (graceful degradation, like MEMORY_ONLY caching).
      }
    }
    sc_.flush_storage_charges();
  }

  /// Checkpoint boundary: write every carried tile checksummed + pinned into
  /// the shared store, healing injected corruption through lineage, then
  /// truncate — the snapshot becomes the new recomputation floor.
  void checkpoint_snapshot() {
    obs::ScopedSpan span(&sc_.tracer(), obs::SpanLevel::kStage, "checkpoint",
                         store_rdd_);
    double io_s = 0.0;
    int recomputed = 0;
    for (const TileSlot& t : tiles_) {
      const int id = t.latest;
      Node& nd = node(id);
      if (nd.pinned) continue;  // already snapshotted (untouched tile)
      std::uint64_t sum_state = static_cast<std::uint64_t>(id) ^
                                (static_cast<std::uint64_t>(store_rdd_) << 32);
      io_s += sc_.write_checkpoint_block(block_id(t.key), nd.bytes,
                                         gs::splitmix64(sum_state), [&] {
                                           nd.out.reset();
                                           recomputed += recompute_now(id);
                                         });
      nd.pinned = true;
    }
    sc_.timeline().add_serial("checkpoint", io_s,
                              sparklet::TimeCategory::kRecovery);
    if (recomputed > 0) sc_.metrics().note_partitions_recomputed(recomputed);
    // The snapshot lives pinned in shared storage; cached-block entries for
    // the carried tiles are obsolete.
    sc_.executor_store().remove_rdd_blocks(store_rdd_);
  }

  /// Serialize the node table + live set for the recovery-closure auditor.
  /// Runs at the segment boundary AFTER the checkpoint/registration step, so
  /// the snapshot reflects exactly what a failure in the NEXT segment could
  /// take away and what recovery would then have to stand on. Nodes without
  /// reads (inputs, read-free tasks) are the closure's sources.
  void log_lineage_snapshot(int seg_index) {
    analysis::LineageSnapshot snap;
    snap.segment = seg_index;
    snap.nodes.reserve(nodes_.size());
    for (const Node& nd : nodes_) {
      const gs::TileKey key = nd.task.out;
      analysis::LineageRecord rec;
      rec.label = nd.step < 0
                      ? gs::strfmt("input(%d,%d)", key.i, key.j)
                      : gs::strfmt("%c(%d,%d)@%c=%d", nd.task.kind, key.i,
                                   key.j, Plan::kStep, nd.step);
      rec.k = nd.step;
      rec.pinned = nd.pinned;
      rec.source = nd.deps.empty();
      rec.deps = nd.deps;
      snap.nodes.push_back(std::move(rec));
    }
    snap.live.reserve(tiles_.size());
    for (const TileSlot& t : tiles_) snap.live.push_back(t.latest);
    std::sort(snap.live.begin(), snap.live.end());
    lineage_log_->push_back(std::move(snap));
  }

  /// Lineage truncation: superseded, unpinned tile versions drop their
  /// payloads (recomputable from the latest snapshot if recovery ever needs
  /// them again).
  void drop_stale_outs() {
    std::vector<char> is_latest(nodes_.size(), 0);
    for (const TileSlot& t : tiles_) {
      is_latest[static_cast<std::size_t>(t.latest)] = 1;
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!is_latest[i] && !nodes_[i].pinned) nodes_[i].out.reset();
    }
  }

  sparklet::SparkContext& sc_;
  const SolverOptions& opt_;
  const Plan& plan_;
  sparklet::PartitionerPtr part_;
  const int store_rdd_;  ///< block/chaos namespace for this engine
  const int cols_;

  std::vector<Node> nodes_;
  std::vector<TileSlot> tiles_;
  std::vector<int> slot_of_;  ///< cell_of(key) → tiles_ index; -1: unwritten
  Graphs* graph_log_ = nullptr;
  Lineage* lineage_log_ = nullptr;
  Graphs own_graphs_;    ///< validate_schedule's log when no test log is set
  Lineage own_lineage_;  ///< audit_recovery's log when no test log is set
};

}  // namespace gepspark

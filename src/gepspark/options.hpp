// options.hpp — user-facing configuration of the GEP-on-Spark solver:
// the paper's tunables (block decomposition r via block size, IM vs CB
// strategy, kernel flavour, r_shared, OMP threads) plus the future-work
// grid partitioner toggle.
#pragma once

#include <cstddef>
#include <string>

#include "grid/matrix.hpp"
#include "kernels/kernel_config.hpp"
#include "obs/job_profile.hpp"
#include "semiring/axioms.hpp"
#include "sparklet/storage_level.hpp"
#include "support/format.hpp"

namespace gepspark {

enum class Strategy : int {
  kInMemory = 0,          ///< Listing 1: combineByKey fan-out (shuffles)
  kCollectBroadcast = 1,  ///< Listing 2: collect() + shared-storage broadcast
};

inline const char* strategy_name(Strategy s) {
  return s == Strategy::kInMemory ? "IM" : "CB";
}

enum class ScheduleMode : int {
  /// GEP: the paper's per-phase barrier loop (A, then B/C, then D). A
  /// wavefront plan has no barrier loop: it runs the dataflow engine at
  /// lookahead 0, which fences every wave.
  kBarrier = 0,
  kDataflow = 1,  ///< tile-level dependency DAG with pivot lookahead
};

inline const char* schedule_name(ScheduleMode m) {
  return m == ScheduleMode::kBarrier ? "barrier" : "dataflow";
}

struct SolverOptions {
  /// Tile side b; the grid side r = ceil(n / b) is the paper's top-level
  /// decomposition parameter.
  std::size_t block_size = 256;

  Strategy strategy = Strategy::kInMemory;

  /// Per-tile kernel configuration: the schedule (iterative vs r_shared-way
  /// recursive vs tiled) and the base-case backend (`kernel.base`: scalar
  /// loops vs the SIMD micro-kernels; kAuto picks SIMD when the build has
  /// vector units). Both drivers honour it on every executor task.
  gs::KernelConfig kernel = gs::KernelConfig::iterative();

  /// Number of RDD partitions (0 → cluster default of 2 × total cores).
  int num_partitions = 0;

  /// Use the grid-aware partitioner (paper §VI future work) instead of
  /// Spark's default hash partitioner.
  bool use_grid_partitioner = false;

  /// Checkpoint the DP table every k outer iterations (1 = every iteration,
  /// the paper's listings; 0 = never — the lineage then grows with r and a
  /// failure at iteration k replays all the way from the input). Larger
  /// intervals trade checkpoint I/O against recovery depth.
  int checkpoint_interval = 1;

  /// Barrier (the paper's listings) vs the tile-level dataflow scheduler,
  /// which releases each tile task the moment its inputs are ready. Output
  /// is bit-identical either way — the dataflow DAG encodes exactly the
  /// dependencies the barrier loop over-approximates. The barrier loop is
  /// GEP's alone: nested::nested_solve runs a wavefront plan on the
  /// dataflow engine under either mode, and kBarrier there means lookahead
  /// 0 (effective_lookahead()), so the default-options wavefront solve is
  /// the engine with a fence on every wave.
  ScheduleMode schedule = ScheduleMode::kBarrier;

  /// Pivot lookahead depth under kDataflow: tiles of iteration k+lookahead
  /// may start while iteration k's trailing update still runs. 0 pins a
  /// barrier between iterations (but still overlaps phases within one);
  /// higher depths overlap more iterations at the cost of holding more tile
  /// versions live. -1 ("auto", the default) resolves to 1 under kDataflow
  /// and is a no-op under kBarrier; an explicit value > 0 with the barrier
  /// scheduler is rejected by validate() — the barrier loop cannot overlap
  /// iterations, so the request would be silently ignored.
  int lookahead = kAutoLookahead;

  static constexpr int kAutoLookahead = -1;

  /// The lookahead depth the dataflow engine actually runs with: resolves
  /// the auto sentinel, and is 0 under kBarrier regardless of the field.
  int effective_lookahead() const {
    if (schedule != ScheduleMode::kDataflow) return 0;
    return lookahead == kAutoLookahead ? 1 : lookahead;
  }

  /// Fused D phase: pack the step-k pivot panels once (kernels/panel_pack)
  /// and walk each executor's trailing tiles with the batched semiring GEMM
  /// (kernels/fused_d) instead of one kernel dispatch per tile. Under
  /// kDataflow the engine emits one "DBatchGE" task per (executor, k); the
  /// barrier drivers batch per partition. Bit-identical to the per-tile path
  /// (unless kernel.strassen_d additionally opts a field spec into the
  /// reassociated Strassen split).
  bool fused_d = false;

  /// Run the static schedule soundness checker (analysis::ScheduleChecker)
  /// on every task graph the dataflow engine emits, after the solve; an
  /// unsound schedule throws analysis::ScheduleViolationError. Requires
  /// kDataflow (the barrier loop emits no task graphs to check).
  bool validate_schedule = false;

  /// Storage level for the DP table's cached tiles (Spark's persist()).
  /// Under executor-memory pressure blocks demote down the level's ladder —
  /// serialize in place, then spill to real per-node files — instead of
  /// being dropped and recomputed. MEMORY_AND_DISK(+_SER) / DISK_ONLY enable
  /// out-of-core solves under a --memory-cap smaller than the table.
  sparklet::StorageLevel storage_level = sparklet::StorageLevel::kMemoryOnly;

  /// Record per-(u,v) predecessor hops alongside the DP values (FW only:
  /// the solve runs the FwPredSpec pair-valued semiring, so every A/B/C/D
  /// kernel carries the predecessor through unchanged machinery). Doubles
  /// the tile payload; the serve layer needs it for path reconstruction.
  bool track_predecessors = false;

  /// Per-solve executor memory budget in bytes (0 = the cluster default).
  /// Only meaningful with a disk-backed storage level — a cap under
  /// MEMORY_ONLY would silently degrade to lossy eviction + recomputation,
  /// so validate() rejects that combination.
  std::size_t memory_cap = 0;

  /// Statically audit the lineage-recovery closure after the solve: the
  /// dataflow engine logs a lineage snapshot at every segment boundary and
  /// analysis::audit_recovery_closure verifies that every block a ChaosPlan
  /// could lose re-derives from surviving checkpoints — complete, acyclic,
  /// and never reading anything newer than its producing k. Requires
  /// kDataflow (the barrier drivers checkpoint whole RDDs via Spark
  /// lineage, which the auditor has nothing to say about).
  bool audit_recovery = false;

  /// Schedule-space model-checking budget: the maximum number of distinct
  /// interleavings analysis::ModelChecker may replay (0 = off). The CLI
  /// maps --model-check[=budget] here; the solve itself is re-run under the
  /// SchedulerHook rather than this knob changing the normal execution.
  int model_check = 0;

  /// Reject incoherent option combinations once, at submission, with a
  /// named message — instead of failing deep inside the drivers (or worse,
  /// silently ignoring a knob). Every rejection here has a unit test.
  ///
  /// When instantiated with the GepSpec being solved (the drivers pass it;
  /// plain validate() keeps the Spec-agnostic checks for callers that have
  /// no Spec at hand), strassen_d is additionally gated on PROVEN ring
  /// axioms: audit_strassen_ring<Spec> (semiring/axioms.hpp) must certify
  /// the update is x + δ(u, v) with δ bilinear, replacing the old
  /// hand-maintained eligibility trait.
  template <typename Spec = void>
  void validate() const {
    GS_THROW_IF(block_size == 0, gs::ConfigError, "block_size must be > 0");
    GS_THROW_IF(num_partitions < 0, gs::ConfigError,
                "num_partitions must be >= 0");
    GS_THROW_IF(checkpoint_interval < 0, gs::ConfigError,
                "checkpoint_interval must be >= 0");
    GS_THROW_IF(lookahead < kAutoLookahead, gs::ConfigError,
                "lookahead must be >= 0 (or -1 for auto)");
    GS_THROW_IF(lookahead > 0 && schedule != ScheduleMode::kDataflow,
                gs::ConfigError,
                "lookahead > 0 requires the dataflow schedule (the barrier "
                "loop cannot overlap iterations)");
    GS_THROW_IF(validate_schedule && schedule != ScheduleMode::kDataflow,
                gs::ConfigError,
                "validate_schedule requires the dataflow schedule");
    GS_THROW_IF(kernel.strassen_d && !fused_d, gs::ConfigError,
                "strassen_d requires fused_d (the Strassen split only exists "
                "inside the batched D backend)");
    GS_THROW_IF(
        memory_cap > 0 && storage_level == sparklet::StorageLevel::kMemoryOnly,
        gs::ConfigError,
        "memory_cap requires a disk-backed storage level (MEMORY_ONLY evicts "
        "under pressure instead of spilling; use memory_and_disk[_ser] or "
        "disk_only)");
    GS_THROW_IF(audit_recovery && schedule != ScheduleMode::kDataflow,
                gs::ConfigError,
                "audit_recovery requires the dataflow schedule (the barrier "
                "drivers emit no lineage snapshots to audit)");
    GS_THROW_IF(model_check < 0, gs::ConfigError,
                "model_check budget must be >= 0");
    if constexpr (!std::is_void_v<Spec>) {
      if (kernel.strassen_d) {
        bool ring = false;
        if constexpr (std::is_same_v<typename Spec::value_type, double>) {
          ring = gs::audit_strassen_ring<Spec>().ring;
        }
        GS_THROW_IF(
            !ring, gs::ConfigError,
            gs::strfmt("strassen_d requires proven ring axioms: "
                       "audit_strassen_ring rejected Spec '%s' (update is "
                       "not x + δ(u,v) with δ bilinear)",
                       Spec::name()));
      }
    }
    kernel.validate();
  }

  std::string describe() const {
    std::string sched;
    if (schedule == ScheduleMode::kDataflow) {
      sched = gs::strfmt(" dataflow(lookahead=%d)", effective_lookahead());
    }
    std::string storage;
    if (storage_level != sparklet::StorageLevel::kMemoryOnly) {
      storage = gs::strfmt(" %s", sparklet::storage_level_name(storage_level));
    }
    return gs::strfmt("%s b=%zu %s%s%s%s%s", strategy_name(strategy),
                      block_size, kernel.describe().c_str(), sched.c_str(),
                      fused_d ? " fused-d" : "",
                      use_grid_partitioner ? " grid-partitioner" : "",
                      storage.c_str());
  }
};

/// validate() plus a named rejection of each GEP-only knob: the check of
/// nested::nested_solve, which the serve layer also runs at submit time.
inline void validate_wavefront_options(const SolverOptions& opt) {
  opt.validate();
  GS_THROW_IF(opt.fused_d, gs::ConfigError,
              "fused_d applies only to GEP-shaped workloads (the nested "
              "wavefronts have no D phase to batch)");
  GS_THROW_IF(opt.track_predecessors, gs::ConfigError,
              "track_predecessors applies only to the FW spec");
}

/// Result of one solve through the unified entry point: the processed table
/// and the structured execution profile (virtual-time buckets, GEP-phase
/// split, per-iteration slices when tracing is enabled on the context,
/// bytes, recovery work).
template <typename T>
struct SolveOutcome {
  gs::Matrix<T> matrix;
  obs::JobProfile profile;
};

}  // namespace gepspark

// schedule_check.hpp — static soundness checker for dataflow tile schedules.
//
// The r-way GEP schedule is only correct if every read-after-write of the
// update set Σ_G (`c[i,j] = f(c[i,j], c[i,k], c[k,j], c[k,k])`) survives the
// translation into a task graph. The checker re-derives, symbolically and
// *independently of the engine*, the exact read/write tile footprints of
// every A/B/C/D task from the workload spec (r, Σ_G shape, whether f reads
// the pivot tile), then verifies an emitted task graph against them:
//
//   * completeness — the graph contains exactly the tile tasks the schedule
//     demands for each iteration of the segment (no missing, extra, or
//     duplicated writers);
//   * read coverage — every read of tile version v lies on a happens-before
//     path from the task that produced v (reachability over the dep DAG, so
//     orderings established transitively, e.g. through fences, count);
//   * freshness — a read ordered only after an older version of its tile is
//     reported as stale, naming the producing write and the missing edge;
//   * write serialization — successive writers of one tile are path-ordered
//     (no write-write conflict can reorder versions);
//   * communication fidelity (IM) — a cross-executor read is mediated by a
//     transfer task on the consumer's executor fed directly by the producer
//     (CB ships pivots through driver collect/broadcast instead, so plain
//     happens-before suffices there);
//   * pipeline policy — iteration k is gated on the fence of iteration
//     k - lookahead - 1 within the segment, and each fence covers every
//     compute task of its iteration.
//
// Checkpoint segmentation: the engine emits one graph per segment and
// carries tile versions across the boundary; ScheduleChecker threads the
// per-tile version map across check_segment() calls the same way, treating
// versions older than the segment as resident inputs (the engine's
// recover_carried() guarantees their availability, recomputing through
// lineage if chaos lost them).
//
// The checker never looks at task *indices* to decide identity — tasks
// carry structured metadata (DataflowTaskSpec::gep_kind/gep_k/tile_i/tile_j)
// stamped by the engine, and the checker cross-validates that metadata
// against the symbolic schedule before trusting it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "grid/tile.hpp"
#include "sparklet/task_graph.hpp"

namespace analysis {

/// Dependency shape of a tiled DP schedule. GEP is the paper's
/// pivot-mediated A/B/C/D family; the others are wavefronts whose cells have
/// non-O(1) fan-in (row sweeps, column sweeps, full previous-row reads) or
/// exchange only boundaries:
///   kGap       — anti-diagonal wavefront, task 'G' per tile (bi,bj) at wave
///                bi+bj reading the tile-row prefix, tile-column prefix, and
///                the diagonal neighbour;
///   kAccordion — column wavefront over the lower triangle, same-wave phases
///                diagonal 'E' then panels 'P', reading the previous column's
///                source row up to the diagonal;
///   kViterbi   — row wavefront over a rows×r trellis, task 'V' per row
///                segment reading EVERY tile of the previous row;
///   kParen     — upper-triangle wavefront, task 'I' per tile (bi,bi+d) at
///                wave d reading its row and column up to both diagonals;
///   kAlign     — anti-diagonal wavefront over rows×r, task 'S' per tile
///                reading the tiles above, left and at the corner.
enum class DepShape : std::uint8_t {
  kGep = 0,
  kGap = 1,
  kAccordion = 2,
  kViterbi = 3,
  kParen = 4,
  kAlign = 5,
};

/// The schedule-shaping facts of a workload: derived from a GepSpec
/// (`make_schedule_workload<Spec>(r)`), or for a wavefront plan its grid and
/// DepShape (the plan's workload()).
struct ScheduleWorkload {
  int r = 0;               ///< grid side / tile columns (GEP: iterations 0..r-1)
  bool strict_sigma = false;  ///< Σ_G = {i>k ∧ j>k} (GE) vs all triples
  bool uses_w = false;        ///< f reads c[k,k] → D also consumes the pivot
  DepShape shape = DepShape::kGep;
  int rows = 0;  ///< tile rows when the grid is not square (0 = square: r)

  int grid_rows() const { return rows > 0 ? rows : r; }
  /// Wavefront count — the outer-loop trip count the engine segments over.
  int waves() const {
    switch (shape) {
      case DepShape::kGap: return 2 * r - 1;
      case DepShape::kViterbi: return grid_rows();
      case DepShape::kAlign: return grid_rows() + r - 1;
      default: return r;  // GEP iterations / accordion columns / paren waves
    }
  }
};

template <typename Spec>
ScheduleWorkload make_schedule_workload(int r) {
  return ScheduleWorkload{r, Spec::kStrictSigma, Spec::kUsesW};
}

struct ScheduleCheckOptions {
  int lookahead = 1;
  /// IM routes cross-executor data edges through transfer tasks; CB ships
  /// pivots via driver collect/broadcast and needs no per-edge transfers.
  bool in_memory = false;
  /// Segment length the engine used (0 = one segment covering all of r).
  int checkpoint_interval = 1;
};

enum class ViolationKind : std::uint8_t {
  kMalformedGraph = 0,   ///< dep index out of range / non-DAG ordering
  kBadMetadata = 1,      ///< task metadata absent or inconsistent
  kMissingTask = 2,      ///< schedule demands a tile task the graph lacks
  kUnexpectedTask = 3,   ///< tile task the schedule never asked for
  kDuplicateWrite = 4,   ///< two tasks claim the same (tile, iteration)
  kUnorderedRead = 5,    ///< read not happens-before-ordered after producer
  kStaleRead = 6,        ///< read ordered only after an older tile version
  kUnorderedWrite = 7,   ///< successive writers of a tile not path-ordered
  kMissingTransfer = 8,  ///< IM cross-executor read without a transfer task
  kLookaheadOverrun = 9, ///< task not gated on fence(k - lookahead - 1)
  kFenceIncomplete = 10, ///< fence does not cover its whole iteration
};

const char* violation_kind_name(ViolationKind kind);

struct Violation {
  ViolationKind kind = ViolationKind::kMalformedGraph;
  int segment = -1;  ///< segment index the graph belongs to
  int task = -1;     ///< offending task (index within the segment graph)
  int other = -1;    ///< related task (producer / prior writer / fence), -1 if n/a
  std::string message;  ///< human-readable, names labels and the missing edge
};

struct ScheduleCheckReport {
  std::vector<Violation> violations;
  int segments = 0;
  int tasks = 0;      ///< compute (tile) tasks checked
  int transfers = 0;  ///< transfer tasks seen
  int reads = 0;      ///< symbolic reads verified
  int writes = 0;     ///< symbolic writes verified

  bool ok() const { return violations.empty(); }
  /// One-line verdict plus (on failure) every violation message.
  std::string summary() const;
};

/// Thrown by callers (driver `--validate-schedule` path) when a report is
/// not ok; carries the report summary.
class ScheduleViolationError : public std::runtime_error {
 public:
  explicit ScheduleViolationError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Stateful checker: feed it the engine's per-segment graphs in order.
class ScheduleChecker {
 public:
  ScheduleChecker(const ScheduleWorkload& workload,
                  const ScheduleCheckOptions& opt);

  /// Verify one segment graph covering outer iterations [seg_begin, seg_end).
  /// Appends any violations to the report and advances the carried per-tile
  /// version state to the segment's end.
  void check_segment(const std::vector<sparklet::DataflowTaskSpec>& tasks,
                     int seg_begin, int seg_end);

  const ScheduleCheckReport& report() const { return report_; }

 private:
  ScheduleWorkload w_;
  ScheduleCheckOptions opt_;
  /// Latest producing iteration per tile (-1 = pristine input).
  std::unordered_map<gs::TileKey, int, gs::TileKeyHash> version_;
  ScheduleCheckReport report_;
  int segment_index_ = 0;
};

/// Check a full run: the engine's graph log (one entry per checkpoint
/// segment, as produced by DataflowEngine::set_graph_log). Segment spans are
/// recomputed from checkpoint_interval exactly as the engine cuts them.
ScheduleCheckReport check_dataflow_schedule(
    const ScheduleWorkload& workload, const ScheduleCheckOptions& opt,
    const std::vector<std::vector<sparklet::DataflowTaskSpec>>& segments);

}  // namespace analysis

// nested_plan.hpp — tile schedules for the nested-dataflow workloads, and
// WavefrontPlan, the base of every wavefront plan (paren::ParenPlan and
// align::AlignPlan live beside their kernels). A plan turns a problem
// instance into a wavefront schedule: `wave_phases(wv)` lists the tile tasks
// of wave `wv` grouped into phases that must run in order (the accordion's
// diagonal→panel split; the other shapes have one phase per wave), with each
// task naming its exact cross-tile read set. ScheduleChecker re-derives the
// same footprints independently from `plan.workload()`, so an engine that
// drops an edge cannot hide.
//
// Plans are cheap to copy (shared handles to large state) and are the single
// source of truth for all three execution modes: the barrier IM/CB loops of
// nested_driver.hpp and the tile-task engine (gepspark/dataflow.hpp) all
// execute plan.compute() over plan.wave_phases(). `compute` receives the
// task's read tiles as a borrowed TileReads in `reads` order; `read_slot`
// maps a read key to its position by index arithmetic, so a cross-tile read
// is one index into that view. check_reads verifies the slot arithmetic
// against the emitted reads once per task, so the kernels index the view
// without per-read checks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/schedule_check.hpp"
#include "gepspark/dataflow.hpp"
#include "grid/matrix.hpp"
#include "nested/nested_kernels.hpp"
#include "support/check.hpp"
#include "support/format.hpp"

namespace nested {

using gepspark::TileTask;
using gepspark::WavePhases;

namespace detail {
inline int tiles_for(std::size_t n, std::size_t block) {
  GS_THROW_IF(block == 0, gs::ConfigError, "block_size must be > 0");
  return static_cast<int>((n + block - 1) / block);
}
}  // namespace detail

/// Copy tile `key`'s real cells into `m`. The tile covers rows from
/// key.i·rows() and columns from key.j·cols(); cells past m's edge are
/// padding.
inline void place_tile(gs::Matrix<double>& m, const gs::Tile<double>& tile,
                       gs::TileKey key) {
  const std::size_t row0 = static_cast<std::size_t>(key.i) * tile.rows();
  const std::size_t col0 = static_cast<std::size_t>(key.j) * tile.cols();
  for (std::size_t i = 0; i < tile.rows() && row0 + i < m.rows(); ++i) {
    for (std::size_t j = 0; j < tile.cols() && col0 + j < m.cols(); ++j) {
      m(row0 + i, col0 + j) = tile(i, j);
    }
  }
}

/// What the wavefront plans share as dataflow plans: single-assignment
/// waves (no input tiles; wave-0 tasks read nothing) of `<name>Wave` tasks,
/// every wave shipped through the driver under CB, and b×b tiles (a plan
/// with other tile shapes defines its own tile_bytes).
template <typename Derived>
class WavefrontPlan {
 public:
  using value_type = double;
  static constexpr char kStep = 'w';

  std::string graph_name() const {
    return gs::strfmt("nested-%s", Derived::name());
  }
  std::string task_label(const TileTask&) const {
    return gs::strfmt("%sWave", Derived::name());
  }
  static int cb_round(const TileTask&) { return 0; }
  std::vector<std::pair<gs::TileKey, TileR>> inputs() const { return {}; }
  std::size_t tile_bytes(gs::TileKey) const {
    const std::size_t b = static_cast<const Derived&>(*this).block();
    return b * b * sizeof(double) + 64;
  }

  /// Once per task: `in` holds one tile per read, and `read_slot` maps each
  /// read key to its own position, so kernels may index `in` through
  /// read_slot with no per-read check.
  static void check_reads(const TileTask& t, TileReads in) {
    GS_DCHECK(in.size() == t.reads.size());
    for (std::size_t s = 0; s < t.reads.size(); ++s) {
      GS_DCHECK(in[s] != nullptr && Derived::read_slot(t.out, t.reads[s]) == s);
    }
  }

  /// Wavefront plans emit no batch tasks; a batch is its members in turn.
  std::vector<TileR> compute_batch(const std::vector<const TileTask*>& tasks,
                                   const std::vector<TileReads>& ins) const {
    std::vector<TileR> outs;
    outs.reserve(tasks.size());
    for (std::size_t m = 0; m < tasks.size(); ++m) {
      outs.push_back(
          static_cast<const Derived&>(*this).compute(*tasks[m], ins[m]));
    }
    return outs;
  }
};

// ---------------------------------------------------------------- GAP

/// GAP: r×r grid over the padded (n+1)×(n+1) table, anti-diagonal wavefront
/// of 2r-1 waves; tile (bi,bj) runs at wave bi+bj.
class GapPlan : public WavefrontPlan<GapPlan> {
 public:
  GapPlan(const GapProblem& prob, std::size_t block)
      : prob_(prob), b_(block), r_(detail::tiles_for(prob.table_n(), block)) {}

  static const char* name() { return "gap"; }
  int grid_rows() const { return r_; }
  int grid_cols() const { return r_; }
  int waves() const { return 2 * r_ - 1; }
  std::size_t block() const { return b_; }
  analysis::ScheduleWorkload workload() const {
    return {.r = r_, .shape = analysis::DepShape::kGap};
  }

  WavePhases wave_phases(int wv) const {
    std::vector<TileTask> tasks;
    const int lo = std::max(0, wv - (r_ - 1));
    const int hi = std::min(wv, r_ - 1);
    for (int bi = lo; bi <= hi; ++bi) {
      const int bj = wv - bi;
      TileTask t{'G', gs::TileKey{bi, bj}, {}};
      for (int q = 0; q < bj; ++q) t.reads.push_back({bi, q});
      for (int p = 0; p < bi; ++p) t.reads.push_back({p, bj});
      if (bi > 0 && bj > 0) t.reads.push_back({bi - 1, bj - 1});
      tasks.push_back(std::move(t));
    }
    return {std::move(tasks)};
  }

  TileR compute(const TileTask& t, TileReads in) const {
    check_reads(t, in);
    return gap_tile_kernel(prob_, b_, t.out, in, [&](gs::TileKey key) {
      return read_slot(t.out, key);
    });
  }

  /// Position of `key` in the reads of the task writing `out`: the row
  /// prefix, then the column prefix, then the diagonal neighbour.
  static std::size_t read_slot(gs::TileKey out, gs::TileKey key) {
    if (key.i == out.i) return static_cast<std::size_t>(key.j);
    if (key.j == out.j) return static_cast<std::size_t>(out.j + key.i);
    return static_cast<std::size_t>(out.j + out.i);
  }

  gs::Matrix<double> assemble(const TileLookup& at) const {
    const std::size_t N = prob_.table_n();
    gs::Matrix<double> m(N, N, 0.0);
    for (int bi = 0; bi < r_; ++bi) {
      for (int bj = 0; bj < r_; ++bj) place_tile(m, *at({bi, bj}), {bi, bj});
    }
    return m;
  }

 private:
  GapProblem prob_;
  std::size_t b_;
  int r_;
};

// ---------------------------------------------------- accordion folding

/// Accordion folding: lower-triangular r×r grid over the n×n table, column
/// wavefront of r waves; wave bj runs the diagonal tile (bj,bj) first, then
/// the panels (bi,bj) below it.
class AccordionPlan : public WavefrontPlan<AccordionPlan> {
 public:
  AccordionPlan(const AccordionProblem& prob, std::size_t block)
      : prob_(prob), b_(block), r_(detail::tiles_for(prob.n, block)) {}

  static const char* name() { return "accordion"; }
  int grid_rows() const { return r_; }
  int grid_cols() const { return r_; }
  int waves() const { return r_; }
  std::size_t block() const { return b_; }
  analysis::ScheduleWorkload workload() const {
    return {.r = r_, .shape = analysis::DepShape::kAccordion};
  }

  WavePhases wave_phases(int wv) const {
    const int bj = wv;
    auto column_reads = [&](bool include_diag) {
      std::vector<gs::TileKey> reads;
      for (int q = 0; q < bj; ++q) reads.push_back({bj - 1, q});
      for (int q = 0; q < bj; ++q) reads.push_back({bj, q});
      if (include_diag) reads.push_back({bj, bj});
      return reads;
    };
    WavePhases phases;
    phases.push_back({TileTask{'E', gs::TileKey{bj, bj},
                               column_reads(false)}});
    std::vector<TileTask> panels;
    for (int bi = bj + 1; bi < r_; ++bi) {
      panels.push_back(TileTask{'P', gs::TileKey{bi, bj},
                                column_reads(true)});
    }
    if (!panels.empty()) phases.push_back(std::move(panels));
    return phases;
  }

  TileR compute(const TileTask& t, TileReads in) const {
    check_reads(t, in);
    return accordion_tile_kernel(prob_, b_, t.out, in, [&](gs::TileKey key) {
      return read_slot(t.out, key);
    });
  }

  /// Position of `key` in the reads of the task writing `out` (wave
  /// bj = out.j): tile-row bj-1's prefix, then tile-row bj's prefix, then
  /// (for panels) the diagonal (bj,bj) right after it.
  static std::size_t read_slot(gs::TileKey out, gs::TileKey key) {
    return static_cast<std::size_t>(key.i == out.j ? out.j + key.j : key.j);
  }

  gs::Matrix<double> assemble(const TileLookup& at) const {
    gs::Matrix<double> m(prob_.n, prob_.n, 0.0);
    for (int bj = 0; bj < r_; ++bj) {
      for (int bi = bj; bi < r_; ++bi) place_tile(m, *at({bi, bj}), {bi, bj});
    }
    return m;
  }

 private:
  AccordionProblem prob_;
  std::size_t b_;
  int r_;
};

// ------------------------------------------------------------- Viterbi

/// Viterbi: (horizon+1) trellis rows × r state-tile columns of 1×b row
/// segments; wave t computes every segment of step t from ALL of step t-1.
///
/// The plan materialises log a(q,s) once: num_states rows (the real
/// predecessors) × r·b columns (every state the kernels evaluate, padded ones
/// included). The table holds the same pure values the serial reference
/// computes inline. The library builds with -ffp-contract=off
/// (src/CMakeLists.txt), so `-4.0 + 3.0 * unit_noise(...)` rounds twice at
/// every evaluation site and the table fill agrees with the reference bit
/// for bit. Copies of the plan — the barrier drivers capture it by value —
/// share the table.
class ViterbiPlan : public WavefrontPlan<ViterbiPlan> {
 public:
  ViterbiPlan(const ViterbiProblem& prob, std::size_t block)
      : prob_(prob), b_(block),
        r_(detail::tiles_for(prob.num_states, block)),
        rows_(static_cast<int>(prob.rows())),
        log_trans_(make_log_trans(prob, stride())) {}

  static const char* name() { return "viterbi"; }
  int grid_rows() const { return rows_; }
  int grid_cols() const { return r_; }
  int waves() const { return rows_; }
  std::size_t block() const { return b_; }
  std::size_t tile_bytes(gs::TileKey) const {
    return b_ * sizeof(double) + 64;
  }
  analysis::ScheduleWorkload workload() const {
    return {.r = r_, .shape = analysis::DepShape::kViterbi, .rows = rows_};
  }

  WavePhases wave_phases(int wv) const {
    std::vector<TileTask> tasks;
    for (int bs = 0; bs < r_; ++bs) {
      TileTask t{'V', gs::TileKey{wv, bs}, {}};
      if (wv > 0) {
        for (int q = 0; q < r_; ++q) t.reads.push_back({wv - 1, q});
      }
      tasks.push_back(std::move(t));
    }
    return {std::move(tasks)};
  }

  TileR compute(const TileTask& t, TileReads in) const {
    check_reads(t, in);
    return viterbi_tile_kernel(prob_, log_trans_->data(), stride(), b_, t.out,
                               in);
  }

  /// Reads are every tile of step t-1 in column order: slot = column.
  static std::size_t read_slot(gs::TileKey, gs::TileKey key) {
    return static_cast<std::size_t>(key.j);
  }

  /// The materialised transition table, row q at offset q * stride().
  const std::vector<double>& log_trans_table() const { return *log_trans_; }
  std::size_t stride() const { return static_cast<std::size_t>(r_) * b_; }

  gs::Matrix<double> assemble(const TileLookup& at) const {
    gs::Matrix<double> m(prob_.rows(), prob_.num_states, 0.0);
    for (int t = 0; t < rows_; ++t) {
      for (int bs = 0; bs < r_; ++bs) place_tile(m, *at({t, bs}), {t, bs});
    }
    return m;
  }

 private:
  static std::shared_ptr<const std::vector<double>> make_log_trans(
      const ViterbiProblem& p, std::size_t cols) {
    auto table = std::make_shared<std::vector<double>>(p.num_states * cols);
    for (std::size_t q = 0; q < p.num_states; ++q) {
      for (std::size_t s = 0; s < cols; ++s) {
        (*table)[q * cols + s] = p.log_trans(q, s);
      }
    }
    return table;
  }

  ViterbiProblem prob_;
  std::size_t b_;
  int r_;
  int rows_;
  std::shared_ptr<const std::vector<double>> log_trans_;
};

}  // namespace nested

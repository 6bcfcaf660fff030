// align_plan.hpp — pairwise alignment as a wavefront plan for
// nested::nested_solve: an rbi×rbj tile grid in rbi+rbj−1 anti-diagonal
// waves. Tile (bi,bj) reads, in slot order, the tiles above, to the left and
// at the corner, each where it exists.
//
// A tile's output is its boundary record, one row
// [bottom | right | best, best_i, best_j]: the row and column its neighbours
// start from, and its local maximum at 1-based positions (doubles, exact
// below 2^53). Tiles thus exchange O(b) bytes for O(b²) work.
//
// assemble() returns the 1×3 table AlignResult::from_table reads. Global
// mode takes the last tile's corner. Local mode takes the maximum, ties
// broken by the smallest (end_i, end_j): the reference's row-major-first
// rule, whatever order the tiles finished in.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "align/align_kernels.hpp"
#include "nested/nested_plan.hpp"

namespace align {

struct AlignProblem {
  std::string a;
  std::string b;
  ScoringScheme scheme{};
  AlignMode mode = AlignMode::kGlobal;
};

struct AlignResult {
  double score = 0.0;
  std::size_t end_i = 0;  ///< 1-based end position in a
  std::size_t end_j = 0;  ///< 1-based end position in b

  /// The 1×3 table a solve returns: (score, end_i, end_j).
  gs::Matrix<double> table() const {
    gs::Matrix<double> t(1, 3, score);
    t(0, 1) = static_cast<double>(end_i);
    t(0, 2) = static_cast<double>(end_j);
    return t;
  }

  static AlignResult from_table(const gs::Matrix<double>& t) {
    GS_THROW_IF(t.rows() != 1 || t.cols() != 3, gs::ConfigError,
                "an alignment result table is 1x3 (score, end_i, end_j)");
    return {t(0, 0), static_cast<std::size_t>(t(0, 1)),
            static_cast<std::size_t>(t(0, 2))};
  }
};

class AlignPlan : public nested::WavefrontPlan<AlignPlan> {
 public:
  /// Throws gs::ConfigError for an empty sequence, an invalid scoring
  /// scheme or a block size of 0.
  AlignPlan(const AlignProblem& prob, std::size_t block)
      : prob_(prob),
        bs_(block),
        rbi_(nested::detail::tiles_for(prob.a.size(), block)),
        rbj_(nested::detail::tiles_for(prob.b.size(), block)) {
    prob.scheme.validate();
    GS_THROW_IF(prob.a.empty() || prob.b.empty(), gs::ConfigError,
                "cannot align empty sequences");
  }

  static const char* name() { return "align"; }
  std::size_t block() const { return bs_; }
  int grid_rows() const { return rbi_; }
  int grid_cols() const { return rbj_; }
  int waves() const { return rbi_ + rbj_ - 1; }
  std::size_t tile_bytes(gs::TileKey key) const {
    return (rows_of(key.i) + cols_of(key.j) + 3) * sizeof(double) + 64;
  }
  analysis::ScheduleWorkload workload() const {
    return {.r = rbj_, .shape = analysis::DepShape::kAlign, .rows = rbi_};
  }

  std::vector<nested::TileTask> step_tasks(int wv) const {
    std::vector<nested::TileTask> tasks;
    for (int bi = std::max(0, wv - (rbj_ - 1)); bi <= std::min(wv, rbi_ - 1);
         ++bi) {
      const int bj = wv - bi;
      nested::TileTask t{'S', gs::TileKey{bi, bj}, {}};
      if (bi > 0) t.reads.push_back({bi - 1, bj});
      if (bj > 0) t.reads.push_back({bi, bj - 1});
      if (bi > 0 && bj > 0) t.reads.push_back({bi - 1, bj - 1});
      tasks.push_back(std::move(t));
    }
    return tasks;
  }

  /// Position of `key` in the reads of the task writing `out`.
  static std::size_t read_slot(gs::TileKey out, gs::TileKey key) {
    if (key.j == out.j) return 0;                 // above
    if (key.i == out.i) return out.i > 0 ? 1 : 0;  // left
    return 2;                                     // corner
  }

  nested::TileR compute(const nested::TileTask& t,
                        nested::TileReads in) const {
    check_reads(t, in);
    const int bi = t.out.i, bj = t.out.j;
    const std::size_t r0 = std::size_t(bi) * bs_, c0 = std::size_t(bj) * bs_;
    const std::size_t rows = rows_of(bi), cols = cols_of(bj);
    const AlignProblem& p = prob_;
    const double gap = p.mode == AlignMode::kGlobal ? p.scheme.gap : 0.0;
    // The tile above is cols wide; the left and corner tiles are bs_ wide,
    // so their right columns start at bs_.
    auto record = [&](int i, int j) {
      return in[read_slot(t.out, {i, j})]->span().row(0);
    };
    std::vector<double> top(cols + 1), left(rows);  // H[r0][c0..], H[..][c0]
    if (bi == 0) {
      for (std::size_t j = 0; j <= cols; ++j) top[j] = gap * double(c0 + j);
    } else {
      top[0] = bj == 0 ? gap * double(r0) : record(bi - 1, bj - 1)[2 * bs_ - 1];
      std::copy_n(record(bi - 1, bj), cols, top.begin() + 1);
    }
    if (bj == 0) {
      for (std::size_t i = 0; i < rows; ++i) left[i] = gap * double(r0 + i + 1);
    } else {
      std::copy_n(record(bi, bj - 1) + bs_, rows, left.begin());
    }

    const TileBoundary bd = align_tile(
        std::string_view(p.a).substr(r0, rows),
        std::string_view(p.b).substr(c0, cols), top, left, p.scheme, p.mode,
        r0 + 1, c0 + 1);
    auto out = std::make_shared<gs::Tile<double>>(1, cols + rows + 3);
    double* tail = std::copy(bd.right.begin(), bd.right.end(),
                             std::copy(bd.bottom.begin(), bd.bottom.end(),
                                       out->span().row(0)));
    tail[0] = bd.best;
    tail[1] = double(bd.best_i);
    tail[2] = double(bd.best_j);
    return out;
  }

  gs::Matrix<double> assemble(const nested::TileLookup& at) const {
    if (prob_.mode == AlignMode::kGlobal) {
      const nested::TileR last = at({rbi_ - 1, rbj_ - 1});
      const double corner = (*last)(0, cols_of(rbj_ - 1) - 1);  // H[m][n]
      return AlignResult{corner, prob_.a.size(), prob_.b.size()}.table();
    }
    // Higher score wins, then the smaller end cell. With no positive cell
    // the answer stays score 0 at (0,0), as in the reference.
    AlignResult best;
    for (int bi = 0; bi < rbi_; ++bi) {
      for (int bj = 0; bj < rbj_; ++bj) {
        const nested::TileR tile = at({bi, bj});
        const double* tail = tile->span().row(0) + tile->cols() - 3;
        const AlignResult cand{tail[0], std::size_t(tail[1]),
                               std::size_t(tail[2])};
        if (std::tuple(best.score, cand.end_i, cand.end_j) <
            std::tuple(cand.score, best.end_i, best.end_j)) {
          best = cand;
        }
      }
    }
    return best.table();
  }

 private:
  std::size_t rows_of(int bi) const {
    return std::min(bs_, prob_.a.size() - std::size_t(bi) * bs_);
  }
  std::size_t cols_of(int bj) const {
    return std::min(bs_, prob_.b.size() - std::size_t(bj) * bs_);
  }

  AlignProblem prob_;
  std::size_t bs_;
  int rbi_;
  int rbj_;
};

}  // namespace align

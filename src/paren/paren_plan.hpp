// paren_plan.hpp — the parenthesis family as a wavefront plan for
// nested::nested_solve: an r×r upper-triangular tile grid in r waves, wave d
// holding the tiles (bi, bi+d). A diagonal tile reads nothing (a lineage
// source) and runs the diag kernel on its seed. Tile (bi,bj) off the
// diagonal reads, in slot order, its row (bi, bi+1..bj−1), its column
// (bi+1..bj−1, bj), then (bi,bi) and (bj,bj): the d−1 middle-block products
// accumulate, then the flank kernel closes the tile. A wave reads every
// earlier tile of its rows and columns, so Collect-Broadcast suits it best.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "nested/nested_plan.hpp"
#include "paren/paren_kernels.hpp"

namespace paren {

template <ParenSpecType Spec>
class ParenPlan : public nested::WavefrontPlan<ParenPlan<Spec>> {
 public:
  /// Throws gs::ConfigError for a leaf-cost count other than
  /// num_posts() − 1 or a block size of 0.
  ParenPlan(const ParenProblem<Spec>& prob, std::size_t block)
      : prob_(prob),
        kern_(prob.spec),
        b_(block),
        r_(nested::detail::tiles_for(prob.num_posts(), block)) {
    GS_THROW_IF(prob.leaf_costs.size() + 1 != prob.num_posts(),
                gs::ConfigError, "need exactly num_posts()-1 leaf costs");
  }

  static const char* name() { return "paren"; }
  int grid_rows() const { return r_; }
  int grid_cols() const { return r_; }
  int waves() const { return r_; }
  std::size_t block() const { return b_; }
  analysis::ScheduleWorkload workload() const {
    return {.r = r_, .shape = analysis::DepShape::kParen};
  }

  std::vector<nested::TileTask> step_tasks(int d) const {
    std::vector<nested::TileTask> tasks;
    for (int bi = 0; bi + d < r_; ++bi) {
      const int bj = bi + d;
      nested::TileTask t{'I', gs::TileKey{bi, bj}, {}};
      if (d > 0) {
        for (int bk = bi + 1; bk < bj; ++bk) t.reads.push_back({bi, bk});
        for (int bk = bi + 1; bk < bj; ++bk) t.reads.push_back({bk, bj});
        t.reads.push_back({bi, bi});
        t.reads.push_back({bj, bj});
      }
      tasks.push_back(std::move(t));
    }
    return tasks;
  }

  nested::TileR compute(const nested::TileTask& t,
                        nested::TileReads in) const {
    this->check_reads(t, in);
    const int bi = t.out.i, bj = t.out.j;
    const std::size_t row0 = static_cast<std::size_t>(bi) * b_;
    const std::size_t col0 = static_cast<std::size_t>(bj) * b_;
    auto out = std::make_shared<gs::Tile<double>>(b_, b_);
    for (std::size_t i = 0; i < b_; ++i) {
      for (std::size_t j = 0; j < b_; ++j) {
        (*out)(i, j) = prob_.seed(row0 + i, col0 + j);
      }
    }
    if (bi == bj) {
      kern_.diag(out->span(), row0);
      return out;
    }
    for (int bk = bi + 1; bk < bj; ++bk) {
      kern_.accumulate(out->span(), in[read_slot(t.out, {bi, bk})]->span(),
                       in[read_slot(t.out, {bk, bj})]->span(), row0,
                       static_cast<std::size_t>(bk) * b_, col0);
    }
    kern_.flank(out->span(), in[read_slot(t.out, {bi, bi})]->span(),
                in[read_slot(t.out, {bj, bj})]->span(), row0, col0);
    return out;
  }

  /// Position of `key` in the reads of the task writing `out`: the row's
  /// middle blocks, then the column's, then (bi,bi) and (bj,bj).
  static std::size_t read_slot(gs::TileKey out, gs::TileKey key) {
    const int mid = out.j - out.i - 1;
    if (key.i == key.j) {
      return static_cast<std::size_t>(2 * mid + (key.i == out.j ? 1 : 0));
    }
    if (key.i == out.i) return static_cast<std::size_t>(key.j - out.i - 1);
    return static_cast<std::size_t>(mid + key.i - out.i - 1);
  }

  /// The n×n table over the real posts; the optimum is table(0, n−1).
  /// Below the diagonal it holds +∞: the diagonal tiles keep their seed
  /// there, and no tile covers the rest.
  gs::Matrix<double> assemble(const nested::TileLookup& at) const {
    const std::size_t n = prob_.num_posts();
    gs::Matrix<double> m(n, n, kParenInf);
    for (int bi = 0; bi < r_; ++bi) {
      for (int bj = bi; bj < r_; ++bj) {
        nested::place_tile(m, *at({bi, bj}), {bi, bj});
      }
    }
    return m;
  }

 private:
  ParenProblem<Spec> prob_;
  ParenKernels<Spec> kern_;
  std::size_t b_;
  int r_;
};

/// Reconstruct one optimal split tree from a finished table: returns, for
/// every interval examined, the chosen split point; entry point (0, n−1).
template <ParenSpecType Spec>
std::size_t best_split(const Spec& spec,
                       const gs::Matrix<typename Spec::value_type>& table,
                       std::size_t i, std::size_t j) {
  GS_CHECK(j > i + 1);
  std::size_t best_k = i + 1;
  auto best = table(i, best_k) + table(best_k, j) +
              spec.weight(i, best_k, j);
  for (std::size_t k = i + 2; k < j; ++k) {
    const auto cand = table(i, k) + table(k, j) + spec.weight(i, k, j);
    if (cand < best) {
      best = cand;
      best_k = k;
    }
  }
  return best_k;
}

}  // namespace paren

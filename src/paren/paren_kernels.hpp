// paren_kernels.hpp — blocked kernels for the parenthesis recurrence.
//
// The DP table is decomposed into an r×r grid of b×b tiles over its upper
// triangle. A tile (bi, bj) with bj > bi accumulates contributions from
// three sources, in this order:
//
//   1. accumulate(X, U, V)  — split points k inside a whole middle block bk
//      (bi < bk < bj): a (min,+) matrix product with the spec's split
//      weight, X(i,j) ⊕= U(i,k) + V(k,j) + w(i,k,j). Runs once per middle
//      block; all inputs are finished tiles from earlier wavefronts.
//   2. flank(X, L, R)       — split points inside X's own row-range I
//      (k > i, via the finished diagonal tile L = C[I×I] and X's own
//      column k below) and inside its column-range J (k < j, via X's own
//      row and the diagonal tile R = C[J×J]). The i-descending /
//      j-ascending sweep makes every X(k, j) and X(i, k) it reads final.
//   3. diag(X)              — in-place wavefront on a diagonal tile (all
//      split points of its cells are internal).
//
// Kernels take global post offsets so the spec's w(i,k,j) sees real indices.
#pragma once

#include "grid/matrix.hpp"
#include "paren/paren_spec.hpp"
#include "support/span2d.hpp"

namespace paren {

template <ParenSpecType Spec>
class ParenKernels {
 public:
  using T = typename Spec::value_type;
  using Span = gs::Span2D<T>;
  using CSpan = gs::Span2D<const T>;

  explicit ParenKernels(Spec spec) : spec_(std::move(spec)) {}

  /// In-place parenthesis DP on a diagonal tile covering posts
  /// [off, off + m). Assumes adjacent-pair cells X(t, t+1) hold leaf costs
  /// and everything longer is the ⊕-identity (+∞).
  void diag(Span x, std::size_t off) const {
    const std::size_t m = x.rows();
    GS_DCHECK(x.cols() == m);
    for (std::size_t span = 2; span < m; ++span) {
      for (std::size_t i = 0; i + span < m; ++i) {
        const std::size_t j = i + span;
        T best = x(i, j);
        for (std::size_t k = i + 1; k < j; ++k) {
          const T cand = x(i, k) + x(k, j) +
                         spec_.weight(off + i, off + k, off + j);
          if (cand < best) best = cand;
        }
        x(i, j) = best;
      }
    }
  }

  /// X(i,j) ⊕= U(i,k) + V(k,j) + w over one whole middle block:
  /// X rows at posts row0+i, U/V split posts at mid0+k, X cols at col0+j.
  void accumulate(Span x, CSpan u, CSpan v, std::size_t row0, std::size_t mid0,
                  std::size_t col0) const {
    const std::size_t b = x.rows();
    GS_DCHECK(x.cols() == b && u.rows() == b && u.cols() == b &&
              v.rows() == b && v.cols() == b);
    for (std::size_t k = 0; k < b; ++k) {
      const T* vk = v.row(k);
      for (std::size_t i = 0; i < b; ++i) {
        const T uik = u(i, k);
        if (uik == std::numeric_limits<T>::infinity()) continue;
        T* xi = x.row(i);
        for (std::size_t j = 0; j < b; ++j) {
          const T cand =
              uik + vk[j] + spec_.weight(row0 + i, mid0 + k, col0 + j);
          if (cand < xi[j]) xi[j] = cand;
        }
      }
    }
  }

  /// Complete X with split points inside its own row range I (reading the
  /// finished diagonal tile L = C[I×I] and X's rows below i) and inside its
  /// column range J (reading X's columns before j and R = C[J×J]).
  void flank(Span x, CSpan l, CSpan r, std::size_t row0,
             std::size_t col0) const {
    const std::size_t b = x.rows();
    GS_DCHECK(x.cols() == b && l.rows() == b && r.rows() == b);
    for (std::size_t ii = b; ii-- > 0;) {   // i descending: X(k,j) final
      for (std::size_t j = 0; j < b; ++j) {  // j ascending: X(i,k) final
        T best = x(ii, j);
        for (std::size_t k = ii + 1; k < b; ++k) {  // split inside I
          const T cand = l(ii, k) + x(k, j) +
                         spec_.weight(row0 + ii, row0 + k, col0 + j);
          if (cand < best) best = cand;
        }
        for (std::size_t k = 0; k < j; ++k) {  // split inside J
          const T cand = x(ii, k) + r(k, j) +
                         spec_.weight(row0 + ii, col0 + k, col0 + j);
          if (cand < best) best = cand;
        }
        x(ii, j) = best;
      }
    }
  }

 private:
  Spec spec_;
};

/// Executable specification: the textbook O(n³) interval loop over the
/// seeded table — the whole table a blocked solve of `p` returns.
template <ParenSpecType Spec>
gs::Matrix<typename Spec::value_type> reference_table(
    const ParenProblem<Spec>& p) {
  const std::size_t n = p.num_posts();
  gs::Matrix<typename Spec::value_type> c(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) c(i, j) = p.seed(i, j);
  }
  for (std::size_t span = 2; span < n; ++span) {
    for (std::size_t i = 0; i + span < n; ++i) {
      const std::size_t j = i + span;
      auto best = c(i, j);
      for (std::size_t k = i + 1; k < j; ++k) {
        const auto cand = c(i, k) + c(k, j) + p.spec.weight(i, k, j);
        if (cand < best) best = cand;
      }
      c(i, j) = best;
    }
  }
  return c;
}

}  // namespace paren

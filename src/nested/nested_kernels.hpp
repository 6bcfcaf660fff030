// nested_kernels.hpp — tiled kernels for the nested-dataflow workloads. Each
// kernel computes one output tile of the shared per-cell recurrence from
// nested_spec.hpp over the tile's global index range. In-tile dependencies
// read the tile under construction; cross-tile dependencies (the wavefront's
// fan-in) read the task's input tiles, which the caller hands over once per
// task as a borrowed gs::TileReads in the plan's read order. A read is an
// index into that view: no hash probe, no std::function call, no
// shared_ptr copy.
//
// Padding: tiles on the grid fringe cover indices past the real table. The
// recurrences are pure index functions, so padded cells are simply evaluated
// too — real cells only ever read indices no larger than their own, so the
// real region is unaffected and no clamping or masking is needed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "grid/tile.hpp"
#include "nested/nested_spec.hpp"
#include "support/check.hpp"

namespace nested {

using TileR = gs::TileRef<double>;
using TileReads = gs::TileReads<double>;

/// Lookup of a finished tile by grid key. Only result assembly reads tiles
/// by key; kernels read their inputs through TileReads.
using TileLookup = std::function<TileR(gs::TileKey)>;

/// GAP tile (bi,bj) at wave bi+bj: b×b cells in row-major order. Reads the
/// tile-row prefix {(bi,q): q<bj}, the tile-column prefix {(p,bj): p<bi},
/// and the diagonal neighbour (bi-1,bj-1); `slot(key)` is the position of
/// read tile `key` in `in`.
template <typename Slot>
TileR gap_tile_kernel(const GapProblem& p, std::size_t b, gs::TileKey key,
                      TileReads in, const Slot& slot) {
  auto out = std::make_shared<gs::Tile<double>>(b, b);
  const std::size_t row0 = static_cast<std::size_t>(key.i) * b;
  const std::size_t col0 = static_cast<std::size_t>(key.j) * b;
  auto cell = [&](std::size_t gi, std::size_t gj) -> double {
    const gs::TileKey at{static_cast<std::int32_t>(gi / b),
                         static_cast<std::int32_t>(gj / b)};
    if (at == key) return (*out)(gi - row0, gj - col0);
    return (*in[slot(at)])(gi % b, gj % b);
  };
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t j = 0; j < b; ++j) {
      (*out)(i, j) = gap_cell(p, row0 + i, col0 + j, cell);
    }
  }
  return out;
}

/// Accordion tile (bi,bj) at wave bj: column-major over valid cells
/// (global j < global i), zero elsewhere. Reads tile-row bj-1 up to the
/// diagonal plus tile-row bj's prefix — including, for panels (bi > bj),
/// the same-wave diagonal tile (bj,bj). `slot` as for gap_tile_kernel.
template <typename Slot>
TileR accordion_tile_kernel(const AccordionProblem& p, std::size_t b,
                            gs::TileKey key, TileReads in, const Slot& slot) {
  auto out = std::make_shared<gs::Tile<double>>(b, b);
  const std::size_t row0 = static_cast<std::size_t>(key.i) * b;
  const std::size_t col0 = static_cast<std::size_t>(key.j) * b;
  auto cell = [&](std::size_t gi, std::size_t gj) -> double {
    const gs::TileKey at{static_cast<std::int32_t>(gi / b),
                         static_cast<std::int32_t>(gj / b)};
    if (at == key) return (*out)(gi - row0, gj - col0);
    return (*in[slot(at)])(gi % b, gj % b);
  };
  for (std::size_t j = 0; j < b; ++j) {
    for (std::size_t i = 0; i < b; ++i) {
      const std::size_t gi = row0 + i;
      const std::size_t gj = col0 + j;
      (*out)(i, j) = gj < gi ? accordion_cell(p, gi, gj, cell) : 0.0;
    }
  }
  return out;
}

/// Viterbi tile (t,bs): a 1×b row segment of trellis step t covering states
/// [bs*b, bs*b+b). Reads every tile of step t-1, in column order.
/// `log_trans[q * stride + s]` is log a(q,s) for every real predecessor q
/// and every state column s, padded ones included.
///
/// The sweep runs q in the outer loop and keeps the b running maxima in the
/// output row. Each state still sees viterbi_cell's chain — ascending q,
/// `std::max(best, d(t-1,q) + log a(q,s))`, then `+ log b(s, o_t)` — over the
/// same pure values, so the row is bit-identical to the serial reference.
/// Padded states past num_states are evaluated like any other, but the max
/// over predecessors only ranges over REAL states, so padded values never
/// feed a real cell.
inline TileR viterbi_tile_kernel(const ViterbiProblem& p,
                                 const double* log_trans, std::size_t stride,
                                 std::size_t b, gs::TileKey key,
                                 TileReads in) {
  auto out = std::make_shared<gs::Tile<double>>(1, b);
  double* best = out->span().row(0);
  const auto t = static_cast<std::size_t>(key.i);
  const std::size_t state0 = static_cast<std::size_t>(key.j) * b;
  const std::size_t symbol = p.observation(t);
  if (t == 0) {
    for (std::size_t s0 = 0; s0 < b; ++s0) {
      best[s0] = p.log_pi(state0 + s0) + p.log_emit_sym(state0 + s0, symbol);
    }
    return out;
  }
  GS_DCHECK(in.size() == (p.num_states + b - 1) / b);
  std::fill(best, best + b, -std::numeric_limits<double>::infinity());
  for (std::size_t seg = 0; seg < in.size(); ++seg) {
    // Checked once per segment read, never per element: in-range rows of
    // `log_trans` and of the segment follow from these two facts.
    GS_DCHECK(in[seg]->rows() == 1 && in[seg]->cols() == b);
    const double* prev = in[seg]->span().row(0);
    const std::size_t q0 = seg * b;
    const std::size_t real = std::min(b, p.num_states - q0);
    for (std::size_t qi = 0; qi < real; ++qi) {
      const double d = prev[qi];
      const double* a = log_trans + (q0 + qi) * stride + state0;
      for (std::size_t s0 = 0; s0 < b; ++s0) {
        best[s0] = std::max(best[s0], d + a[s0]);
      }
    }
  }
  for (std::size_t s0 = 0; s0 < b; ++s0) {
    best[s0] += p.log_emit_sym(state0 + s0, symbol);
  }
  return out;
}

}  // namespace nested

// Shared helpers for the test suite: canonical random inputs per spec, a
// driver-independent blocked GEP harness used to validate kernels, and a
// seeded property-based instance generator for the nested-dataflow suites.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/reference.hpp"
#include "gepspark/workload.hpp"
#include "grid/tile_grid.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/iterative.hpp"
#include "kernels/tile_ops.hpp"
#include "semiring/gep_spec.hpp"
#include "support/rng.hpp"

namespace gs::testutil {

/// FNV-1a over a canonical text rendering of the fields fed to it; every
/// field ends with a separator, so adjacent fields cannot run together.
/// The golden-digest tests pin recorded schedules and replays with it.
class Fnv1a {
 public:
  void add(std::string_view s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    h_ ^= '|';
    h_ *= 0x100000001b3ULL;
  }
  void add(long long v) { add(std::to_string(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Canonical random input matrix for a spec.
template <typename Spec>
Matrix<typename Spec::value_type> random_input(std::size_t n,
                                               std::uint64_t seed = 42);

template <>
inline Matrix<double> random_input<FloydWarshallSpec>(std::size_t n,
                                                      std::uint64_t seed) {
  return workload::random_digraph({.n = n, .edge_prob = 0.2,
                                   .min_weight = 1.0, .max_weight = 50.0,
                                   .seed = seed});
}

template <>
inline Matrix<double> random_input<GaussianEliminationSpec>(
    std::size_t n, std::uint64_t seed) {
  return workload::diagonally_dominant_matrix(n, seed);
}

template <>
inline Matrix<std::uint8_t> random_input<TransitiveClosureSpec>(
    std::size_t n, std::uint64_t seed) {
  return workload::random_bool_digraph(n, 0.06, seed);
}

template <>
inline Matrix<double> random_input<WidestPathSpec>(std::size_t n,
                                                   std::uint64_t seed) {
  return workload::random_capacity_graph(n, 0.2, seed);
}

/// The expected answer: literal Fig.-1 GEP on the whole table.
template <typename Spec>
Matrix<typename Spec::value_type> reference_solution(
    const Matrix<typename Spec::value_type>& input) {
  auto out = input;
  reference_gep<Spec>(out.span());
  return out;
}

/// Blocked GEP executed directly on a TileGrid (no Spark layer): the
/// sequential tile-level schedule of Fig. 4's A function, one level.
/// Validates the A/B/C/D kernels and tile plumbing in isolation.
template <typename Spec>
Matrix<typename Spec::value_type> blocked_solve(
    const Matrix<typename Spec::value_type>& input, std::size_t block,
    const KernelConfig& cfg) {
  using T = typename Spec::value_type;
  TileGrid<T> g(input, block, Spec::pad_diag(), Spec::pad_off());
  const std::size_t r = g.layout().r;
  GepKernels<Spec> kernels(cfg);
  const bool strict = Spec::kStrictSigma;

  auto in_trailing = [&](std::size_t idx, std::size_t k) {
    return strict ? idx > k : idx != k;
  };

  for (std::size_t k = 0; k < r; ++k) {
    g.set(k, k, apply_tile_kernel<Spec>(kernels, KernelKind::A, g.at(k, k),
                                        nullptr, nullptr, nullptr));
    auto diag = g.at(k, k);
    auto w = Spec::kUsesW ? diag : nullptr;
    for (std::size_t i = 0; i < r; ++i) {
      if (!in_trailing(i, k)) continue;
      g.set(k, i, apply_tile_kernel<Spec>(kernels, KernelKind::B, g.at(k, i),
                                          diag, nullptr, w));
      g.set(i, k, apply_tile_kernel<Spec>(kernels, KernelKind::C, g.at(i, k),
                                          nullptr, diag, w));
    }
    for (std::size_t l = 0; l < r; ++l) {
      if (!in_trailing(l, k)) continue;
      for (std::size_t m = 0; m < r; ++m) {
        if (!in_trailing(m, k)) continue;
        g.set(l, m, apply_tile_kernel<Spec>(kernels, KernelKind::D, g.at(l, m),
                                            g.at(l, k), g.at(k, m), w));
      }
    }
  }
  return g.gather();
}

/// One randomized nested-workload instance: problem size, tile size, and the
/// seed that derives its weights. `n` maps to the GAP string length, the
/// accordion chain length, or the Viterbi state count.
struct NestedCase {
  std::size_t n = 0;
  std::size_t block = 0;
  std::uint64_t seed = 0;
};

/// Seeded property-based generator: deterministic degenerate edges first
/// (1x1 table inside one tile, a single partial tile, an exact tile
/// multiple, block larger than the problem), then `random_count` drawn
/// instances. Sizes stay small enough that the O(n^3) GAP reference is
/// cheap, but large enough to cross several tile boundaries.
inline std::vector<NestedCase> nested_cases(std::uint64_t seed,
                                            int random_count = 4) {
  std::vector<NestedCase> cases = {
      {1, 8, seed ^ 0x11},   // degenerate: one cell, one tile
      {5, 8, seed ^ 0x22},   // single partial tile
      {16, 8, seed ^ 0x33},  // exact tile multiple
      {7, 32, seed ^ 0x44},  // block larger than the whole problem
  };
  Rng rng(seed);
  for (int c = 0; c < random_count; ++c) {
    NestedCase nc;
    nc.n = 9 + rng.uniform_u64(40);      // 9..48
    nc.block = 3 + rng.uniform_u64(11);  // 3..13: partial edge tiles likely
    nc.seed = rng() | 1;
    cases.push_back(nc);
  }
  return cases;
}

}  // namespace gs::testutil

// SIMD micro-kernel backend validation: every simd_* kernel must be
// bit-identical to its scalar counterpart (and hence to the literal Fig.-1
// reference) for all four specs, at awkward sizes that exercise ragged
// vector edges — 1, 3, 7, 63, 65, 100 are all non-multiples of the AVX2 /
// AVX-512 lane widths. Also covers every KernelImpl × KernelBase dispatch
// combination through the blocked harness.
#include <gtest/gtest.h>

#include <cstdint>

#include "kernels/simd.hpp"
#include "kernels/tile_ops.hpp"
#include "test_util.hpp"

namespace {

using namespace gs;
using testutil::blocked_solve;
using testutil::random_input;
using testutil::reference_solution;

constexpr std::size_t kAwkwardSizes[] = {1, 3, 7, 63, 65, 100};

// ------------------------------------------------------------- kernel A

template <typename Spec>
void expect_simd_a_exact(std::size_t n, std::uint64_t seed) {
  auto input = random_input<Spec>(n, seed);
  auto expected = reference_solution<Spec>(input);
  auto got = input;
  simd_a<Spec>(got.span());
  EXPECT_TRUE(got == expected) << Spec::name() << " n=" << n;
}

TEST(SimdA, FloydWarshallBitIdenticalToReference) {
  for (std::size_t n : kAwkwardSizes) expect_simd_a_exact<FloydWarshallSpec>(n, n);
}
TEST(SimdA, GaussianEliminationBitIdenticalToReference) {
  for (std::size_t n : kAwkwardSizes) {
    expect_simd_a_exact<GaussianEliminationSpec>(n, n + 1);
  }
}
TEST(SimdA, TransitiveClosureBitIdenticalToReference) {
  for (std::size_t n : kAwkwardSizes) {
    expect_simd_a_exact<TransitiveClosureSpec>(n, n + 2);
  }
}
TEST(SimdA, WidestPathBitIdenticalToReference) {
  for (std::size_t n : kAwkwardSizes) expect_simd_a_exact<WidestPathSpec>(n, n + 3);
}

// ----------------------------------------------------- kernels B / C / D

// B, C, D take external operand tiles; validate against the scalar kernels
// on identical inputs — the scalar kernels are themselves reference-checked
// (test_kernels_iterative), so bit-equality here closes the chain. `w` uses
// a diagonally dominant matrix so GE's pivot divisions stay well-defined.
template <typename Spec>
struct BcdInputs {
  Matrix<typename Spec::value_type> x, u, v, w;

  explicit BcdInputs(std::size_t n, std::uint64_t seed)
      : x(random_input<Spec>(n, seed)),
        u(random_input<Spec>(n, seed + 101)),
        v(random_input<Spec>(n, seed + 202)),
        w(workload_w(n, seed + 303)) {}

  static Matrix<typename Spec::value_type> workload_w(std::size_t n,
                                                      std::uint64_t seed) {
    if constexpr (std::is_same_v<typename Spec::value_type, double>) {
      return workload::diagonally_dominant_matrix(n, seed);
    } else {
      auto m = random_input<Spec>(n, seed);
      for (std::size_t i = 0; i < n; ++i) m(i, i) = Spec::pad_diag();
      return m;
    }
  }
};

template <typename Spec>
void expect_simd_bcd_match_scalar(std::size_t n, std::uint64_t seed) {
  BcdInputs<Spec> in(n, seed);

  auto scalar_x = in.x;
  auto simd_x = in.x;
  iter_b<Spec>(scalar_x.span(), in.u.span(), in.w.span());
  simd_b<Spec>(simd_x.span(), in.u.span(), in.w.span());
  EXPECT_TRUE(simd_x == scalar_x) << Spec::name() << " B n=" << n;

  scalar_x = in.x;
  simd_x = in.x;
  iter_c<Spec>(scalar_x.span(), in.v.span(), in.w.span());
  simd_c<Spec>(simd_x.span(), in.v.span(), in.w.span());
  EXPECT_TRUE(simd_x == scalar_x) << Spec::name() << " C n=" << n;

  scalar_x = in.x;
  simd_x = in.x;
  iter_d<Spec>(scalar_x.span(), in.u.span(), in.v.span(), in.w.span());
  simd_d<Spec>(simd_x.span(), in.u.span(), in.v.span(), in.w.span());
  EXPECT_TRUE(simd_x == scalar_x) << Spec::name() << " D n=" << n;
}

TEST(SimdBCD, FloydWarshallMatchesScalarBitwise) {
  for (std::size_t n : kAwkwardSizes) {
    expect_simd_bcd_match_scalar<FloydWarshallSpec>(n, 11 + n);
  }
}
TEST(SimdBCD, GaussianEliminationMatchesScalarBitwise) {
  for (std::size_t n : kAwkwardSizes) {
    expect_simd_bcd_match_scalar<GaussianEliminationSpec>(n, 22 + n);
  }
}
TEST(SimdBCD, TransitiveClosureMatchesScalarBitwise) {
  for (std::size_t n : kAwkwardSizes) {
    expect_simd_bcd_match_scalar<TransitiveClosureSpec>(n, 33 + n);
  }
}
TEST(SimdBCD, WidestPathMatchesScalarBitwise) {
  for (std::size_t n : kAwkwardSizes) {
    expect_simd_bcd_match_scalar<WidestPathSpec>(n, 44 + n);
  }
}

// ----------------------------- KernelImpl × KernelBase dispatch coverage

// Every schedule (iterative / recursive / tiled) with every base backend
// must produce bit-identical tables: the base case changes how the inner
// loops run, never what they compute.
template <typename Spec>
void expect_all_dispatch_combos_agree(std::size_t n, std::size_t block,
                                      std::uint64_t seed) {
  auto input = random_input<Spec>(n, seed);
  auto expected = reference_solution<Spec>(input);

  const KernelConfig impls[] = {
      KernelConfig::iterative(),
      KernelConfig::recursive(2, 1, 8),
      KernelConfig::recursive(4, 2, 4),
      KernelConfig::tiled(8, 1),
  };
  const KernelBase bases[] = {KernelBase::kScalar, KernelBase::kSimd,
                              KernelBase::kAuto};
  for (const auto& impl : impls) {
    Matrix<typename Spec::value_type> scalar_result;
    bool first = true;
    for (KernelBase base : bases) {
      auto got = blocked_solve<Spec>(input, block, impl.with_base(base));
      if constexpr (std::is_same_v<typename Spec::value_type, double>) {
        EXPECT_LE(max_abs_diff(got, expected), 1e-9)
            << Spec::name() << " " << impl.with_base(base).describe();
      } else {
        EXPECT_TRUE(got == expected)
            << Spec::name() << " " << impl.with_base(base).describe();
      }
      if (first) {
        scalar_result = std::move(got);
        first = false;
      } else {
        EXPECT_TRUE(got == scalar_result)
            << Spec::name() << " " << impl.with_base(base).describe()
            << " diverges from scalar base";
      }
    }
  }
}

TEST(SimdDispatch, FloydWarshallAllCombos) {
  expect_all_dispatch_combos_agree<FloydWarshallSpec>(65, 16, 5);
  expect_all_dispatch_combos_agree<FloydWarshallSpec>(40, 8, 6);
}
TEST(SimdDispatch, GaussianEliminationAllCombos) {
  expect_all_dispatch_combos_agree<GaussianEliminationSpec>(65, 16, 7);
}
TEST(SimdDispatch, TransitiveClosureAllCombos) {
  expect_all_dispatch_combos_agree<TransitiveClosureSpec>(100, 32, 8);
}
TEST(SimdDispatch, WidestPathAllCombos) {
  expect_all_dispatch_combos_agree<WidestPathSpec>(63, 16, 9);
}

// ------------------------------------------- fused D batch (panel packing)

// A fused batch of trailing tiles sharing pivot panels: a 2x2 trailing block
// where members pairwise share their pivot-column (per row) and pivot-row
// (per column) operands, exercising the pack's slot deduplication. Every
// member must be bit-identical to its per-tile apply_tile_kernel(D, ...)
// twin on the same operand values.
template <typename Spec>
void expect_fused_d_matches_per_tile(std::size_t b, std::uint64_t seed,
                                     KernelConfig cfg) {
  using T = typename Spec::value_type;
  BcdInputs<Spec> in(b, seed);
  auto tile_of = [&](const Matrix<T>& m) {
    return make_tile<T>(Matrix<T>(m));
  };
  const TileRef<T> u0 = tile_of(in.u), v0 = tile_of(in.v);
  const TileRef<T> u1 = tile_of(random_input<Spec>(b, seed + 404));
  const TileRef<T> v1 = tile_of(random_input<Spec>(b, seed + 505));
  const TileRef<T> w = tile_of(in.w);
  const TileRef<T> wt = Spec::kUsesW ? w : nullptr;

  std::vector<TileRef<T>> xs;  // keeps the borrowed member tiles alive
  std::vector<FusedDMember<T>> members;
  std::uint64_t s = seed;
  for (const auto& u : {u0, u1}) {
    for (const auto& v : {v0, v1}) {
      xs.push_back(tile_of(random_input<Spec>(b, ++s)));
      members.push_back({xs.back().get(), u.get(), v.get()});
    }
  }

  GepKernels<Spec> kernels(cfg);
  auto fused = apply_fused_d_batch<Spec>(kernels, members, wt.get());
  ASSERT_EQ(fused.size(), members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    auto ref = apply_tile_kernel<Spec>(kernels, KernelKind::D, members[m].x,
                                       members[m].u, members[m].v, wt.get());
    EXPECT_TRUE(*fused[m] == *ref)
        << Spec::name() << " b=" << b << " member " << m << " "
        << cfg.describe();
  }
}

template <typename Spec>
void fused_d_size_sweep(std::uint64_t seed) {
  for (std::size_t b : {std::size_t{64}, std::size_t{128}, std::size_t{256}}) {
    for (KernelBase base : {KernelBase::kScalar, KernelBase::kSimd}) {
      expect_fused_d_matches_per_tile<Spec>(
          b, seed + b, KernelConfig::iterative().with_base(base));
    }
  }
  // Ragged vector edges + the recursive per-tile reference path.
  for (std::size_t b : kAwkwardSizes) {
    expect_fused_d_matches_per_tile<Spec>(b, seed + 1000 + b,
                                          KernelConfig::iterative());
  }
  expect_fused_d_matches_per_tile<Spec>(64, seed + 2000,
                                        KernelConfig::recursive(2, 1, 16));
}

TEST(FusedD, FloydWarshallBitIdenticalToPerTile) {
  fused_d_size_sweep<FloydWarshallSpec>(51);
}
TEST(FusedD, GaussianEliminationBitIdenticalToPerTile) {
  fused_d_size_sweep<GaussianEliminationSpec>(52);
}
TEST(FusedD, TransitiveClosureBitIdenticalToPerTile) {
  fused_d_size_sweep<TransitiveClosureSpec>(53);
}
TEST(FusedD, WidestPathBitIdenticalToPerTile) {
  fused_d_size_sweep<WidestPathSpec>(54);
}

TEST(FusedD, PackedPanelRowsAreCacheLineAligned) {
  // Every packed row must start on a 64-byte boundary — the core claim of
  // the packing layout (loads in the fused micro-kernel never split a line).
  for (std::size_t b : {std::size_t{7}, std::size_t{64}, std::size_t{100}}) {
    DPanelPack<FloydWarshallSpec> pack(b, 2, 2);
    auto tile = random_input<FloydWarshallSpec>(b, b);
    pack.pack_col(Span2D<const double>(tile.span()));
    pack.pack_row(Span2D<const double>(tile.span()));
    EXPECT_EQ(pack.stride() * sizeof(double) % kCacheLineBytes, 0u);
    for (std::size_t i = 0; i < b; ++i) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pack.col(0).row(i)) %
                    kCacheLineBytes, 0u);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pack.row(0).row(i)) %
                    kCacheLineBytes, 0u);
    }
  }
}

TEST(FusedD, PackColIsTransposedPackRowIsVerbatim) {
  const std::size_t b = 5;
  auto tile = random_input<FloydWarshallSpec>(b, b);
  DPanelPack<FloydWarshallSpec> pack(b, 1, 1);
  pack.pack_col(Span2D<const double>(tile.span()));
  pack.pack_row(Span2D<const double>(tile.span()));
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t j = 0; j < b; ++j) {
      EXPECT_EQ(pack.col(0)(j, i), tile(i, j));
      EXPECT_EQ(pack.row(0)(i, j), tile(i, j));
    }
  }
}

// --------------------------------------------- Strassen field split (GE)

TEST(FusedDStrassen, GaussianEliminationWithinTolerance) {
  // The split reassociates sums, so it is tolerance- not bit-identical.
  using Spec = GaussianEliminationSpec;
  for (std::size_t b : {std::size_t{64}, std::size_t{128}, std::size_t{256}}) {
    BcdInputs<Spec> in(b, 77 + b);
    const auto x = make_tile<double>(Matrix<double>(in.x));
    const auto u = make_tile<double>(Matrix<double>(in.u));
    const auto v = make_tile<double>(Matrix<double>(in.v));
    const auto w = make_tile<double>(Matrix<double>(in.w));
    KernelConfig cfg;
    cfg.strassen_d = true;
    GepKernels<Spec> strassen(cfg);
    GepKernels<Spec> standard{KernelConfig{}};
    auto got = apply_fused_d_batch<Spec>(strassen, {{x.get(), u.get(), v.get()}},
                                         w.get());
    auto ref = apply_tile_kernel<Spec>(standard, KernelKind::D, x.get(),
                                       u.get(), v.get(), w.get());
    double max_rel = 0.0;
    for (std::size_t i = 0; i < b; ++i) {
      for (std::size_t j = 0; j < b; ++j) {
        const double denom = std::max(1.0, std::abs((*ref)(i, j)));
        max_rel = std::max(max_rel,
                           std::abs((*got[0])(i, j) - (*ref)(i, j)) / denom);
      }
    }
    EXPECT_LE(max_rel, 1e-9) << "b=" << b;
  }
}

TEST(FusedDStrassen, OddTileSideFallsBackBitIdentical) {
  // b odd cannot split into quadrants: guaranteed standard-path fallback.
  KernelConfig cfg;
  cfg.strassen_d = true;
  expect_fused_d_matches_per_tile<GaussianEliminationSpec>(33, 88, cfg);
}

TEST(FusedDStrassen, NonRingSemiringsFallBackBitIdentical) {
  // min-plus / or-and / max-min have no additive inverse — the axiom
  // auditor refuses them a ring proof, so FusedFieldOps keeps them on the
  // standard fused path even with the knob on, and the result stays
  // bit-identical to per-tile D. (kCompiles only tracks value_type ==
  // double; eligibility is the runtime proof.)
  static_assert(FusedFieldOps<FloydWarshallSpec>::kCompiles);
  static_assert(!FusedFieldOps<TransitiveClosureSpec>::kCompiles);
  static_assert(FusedFieldOps<WidestPathSpec>::kCompiles);
  static_assert(FusedFieldOps<GaussianEliminationSpec>::kCompiles);
  EXPECT_FALSE(FusedFieldOps<FloydWarshallSpec>::enabled());
  EXPECT_FALSE(FusedFieldOps<TransitiveClosureSpec>::enabled());
  EXPECT_FALSE(FusedFieldOps<WidestPathSpec>::enabled());
  EXPECT_TRUE(FusedFieldOps<GaussianEliminationSpec>::enabled());
  KernelConfig cfg;
  cfg.strassen_d = true;
  expect_fused_d_matches_per_tile<FloydWarshallSpec>(64, 91, cfg);
  expect_fused_d_matches_per_tile<TransitiveClosureSpec>(64, 92, cfg);
  expect_fused_d_matches_per_tile<WidestPathSpec>(64, 93, cfg);
}

// ------------------------------------------------------------- plumbing

TEST(SimdConfig, DescribeMentionsExplicitBase) {
  EXPECT_EQ(KernelConfig::iterative().describe(), "iterative");
  EXPECT_EQ(KernelConfig::iterative().with_base(KernelBase::kSimd).describe(),
            "iterative+simd");
  EXPECT_EQ(KernelConfig::iterative().with_base(KernelBase::kScalar).describe(),
            "iterative+scalar");
  const auto rec =
      KernelConfig::recursive(4, 2).with_base(KernelBase::kSimd).describe();
  EXPECT_NE(rec.find("recursive"), std::string::npos);
  EXPECT_NE(rec.find("+simd"), std::string::npos);
}

TEST(SimdConfig, ResolveBaseHonoursSpecSupport) {
  // The four built-in specs all have vector ops; kAuto resolves to SIMD
  // exactly when the build has vector units.
  const KernelBase resolved = resolve_base<FloydWarshallSpec>(KernelBase::kAuto);
  if (simd::has_vector_unit()) {
    EXPECT_EQ(resolved, KernelBase::kSimd);
  } else {
    EXPECT_EQ(resolved, KernelBase::kScalar);
  }
  EXPECT_EQ(resolve_base<FloydWarshallSpec>(KernelBase::kScalar),
            KernelBase::kScalar);
}

TEST(SimdConfig, BackendNameIsStable) {
  const std::string name = simd::backend_name();
  EXPECT_TRUE(name == "avx512" || name == "avx2" || name == "neon" ||
              name == "scalar");
  if (simd::has_vector_unit()) {
    EXPECT_NE(name, "scalar");
  }
}

}  // namespace

// bench_fig7_dependencies — reproduces paper Fig. 7 ("Data dependencies
// among kernels are shown with arrows") in quantitative form: for one outer
// iteration, the fan-out from each kernel's output to its consumers, both
// as the analytic copy-plan counts and as *measured* records flowing through
// the real driver's shuffles.
//
// This is the paper's explanation for the IM-vs-CB winners: FW's pivot tile
// feeds only B and C (2(r−k−1) copies); GE's feeds B, C, AND every D tile
// (2(r−k−1) + (r−k−1)² copies), so IM's shuffle fan-out explodes for GE.
#include <cstdio>

#include "bench_util.hpp"
#include "gepspark/copy_plan.hpp"
#include "gepspark/solver.hpp"
#include "gepspark/workload.hpp"

namespace {

using gepspark::GridRanges;

void analytic_fanout(bool uses_w, const char* name) {
  const int r = 8;
  GridRanges g(r, /*strict=*/uses_w);
  std::printf("\n%s, grid r=%d: per-iteration fan-out\n", name, r);
  std::printf("  %-4s %-10s %-12s %-12s %-14s\n", "k", "diag→B,C",
              "diag→D", "row/col→D", "IM shuffled tiles");
  for (int k = 0; k < r; ++k) {
    const auto m = static_cast<std::size_t>(g.num_b(k));
    const auto moves = simtime::im_tile_moves(g, k, uses_w);
    std::printf("  %-4d %-10zu %-12zu %-12zu %-14zu\n", k, 2 * m,
                uses_w ? m * m : 0, g.rowcol_copy_count(k), moves.total());
  }
}

void measured_fanout() {
  // Run the real IM driver on a 4×4 grid and read the shuffle volumes the
  // fan-out actually produced, per spec.
  const std::size_t n = 64, block = 16;
  const std::size_t item =
      sizeof(gs::TileKey) + block * block * sizeof(double) + 64 + 1;
  std::printf("\nmeasured IM shuffle records (4x4 grid, real sparklet run):\n");

  {
    sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
    auto input = gs::workload::random_digraph({.n = n, .seed = 23});
    gepspark::SolverOptions opt;
    opt.block_size = block;
    const auto st = gepspark::spark_floyd_warshall(sc, input, opt).profile;
    std::printf("  FW-APSP: %zu tile records shuffled (diag feeds B,C only)\n",
                st.shuffle_bytes / item);
  }
  {
    sparklet::SparkContext sc(sparklet::ClusterConfig::local(2, 2));
    auto input = gs::workload::diagonally_dominant_matrix(n, 23);
    gepspark::SolverOptions opt;
    opt.block_size = block;
    const auto st = gepspark::spark_gaussian_elimination(sc, input, opt).profile;
    std::printf(
        "  GE:      %zu tile records shuffled (diag also feeds every D)\n",
        st.shuffle_bytes / item);
  }
}

}  // namespace

int main() {
  analytic_fanout(/*uses_w=*/false, "FW-APSP (f ignores c[k,k])");
  analytic_fanout(/*uses_w=*/true, "GE (f reads c[k,k])");
  measured_fanout();
  std::printf(
      "\npaper reference (Fig. 7 / §IV-C): A copies its tile 2(r-k-1) times "
      "for FW but 2(r-k-1)+(r-k-1)^2 times for GE; B/C outputs each feed "
      "(r-k-1) D kernels.\n");
  return 0;
}

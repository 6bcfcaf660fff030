// linear_solver — solve a dense linear system A·x = b with the cluster GEP
// solver: Gaussian elimination without pivoting runs distributed (CB
// strategy + recursive kernels, the paper's best GE configuration), then
// the driver finishes with forward/back substitution and checks residuals.
//
//   $ ./linear_solver
#include <cmath>
#include <cstdio>
#include <vector>

#include "baseline/reference.hpp"
#include "gepspark/solver.hpp"
#include "gepspark/workload.hpp"

namespace {

// L y = b where L(i,k) = elim(i,k)/elim(k,k), unit diagonal.
std::vector<double> forward_substitute(const gs::Matrix<double>& elim,
                                       const std::vector<double>& b) {
  const std::size_t n = b.size();
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= elim(i, k) / elim(k, k) * y[k];
    y[i] = s;
  }
  return y;
}

// U x = y where U is elim's upper triangle.
std::vector<double> back_substitute(const gs::Matrix<double>& elim,
                                    const std::vector<double>& y) {
  const std::size_t n = y.size();
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double s = y[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= elim(i, j) * x[j];
    x[i] = s / elim(i, i);
  }
  return x;
}

}  // namespace

int main() {
  const std::size_t n = 256;
  std::printf("building a %zux%zu diagonally dominant system "
              "(GE without pivoting is stable on it)\n", n, n);
  auto a = gs::workload::diagonally_dominant_matrix(n, /*seed=*/7);

  // Manufactured solution so we can measure the true error.
  std::vector<double> x_true(n);
  gs::Rng rng(11);
  for (auto& v : x_true) v = rng.uniform(-3.0, 3.0);
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b[i] += a(i, j) * x_true[j];
  }

  // Distributed LU via the GEP solver (paper's best GE setup: CB + 4-way).
  sparklet::SparkContext sc(sparklet::ClusterConfig::local(4, 2));
  gepspark::SolverOptions opt;
  opt.block_size = 64;  // 4×4 tile grid
  opt.strategy = gepspark::Strategy::kCollectBroadcast;
  opt.kernel = gs::KernelConfig::recursive(/*r_shared=*/4, /*omp=*/2);

  auto outcome = gepspark::spark_gaussian_elimination(sc, a, opt);
  const auto& profile = outcome.profile;
  const auto& elim = outcome.matrix;
  std::printf("eliminated on the cluster: %d stages, %d tasks, collect %s, "
              "broadcast %s\n",
              profile.stages, profile.tasks,
              gs::human_bytes(double(profile.collect_bytes)).c_str(),
              gs::human_bytes(double(profile.broadcast_bytes)).c_str());

  // LU sanity: reconstruct A from the factors.
  std::printf("max |L*U - A| = %.3e\n", gs::baseline::lu_residual(a, elim));

  // Triangular solves on the driver.
  auto y = forward_substitute(elim, b);
  auto x = back_substitute(elim, y);

  double err = 0.0, res = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    err = std::max(err, std::abs(x[i] - x_true[i]));
    double ri = -b[i];
    for (std::size_t j = 0; j < n; ++j) ri += a(i, j) * x[j];
    res = std::max(res, std::abs(ri));
  }
  std::printf("solution error  max|x - x_true| = %.3e\n", err);
  std::printf("residual        max|A*x - b|    = %.3e\n", res);
  std::printf("x[0..5] = ");
  for (std::size_t i = 0; i < 6; ++i) std::printf("% .4f ", x[i]);
  std::printf("...\n");
  return err < 1e-8 ? 0 : 1;
}

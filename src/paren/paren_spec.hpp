// paren_spec.hpp — the parenthesis problem family (paper §VI future work:
// "extend the framework to include other data-intensive DP algorithms
// (beyond GEP)"; §III cites the family: CYK, optimal polygon triangulation,
// RNA folding).
//
// The canonical recurrence over "posts" 0..n−1:
//
//     C[i][j] = min_{i<k<j} ( C[i][k] + C[k][j] + w(i,k,j) ),   j > i+1,
//     C[i][i+1] given (leaf costs).
//
// Unlike GEP's Σ_G-driven k-outer loop, dependencies here force a wavefront
// over interval lengths — a genuinely different DP shape, which is exactly
// why the paper leaves it as future work. A ParenSpec supplies the
// split-weight w(i,k,j); instances below cover matrix-chain multiplication,
// optimal polygon triangulation, and the pure (weightless) form.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "support/check.hpp"

namespace paren {

template <typename S>
concept ParenSpecType = requires(const S& s, std::size_t i) {
  typename S::value_type;
  { s.weight(i, i, i) } -> std::convertible_to<typename S::value_type>;
  { s.num_posts() } -> std::convertible_to<std::size_t>;
  { S::name() } -> std::convertible_to<const char*>;
};

inline constexpr double kParenInf = std::numeric_limits<double>::infinity();

/// Pure parenthesis problem: w ≡ 0; all structure lives in the leaf costs
/// C[i][i+1] (an abstract folding/merging cost model).
class SimpleParenSpec {
 public:
  using value_type = double;

  explicit SimpleParenSpec(std::size_t num_posts) : n_(num_posts) {}

  double weight(std::size_t, std::size_t, std::size_t) const { return 0.0; }
  std::size_t num_posts() const { return n_; }
  static const char* name() { return "simple-parenthesis"; }

 private:
  std::size_t n_;
};

/// Matrix-chain multiplication: matrices A_1..A_m with A_t of shape
/// dims[t−1]×dims[t]; posts are the m+1 fence positions. Splitting the
/// product over (i,j) at k multiplies a dims[i]×dims[k] by a dims[k]×dims[j]
/// result: w(i,k,j) = dims[i]·dims[k]·dims[j] scalar multiplications.
class MatrixChainSpec {
 public:
  using value_type = double;

  explicit MatrixChainSpec(std::vector<double> dims)
      : dims_(std::make_shared<const std::vector<double>>(std::move(dims))) {
    GS_THROW_IF(dims_->size() < 2, gs::ConfigError,
                "matrix chain needs at least one matrix (two dims)");
  }

  /// Padded posts (virtual padding of the blocked table) clamp to the last
  /// real dim — their candidates are +∞ anyway and can never win.
  double weight(std::size_t i, std::size_t k, std::size_t j) const {
    const std::size_t last = dims_->size() - 1;
    return (*dims_)[std::min(i, last)] * (*dims_)[std::min(k, last)] *
           (*dims_)[std::min(j, last)];
  }
  std::size_t num_posts() const { return dims_->size(); }
  static const char* name() { return "matrix-chain"; }

  const std::vector<double>& dims() const { return *dims_; }

 private:
  std::shared_ptr<const std::vector<double>> dims_;  // cheap to copy around
};

/// Optimal polygon triangulation: posts are polygon vertices (convex,
/// ordered); triangulating (i,j) with apex k adds triangle (v_i, v_k, v_j),
/// costed here by its perimeter (the classic formulation).
class PolygonTriangulationSpec {
 public:
  using value_type = double;

  struct Point {
    double x = 0.0;
    double y = 0.0;
  };

  explicit PolygonTriangulationSpec(std::vector<Point> vertices)
      : v_(std::make_shared<const std::vector<Point>>(std::move(vertices))) {
    GS_THROW_IF(v_->size() < 3, gs::ConfigError,
                "polygon needs at least three vertices");
  }

  double weight(std::size_t i, std::size_t k, std::size_t j) const {
    const std::size_t last = v_->size() - 1;
    i = std::min(i, last);
    k = std::min(k, last);
    j = std::min(j, last);
    return dist(i, k) + dist(k, j) + dist(i, j);
  }
  std::size_t num_posts() const { return v_->size(); }
  static const char* name() { return "polygon-triangulation"; }

 private:
  double dist(std::size_t a, std::size_t b) const {
    const double dx = (*v_)[a].x - (*v_)[b].x;
    const double dy = (*v_)[a].y - (*v_)[b].y;
    return std::sqrt(dx * dx + dy * dy);
  }

  std::shared_ptr<const std::vector<Point>> v_;
};

static_assert(ParenSpecType<SimpleParenSpec>);
static_assert(ParenSpecType<MatrixChainSpec>);
static_assert(ParenSpecType<PolygonTriangulationSpec>);

/// One instance: the split weights plus leaf_costs[t] = C[t][t+1].
template <ParenSpecType Spec>
struct ParenProblem {
  Spec spec;
  std::vector<typename Spec::value_type> leaf_costs;

  std::size_t num_posts() const { return spec.num_posts(); }
  /// C[i][j] before any split: 0 on the diagonal, the leaf cost on real
  /// (t, t+1), +∞ elsewhere — also for the blocked table's padded cells.
  typename Spec::value_type seed(std::size_t i, std::size_t j) const {
    if (i == j) return {};
    if (j == i + 1 && j < num_posts()) return leaf_costs[i];
    return std::numeric_limits<typename Spec::value_type>::infinity();
  }
};

/// Matrix-chain instance over `dims`: a single matrix costs nothing.
inline ParenProblem<MatrixChainSpec> matrix_chain_problem(
    std::vector<double> dims) {
  MatrixChainSpec spec(std::move(dims));
  const std::size_t leaves = spec.num_posts() - 1;
  return {std::move(spec), std::vector<double>(leaves, 0.0)};
}

}  // namespace paren

// resident_table.hpp — a solved DP table kept hot on the server.
//
// Once a job completes, its table moves out of Spark entirely: the registry
// holds plain driver-side matrices, and point queries (dist, reachability,
// full path reconstruction) are O(1)/O(path) array reads with no scheduler,
// no RDDs, and no locks beyond the registry lookup — the sub-millisecond
// serving path the ROADMAP's "millions of users" goal asks for.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "grid/matrix.hpp"
#include "obs/job_profile.hpp"
#include "serve/pred.hpp"
#include "serve/request.hpp"

namespace serve {

/// Immutable once published to the registry (workers fill it, then the
/// server stores a shared_ptr<const ResidentTable>).
struct ResidentTable {
  JobId job = -1;
  std::string tenant;
  ProblemKind kind = ProblemKind::kFloydWarshall;

  gs::Matrix<double> values;           ///< fw / ge / widest / paren table,
                                       ///< align's 1x3 result
  gs::Matrix<std::uint8_t> bools;      ///< tc table
  gs::Matrix<std::int32_t> pred;       ///< fw predecessor hops (may be empty)
  obs::JobProfile profile;             ///< tagged with tenant + job id

  std::size_t n() const {
    return kind == ProblemKind::kTransitiveClosure ? bools.rows()
                                                   : values.rows();
  }

  bool has_pred() const { return pred.rows() > 0; }

  /// Resident footprint (what the tenant budget holds while the table
  /// stays registered).
  std::size_t bytes() const {
    return values.rows() * values.cols() * sizeof(double) +
           bools.rows() * bools.cols() +
           pred.rows() * pred.cols() * sizeof(std::int32_t);
  }

  /// Point query: the (u, v) cell of a numeric table.
  double dist(std::size_t u, std::size_t v) const {
    GS_THROW_IF(kind == ProblemKind::kTransitiveClosure ||
                    kind == ProblemKind::kAlign,
                gs::ConfigError,
                "dist() needs a numeric table (use reachable() for tc)");
    GS_THROW_IF(u >= values.rows() || v >= values.cols(), gs::ConfigError,
                "dist() query out of range");
    return values(u, v);
  }

  /// Point query: u→v reachability from a transitive-closure table.
  bool reachable(std::size_t u, std::size_t v) const {
    GS_THROW_IF(kind != ProblemKind::kTransitiveClosure, gs::ConfigError,
                "reachable() needs a transitive-closure table");
    GS_THROW_IF(u >= bools.rows() || v >= bools.cols(), gs::ConfigError,
                "reachable() query out of range");
    return bools(u, v) != 0;
  }

  /// Point query: the full shortest u→v path (vertex sequence, u first),
  /// empty when unreachable. Requires a predecessor-tracked FW table.
  std::vector<std::int64_t> path(std::size_t u, std::size_t v) const {
    GS_THROW_IF(!has_pred(), gs::ConfigError,
                "path() needs a predecessor-tracked table (submit the job "
                "with options.track_predecessors)");
    GS_THROW_IF(u >= values.rows() || v >= values.cols(), gs::ConfigError,
                "path() query out of range");
    return reconstruct_path(values, pred, u, v);
  }
};

}  // namespace serve

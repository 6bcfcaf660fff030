// request.hpp — the serving layer's unified job request.
//
// Every workload the repo can solve (the GEP family FW/GE/TC/widest-path,
// the parenthesis wavefront, pairwise alignment) submits through one
// SolveRequest: problem kind + input + options + tenant id. The JobServer
// turns a request into a SolveTicket; the one-shot serve::solve_now() runs
// the identical execution path synchronously, so a served result is
// bit-identical to a direct solve_gep / nested_solve call with the same
// options.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "align/align_spec.hpp"
#include "gepspark/options.hpp"
#include "grid/matrix.hpp"

namespace serve {

/// Server-assigned job identifier; keys the resident-table registry.
using JobId = std::int64_t;

enum class ProblemKind : int {
  kFloydWarshall = 0,
  kGaussianElimination = 1,
  kTransitiveClosure = 2,
  kWidestPath = 3,
  kParen = 4,  ///< matrix-chain parenthesization (paren::ParenPlan)
  kAlign = 5,  ///< pairwise alignment (align::AlignPlan)
};

inline const char* problem_kind_name(ProblemKind k) {
  switch (k) {
    case ProblemKind::kFloydWarshall: return "fw";
    case ProblemKind::kGaussianElimination: return "ge";
    case ProblemKind::kTransitiveClosure: return "tc";
    case ProblemKind::kWidestPath: return "widest";
    case ProblemKind::kParen: return "paren";
    case ProblemKind::kAlign: return "align";
  }
  return "?";
}

/// One solve job. Which input field is read depends on `kind`:
///   fw / ge / widest — `matrix` (square, double)
///   tc               — `bool_matrix` (square, 0/1)
///   paren            — `paren_dims` (matrix-chain dimensions, n+1 entries)
///   align            — `seq_a` / `seq_b` (+ scoring, mode)
/// `options` governs every kind; the GEP-only knobs (fused_d,
/// track_predecessors) are rejected for paren/align at submit time.
struct SolveRequest {
  ProblemKind kind = ProblemKind::kFloydWarshall;
  std::string tenant = "default";
  gepspark::SolverOptions options;

  gs::Matrix<double> matrix;             ///< fw / ge / widest input
  gs::Matrix<std::uint8_t> bool_matrix;  ///< tc input

  std::vector<double> paren_dims;  ///< matrix-chain dims (num matrices + 1)

  std::string seq_a, seq_b;  ///< align inputs
  align::ScoringScheme scoring{};
  align::AlignMode align_mode = align::AlignMode::kLocal;

  /// Resident-table footprint this job will pin on the server once done —
  /// the admission controller charges it against the tenant's budget at
  /// submit time (and trues it up to the real size on completion).
  std::size_t estimated_table_bytes() const {
    switch (kind) {
      case ProblemKind::kFloydWarshall: {
        // track_predecessors keeps a second int32 matrix next to the doubles.
        const std::size_t cells = matrix.rows() * matrix.cols();
        return cells * (sizeof(double) +
                        (options.track_predecessors ? sizeof(std::int32_t) : 0));
      }
      case ProblemKind::kGaussianElimination:
      case ProblemKind::kWidestPath:
        return matrix.rows() * matrix.cols() * sizeof(double);
      case ProblemKind::kTransitiveClosure:
        return bool_matrix.rows() * bool_matrix.cols();
      case ProblemKind::kParen: {
        const std::size_t posts = paren_dims.size();
        return posts * posts * sizeof(double);
      }
      case ProblemKind::kAlign:
        // Only the 1x3 result stays resident; charge the working set.
        return seq_a.size() + seq_b.size();
    }
    return 0;
  }

  /// Reject malformed requests at submission (before any queueing): shape
  /// errors here, incoherent option combinations via options.validate()
  /// (paren/align: validate_wavefront_options, as nested_solve runs it).
  void validate() const {
    switch (kind) {
      case ProblemKind::kFloydWarshall:
      case ProblemKind::kGaussianElimination:
      case ProblemKind::kWidestPath:
        GS_THROW_IF(matrix.rows() == 0 || matrix.rows() != matrix.cols(),
                    gs::ConfigError,
                    "request needs a non-empty square `matrix`");
        break;
      case ProblemKind::kTransitiveClosure:
        GS_THROW_IF(
            bool_matrix.rows() == 0 || bool_matrix.rows() != bool_matrix.cols(),
            gs::ConfigError, "request needs a non-empty square `bool_matrix`");
        break;
      case ProblemKind::kParen:
        GS_THROW_IF(paren_dims.size() < 2, gs::ConfigError,
                    "paren request needs >= 2 matrix-chain dimensions");
        break;
      case ProblemKind::kAlign:
        GS_THROW_IF(seq_a.empty() || seq_b.empty(), gs::ConfigError,
                    "align request needs non-empty sequences");
        scoring.validate();
        break;
    }
    const bool wavefront =
        kind == ProblemKind::kParen || kind == ProblemKind::kAlign;
    if (wavefront) gepspark::validate_wavefront_options(options);
    GS_THROW_IF(
        options.track_predecessors && kind != ProblemKind::kFloydWarshall,
        gs::ConfigError,
        "track_predecessors requires the Floyd-Warshall kind (predecessor "
        "tiles are only defined for shortest paths)");
    GS_THROW_IF(tenant.empty(), gs::ConfigError, "tenant id must be non-empty");
    if (!wavefront) options.validate();
  }
};

enum class JobStatus : int {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kCancelled = 3,
  kFailed = 4,
};

inline const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kFailed: return "failed";
  }
  return "?";
}

inline bool is_terminal(JobStatus s) {
  return s == JobStatus::kDone || s == JobStatus::kCancelled ||
         s == JobStatus::kFailed;
}

}  // namespace serve

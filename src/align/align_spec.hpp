// align_spec.hpp — pairwise sequence alignment on the sparklet substrate
// (the paper's related work, §III, leans on this DP family: GPU and Spark
// Smith–Waterman [30], [54]–[57]).
//
// The recurrence (linear gap penalties):
//
//   H[i][j] = max( H[i-1][j-1] + s(a_i, b_j),
//                  H[i-1][j]   + gap,
//                  H[i][j-1]   + gap
//                  [, 0 in local mode] )
//
// Global mode (Needleman–Wunsch) initializes borders with accumulating gap
// penalties and reads the score at H[m][n]; local mode (Smith–Waterman)
// clamps at 0 and takes the table maximum.
//
// Unlike GEP (k-outer sweeps) and the parenthesis family (interval
// wavefront), this DP moves along anti-diagonals and neighbouring tiles
// exchange only O(b) boundary cells — a third communication pattern for the
// framework.
#pragma once

#include <string>

#include "support/check.hpp"

namespace align {

enum class AlignMode : int {
  kGlobal = 0,  ///< Needleman–Wunsch
  kLocal = 1,   ///< Smith–Waterman
};

struct ScoringScheme {
  double match = 2.0;
  double mismatch = -1.0;
  double gap = -2.0;

  double score(char x, char y) const { return x == y ? match : mismatch; }

  void validate() const {
    GS_THROW_IF(gap >= 0.0, gs::ConfigError,
                "gap penalty must be negative");
    GS_THROW_IF(match <= 0.0, gs::ConfigError, "match must reward");
  }
};

}  // namespace align

// sequence_align — the bioinformatics workload the paper's intro motivates
// ("bioinformatics and computational biology" applications, refs [29]–[31]):
// align a mutated DNA read against a reference genome segment with the
// distributed wavefront plan, then show the alignment.
//
//   $ ./sequence_align
#include <cstdio>

#include "align/align_plan.hpp"
#include "nested/nested_driver.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"

namespace {

std::string random_dna(std::size_t n, gs::Rng& rng) {
  static const char* kAlphabet = "ACGT";
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s.push_back(kAlphabet[rng.uniform_u64(4)]);
  return s;
}

/// Copy of `src` with point mutations, insertions, and deletions.
std::string mutate(const std::string& src, double rate, gs::Rng& rng) {
  static const char* kAlphabet = "ACGT";
  std::string out;
  out.reserve(src.size());
  for (char c : src) {
    const double roll = rng.uniform();
    if (roll < rate / 3) {
      out.push_back(kAlphabet[rng.uniform_u64(4)]);  // substitution
    } else if (roll < 2 * rate / 3) {
      // deletion: skip
    } else if (roll < rate) {
      out.push_back(c);
      out.push_back(kAlphabet[rng.uniform_u64(4)]);  // insertion
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// One anti-diagonal wave per stage, boundary records shipped through the
/// driver (Collect-Broadcast).
gepspark::SolveOutcome<double> solve(sparklet::SparkContext& sc,
                                     const align::AlignProblem& prob,
                                     std::size_t block) {
  gepspark::SolverOptions opt;
  opt.block_size = block;
  opt.strategy = gepspark::Strategy::kCollectBroadcast;
  return nested::nested_solve(sc, align::AlignPlan(prob, block), opt);
}

}  // namespace

int main() {
  gs::Rng rng(777);
  const std::string genome = random_dna(1200, rng);
  // A read: a mutated copy of genome[400..900).
  const std::string read = mutate(genome.substr(400, 500), 0.06, rng);

  sparklet::SparkContext sc(sparklet::ClusterConfig::local(4, 2));
  align::ScoringScheme scheme{2.0, -1.0, -2.0};

  // Local alignment finds where the read belongs.
  const auto local =
      solve(sc, {read, genome, scheme, align::AlignMode::kLocal}, 128);
  const auto res = align::AlignResult::from_table(local.matrix);
  std::printf("local alignment of a %zu bp read vs %zu bp reference:\n",
              read.size(), genome.size());
  std::printf("  score %.0f, read ends at %zu, reference position %zu "
              "(true segment start: 400)\n",
              res.score, res.end_i, res.end_j);
  std::printf("  %d wavefront stages; boundaries broadcast: %s\n",
              local.profile.stages,
              gs::human_bytes(double(local.profile.broadcast_bytes)).c_str());

  // Show the first 60 columns of the actual alignment (reference solver
  // provides the traceback at this scale).
  auto ref = align::reference_align(read, genome, scheme,
                                    align::AlignMode::kLocal);
  auto pair = align::traceback(ref, read, genome, scheme,
                               align::AlignMode::kLocal);
  std::string markers;
  std::size_t matches = 0;
  for (std::size_t t = 0; t < pair.a.size(); ++t) {
    const bool hit = pair.a[t] == pair.b[t];
    matches += hit;
    markers.push_back(hit ? '|' : (pair.a[t] == '-' || pair.b[t] == '-')
                                      ? ' '
                                      : '.');
  }
  std::printf("\nidentity: %.1f%% over %zu aligned columns\n",
              100.0 * double(matches) / double(pair.a.size()), pair.a.size());
  std::printf("  read  %s...\n  match %s...\n  ref   %s...\n",
              pair.a.substr(0, 60).c_str(), markers.substr(0, 60).c_str(),
              pair.b.substr(0, 60).c_str());

  // Global alignment of two diverged full-length sequences for contrast.
  const std::string cousin = mutate(genome, 0.10, rng);
  const auto global = align::AlignResult::from_table(
      solve(sc, {genome, cousin, scheme, align::AlignMode::kGlobal}, 256)
          .matrix);
  std::printf("\nglobal alignment of the %zu bp genome vs a 10%%-diverged "
              "cousin (%zu bp): score %.0f\n",
              genome.size(), cousin.size(), global.score);
  return 0;
}

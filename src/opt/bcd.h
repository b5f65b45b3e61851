#ifndef OPTHASH_OPT_BCD_H_
#define OPTHASH_OPT_BCD_H_

#include <cstdint>

#include "opt/initialization.h"
#include "opt/solver.h"

namespace opthash::opt {

/// \brief Configuration for the block coordinate descent solver.
struct BcdConfig {
  /// Hard cap on full sweeps over all n element blocks.
  size_t max_sweeps = 100;
  /// Terminate when the per-sweep objective improvement drops below
  /// tolerance * max(1, |previous objective|) — the paper's
  /// "ε_{t-1} - ε_t < ϵ" criterion.
  double tolerance = 1e-9;
  /// Starting point strategy (paper §4.3 / §4.4 discuss all four).
  InitStrategy init = InitStrategy::kRandom;
  /// Independent restarts; the best local optimum is returned ("the process
  /// can be repeated multiple times from different starting points").
  size_t num_restarts = 1;
  uint64_t seed = 13;
};

/// \brief Algorithm 1: block coordinate descent over element blocks.
///
/// Each sweep visits the n blocks z_i in a fresh random permutation and
/// moves element i to the bucket whose error rises least by hosting it;
/// staying put costs the drop in its current bucket's error. Every
/// accepted move strictly decreases the objective, so the sweep objective
/// sequence is non-increasing and the algorithm terminates at a local
/// optimum.
///
/// The candidate scan is pruned by an exact bound. Hosting f in a
/// non-empty bucket j raises e_j by at least 2·|f − mu_j| / (c_j + 1): a
/// member lies on each side of the mean, and the mean moves by
/// (f − mu_j) / (c_j + 1). The similarity delta is >= 0, so lambda times
/// the bound bounds the whole delta for any lambda. A candidate whose
/// bound, less a slack of 1e-9·(S_j + e_j + f + 1) for rounding, already
/// reaches the best delta so far is skipped. The rest are scored from a
/// flat per-bucket summary (count, sums, mean, min, max, e_j, and a pure
/// bucket's score for one more of its own value) refreshed only for the
/// two buckets a move touches: in O(1) when the new mean falls outside
/// [min_j, max_j], else by the BucketStats binary search in O(log c_j),
/// plus O(p) for the similarity term when lambda < 1. Scored deltas round
/// exactly as BucketStats::EstimationErrorWith does, and the tie rule is
/// strict: the current bucket wins ties, then the lowest j. The
/// assignment, sweep objectives and sweep count are therefore bit for bit
/// those of scoring every candidate.
class BcdSolver {
 public:
  explicit BcdSolver(BcdConfig config = {});

  /// Runs num_restarts descents from fresh initializations, returns best.
  SolveResult Solve(const HashingProblem& problem) const;

  /// Single descent from a caller-provided starting assignment.
  SolveResult SolveFrom(const HashingProblem& problem,
                        Assignment initial) const;

  const BcdConfig& config() const { return config_; }

 private:
  SolveResult Descend(const HashingProblem& problem, Assignment assignment,
                      Rng& rng) const;

  BcdConfig config_;
};

}  // namespace opthash::opt

#endif  // OPTHASH_OPT_BCD_H_

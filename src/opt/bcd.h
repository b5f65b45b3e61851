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
/// Each sweep visits the n blocks z_i in a fresh random permutation. For a
/// block, every candidate bucket j is scored by the *change* in total error
/// if element i moved there — evaluated in O(log c_j + p) from the
/// incremental BucketStats — and the element greedily moves to the argmin
/// (staying put on ties). Each bucket's current estimation error e_j is
/// cached and refreshed only for the two buckets a move touches, so a
/// candidate costs one EstimationErrorWith search, not two. Every accepted
/// move strictly decreases the objective, so the sweep objective sequence
/// is non-increasing and the algorithm terminates at a local optimum.
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

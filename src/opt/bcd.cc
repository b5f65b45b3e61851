#include "opt/bcd.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/timer.h"
#include "opt/bucket_stats.h"

namespace opthash::opt {

BcdSolver::BcdSolver(BcdConfig config) : config_(config) {
  OPTHASH_CHECK_GE(config_.max_sweeps, 1u);
  OPTHASH_CHECK_GE(config_.num_restarts, 1u);
}

SolveResult BcdSolver::Solve(const HashingProblem& problem) const {
  OPTHASH_CHECK_MSG(problem.Validate().ok(), "invalid problem");
  Timer timer;
  Rng rng(config_.seed);
  SolveResult best;
  bool have_best = false;
  for (size_t restart = 0; restart < config_.num_restarts; ++restart) {
    Assignment initial = InitializeAssignment(problem, config_.init, rng);
    SolveResult candidate = Descend(problem, std::move(initial), rng);
    if (!have_best || candidate.objective.overall < best.objective.overall) {
      best = std::move(candidate);
      have_best = true;
    }
  }
  best.elapsed_seconds = timer.ElapsedSeconds();
  return best;
}

SolveResult BcdSolver::SolveFrom(const HashingProblem& problem,
                                 Assignment initial) const {
  OPTHASH_CHECK_MSG(problem.Validate().ok(), "invalid problem");
  OPTHASH_CHECK_MSG(IsValidAssignment(problem, initial),
                    "invalid starting assignment");
  Timer timer;
  Rng rng(config_.seed);
  SolveResult result = Descend(problem, std::move(initial), rng);
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

SolveResult BcdSolver::Descend(const HashingProblem& problem,
                               Assignment assignment, Rng& rng) const {
  const size_t n = problem.NumElements();
  const size_t b = problem.num_buckets;
  const double lambda = problem.lambda;
  const bool use_features = lambda < 1.0 && problem.FeatureDim() > 0;
  const size_t feature_dim = use_features ? problem.FeatureDim() : 0;
  // Never destroyed, per the style rule on static storage duration
  // objects with non-trivial destructors.
  static const auto& kNoFeatures = *new std::vector<double>();

  auto features_of = [&](size_t i) -> const std::vector<double>& {
    return use_features ? problem.features[i] : kNoFeatures;
  };

  // Build bucket stats and the per-bucket error caches for the initial map
  // (Algorithm 1, lines 2-9).
  std::vector<BucketStats> buckets(b, BucketStats(feature_dim));
  for (size_t i = 0; i < n; ++i) {
    buckets[static_cast<size_t>(assignment[i])].Add(problem.frequencies[i],
                                                    features_of(i));
  }
  // e_j changes only when a move touches bucket j, so it is cached beside
  // the full bucket error and read, not recomputed, for each candidate.
  std::vector<double> bucket_error(b, 0.0);
  std::vector<double> estimation_error(b, 0.0);
  double total_error = 0.0;
  for (size_t j = 0; j < b; ++j) {
    bucket_error[j] = buckets[j].Error(lambda);
    estimation_error[j] = buckets[j].EstimationError();
    total_error += bucket_error[j];
  }

  SolveResult result;
  result.sweep_objectives.push_back(total_error);

  double previous = total_error;
  size_t sweeps = 0;
  while (sweeps < config_.max_sweeps) {
    // Algorithm 1, line 12: fresh random permutation of the blocks.
    const std::vector<size_t> permutation = rng.Permutation(n);
    for (size_t element : permutation) {
      const auto current = static_cast<size_t>(assignment[element]);
      const double f = problem.frequencies[element];
      const std::vector<double>& x = features_of(element);

      // Error of the current bucket with the element removed.
      const BucketStats& home = buckets[current];
      const double home_without =
          lambda * home.EstimationErrorWithout(f) +
          (1.0 - lambda) *
              (home.SimilarityError() + home.SimilarityDeltaRemove(x));
      const double home_delta = bucket_error[current] - home_without;

      // Find the bucket whose error increases the least by hosting the
      // element; staying put costs exactly home_delta.
      size_t best_bucket = current;
      double best_delta = home_delta;
      for (size_t j = 0; j < b; ++j) {
        if (j == current) continue;
        const BucketStats& target = buckets[j];
        double delta = lambda * (target.EstimationErrorWith(f) -
                                 estimation_error[j]);
        if (use_features) {
          delta += (1.0 - lambda) * target.SimilarityDeltaAdd(x);
        }
        if (delta < best_delta) {
          best_delta = delta;
          best_bucket = j;
        }
      }

      if (best_bucket == current) continue;

      // Apply the move and refresh the caches of the two touched buckets.
      buckets[current].Remove(f, x);
      buckets[best_bucket].Add(f, x);
      assignment[element] = static_cast<int32_t>(best_bucket);
      total_error -= bucket_error[current] + bucket_error[best_bucket];
      bucket_error[current] = buckets[current].Error(lambda);
      bucket_error[best_bucket] = buckets[best_bucket].Error(lambda);
      estimation_error[current] = buckets[current].EstimationError();
      estimation_error[best_bucket] = buckets[best_bucket].EstimationError();
      total_error += bucket_error[current] + bucket_error[best_bucket];
    }
    ++sweeps;
    result.sweep_objectives.push_back(total_error);
    const double improvement = previous - total_error;
    if (improvement < config_.tolerance * std::max(1.0, std::abs(previous))) {
      break;
    }
    previous = total_error;
  }

  result.assignment = std::move(assignment);
  result.iterations = sweeps;
  result.objective = EvaluateObjective(problem, result.assignment);
  result.proven_optimal = false;
  return result;
}

}  // namespace opthash::opt

// Differential check of BcdSolver's pruned candidate scan against the
// unpruned scan it replaced: every candidate bucket scored with an exact
// EstimationErrorWith search. The pruned scan skips only candidates whose
// lower bound proves they cannot win and scores the rest with the same
// arithmetic, so the assignment, the per-sweep objectives and the sweep
// count must agree bit for bit.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "opt/bcd.h"
#include "opt/bucket_stats.h"
#include "opt/initialization.h"
#include "opt/objective.h"

namespace opthash::opt {
namespace {

// One descent with the unpruned scan: BcdSolver::Descend as it was before
// the bound, kept here only as the reference.
SolveResult ReferenceDescend(const BcdConfig& config,
                             const HashingProblem& problem,
                             Assignment assignment, Rng& rng) {
  const size_t n = problem.NumElements();
  const size_t b = problem.num_buckets;
  const double lambda = problem.lambda;
  const bool use_features = lambda < 1.0 && problem.FeatureDim() > 0;
  const size_t feature_dim = use_features ? problem.FeatureDim() : 0;
  const std::vector<double> no_features;
  auto features_of = [&](size_t i) -> const std::vector<double>& {
    return use_features ? problem.features[i] : no_features;
  };

  std::vector<BucketStats> buckets(b, BucketStats(feature_dim));
  for (size_t i = 0; i < n; ++i) {
    buckets[static_cast<size_t>(assignment[i])].Add(problem.frequencies[i],
                                                    features_of(i));
  }
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
  while (sweeps < config.max_sweeps) {
    const std::vector<size_t> permutation = rng.Permutation(n);
    for (size_t element : permutation) {
      const auto current = static_cast<size_t>(assignment[element]);
      const double f = problem.frequencies[element];
      const std::vector<double>& x = features_of(element);
      const BucketStats& home = buckets[current];
      const double home_without =
          lambda * home.EstimationErrorWithout(f) +
          (1.0 - lambda) *
              (home.SimilarityError() + home.SimilarityDeltaRemove(x));
      const double home_delta = bucket_error[current] - home_without;

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
    if (improvement < config.tolerance * std::max(1.0, std::abs(previous))) {
      break;
    }
    previous = total_error;
  }
  result.assignment = std::move(assignment);
  result.iterations = sweeps;
  result.objective = EvaluateObjective(problem, result.assignment);
  return result;
}

// BcdSolver::Solve's restart loop around the reference descent.
SolveResult ReferenceSolve(const BcdConfig& config,
                           const HashingProblem& problem) {
  Rng rng(config.seed);
  SolveResult best;
  bool have_best = false;
  for (size_t restart = 0; restart < config.num_restarts; ++restart) {
    Assignment initial = InitializeAssignment(problem, config.init, rng);
    SolveResult candidate =
        ReferenceDescend(config, problem, std::move(initial), rng);
    if (!have_best || candidate.objective.overall < best.objective.overall) {
      best = std::move(candidate);
      have_best = true;
    }
  }
  return best;
}

enum class Frequencies { kIntegers, kReals, kFewValues, kFewReals };

HashingProblem MakeProblem(size_t n, size_t b, double lambda, Frequencies kind,
                           uint64_t seed) {
  Rng rng(seed);
  HashingProblem problem;
  problem.num_buckets = b;
  problem.lambda = lambda;
  // Few distinct values make heavy ties between buckets; the real-valued
  // ones also make the incremental sums round.
  const std::vector<double> few_reals = {0.1, 0.2, 0.3, 1.7, 12.05};
  for (size_t i = 0; i < n; ++i) {
    double f = 0.0;
    switch (kind) {
      case Frequencies::kIntegers:
        // Heavy-tailed, like stream counts.
        f = std::floor(std::exp(rng.NextDouble(0.0, 6.0)));
        break;
      case Frequencies::kReals:
        f = rng.NextDouble(0.0, 100.0);
        break;
      case Frequencies::kFewValues:
        f = static_cast<double>(1 + rng.NextBounded(3));
        break;
      case Frequencies::kFewReals:
        f = few_reals[rng.NextBounded(few_reals.size())];
        break;
    }
    problem.frequencies.push_back(f);
  }
  if (lambda < 1.0) {
    problem.features.resize(n);
    for (auto& x : problem.features) {
      x = {rng.NextGaussian(), rng.NextGaussian()};
    }
  }
  return problem;
}

TEST(BcdDifferentialTest, PrunedScanMatchesUnprunedScanBitForBit) {
  const Frequencies kinds[] = {Frequencies::kIntegers, Frequencies::kReals,
                               Frequencies::kFewValues, Frequencies::kFewReals};
  const double lambdas[] = {0.0, 0.3, 0.5, 1.0};
  const InitStrategy inits[] = {InitStrategy::kRandom,
                                InitStrategy::kSortedSplit,
                                InitStrategy::kHeavyHitter,
                                InitStrategy::kDpWarmStart};
  // b = 1, b much smaller than n, and b > n (empty buckets throughout).
  const size_t shapes[][2] = {{40, 1}, {90, 6}, {120, 24}, {30, 45}};
  size_t cases = 0;
  size_t moved = 0;
  uint64_t seed = 1;
  for (Frequencies kind : kinds) {
    for (double lambda : lambdas) {
      for (const auto& shape : shapes) {
        for (InitStrategy init : inits) {
          ++seed;
          const HashingProblem problem =
              MakeProblem(shape[0], shape[1], lambda, kind, seed);
          BcdConfig config;
          config.init = init;
          config.num_restarts = 1 + seed % 3;
          config.seed = seed;
          const SolveResult expected = ReferenceSolve(config, problem);
          const SolveResult actual = BcdSolver(config).Solve(problem);
          // Each case has its own seed, which names it.
          SCOPED_TRACE("seed " + std::to_string(seed));
          EXPECT_EQ(actual.assignment, expected.assignment);
          EXPECT_EQ(actual.sweep_objectives, expected.sweep_objectives);
          EXPECT_EQ(actual.iterations, expected.iterations);
          ++cases;
          if (expected.sweep_objectives.front() !=
              expected.sweep_objectives.back()) {
            ++moved;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 256u);
  // Most cases must actually move elements, or the check shows little.
  EXPECT_GT(moved, cases / 2);
}

}  // namespace
}  // namespace opthash::opt

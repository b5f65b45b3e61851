#include "opt/bcd.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

namespace {

// Rounding allowance of the pruning bound, relative to the magnitudes
// (S_j, e_j, f) a candidate's delta is computed from. The computed bound
// and delta differ from their exact values by a few ulps of these, plus
// the rounding S_j picks up from incremental updates: far below this.
constexpr double kBoundSlack = 1e-9;

// The part of bucket j every candidate check reads: the check skips j when
// |f - mean| * scale - slack, lambda times its lower bound less the
// rounding slack, already reaches the best delta so far.
struct BucketBound {
  double mean = 0.0;   // mu_j; 0 when empty.
  double scale = 0.0;  // lambda * 2 / (c_j + 1); 0 when empty (no bound).
  double slack = 0.0;  // kBoundSlack * (S_j + e_j + 1).
};

// The rest of what the scan reads of bucket j, to score a candidate that
// the bound does not skip.
struct BucketSummary {
  double estimation_error = 0.0;  // e_j.
  double sum = 0.0;               // S_j, BucketStats::FrequencySum().
  double sorted_sum = 0.0;        // BucketStats::SortedSum().
  double min = 0.0;               // Smallest member; 0 when empty.
  double max = 0.0;               // Largest member; 0 when empty.
  size_t count = 0;               // c_j.
  // A pure bucket (min == max) keeps its score for hosting one more of its
  // own value. Its bound is 0, so the scan cannot skip it, and once BCD
  // has made most buckets pure these are most of the scored candidates.
  // NaN matches no f.
  double pure_value = std::numeric_limits<double>::quiet_NaN();
  double pure_with = 0.0;
};

// bucket.EstimationErrorWith(f), bit for bit: when the new mean lies
// outside [min_j, max_j] the split of SumAbsDeviations is known, so the
// same arithmetic runs in O(1) from the summary; otherwise the bucket's
// own binary search runs. An empty bucket scores exactly 0.
double EstimationErrorWith(const BucketSummary& s, const BucketStats& bucket,
                           double f) {
  if (f == s.pure_value) return s.pure_with;
  if (s.count == 0) return 0.0;
  const double new_mean = (s.sum + f) / static_cast<double>(s.count + 1);
  double deviations;
  if (new_mean <= s.min) {
    deviations = SplitAbsDeviations(new_mean, 0, 0.0, s.count, s.sum);
  } else if (new_mean > s.max) {
    deviations =
        SplitAbsDeviations(new_mean, s.count, s.sorted_sum, s.count, s.sum);
  } else {
    deviations = bucket.SumAbsDeviations(new_mean);
  }
  return deviations + std::abs(f - new_mean);
}

void Summarize(const BucketStats& bucket, double lambda, BucketBound& bound,
               BucketSummary& s) {
  s = BucketSummary();
  s.count = bucket.count();
  s.sum = bucket.FrequencySum();
  s.sorted_sum = bucket.SortedSum();
  s.estimation_error = bucket.EstimationError();
  bound = BucketBound();
  bound.mean = bucket.Mean();
  bound.slack = kBoundSlack * (s.sum + s.estimation_error + 1.0);
  if (!bucket.empty()) {
    bound.scale = lambda * 2.0 / static_cast<double>(s.count + 1);
    s.min = bucket.sorted_frequencies().front();
    s.max = bucket.sorted_frequencies().back();
    if (s.min == s.max) {
      s.pure_with = EstimationErrorWith(s, bucket, s.min);
      s.pure_value = s.min;
    }
  }
}

}  // namespace

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

  // Build bucket stats and the per-bucket caches for the initial map
  // (Algorithm 1, lines 2-9).
  std::vector<BucketStats> buckets(b, BucketStats(feature_dim));
  for (size_t i = 0; i < n; ++i) {
    buckets[static_cast<size_t>(assignment[i])].Add(problem.frequencies[i],
                                                    features_of(i));
  }
  std::vector<double> bucket_error(b, 0.0);
  std::vector<BucketBound> bound(b);
  std::vector<BucketSummary> summary(b);
  double total_error = 0.0;
  for (size_t j = 0; j < b; ++j) {
    bucket_error[j] = buckets[j].Error(lambda);
    Summarize(buckets[j], lambda, bound[j], summary[j]);
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
      // element; staying put costs exactly home_delta. A candidate is
      // skipped when lambda times its lower bound, less the slack, already
      // reaches best_delta: its scored delta could not be strictly lower.
      size_t best_bucket = current;
      double best_delta = home_delta;
      const double f_slack = kBoundSlack * f;
      double threshold = best_delta + f_slack;
      for (size_t j = 0; j < b; ++j) {
        if (j == current) continue;
        if (std::abs(f - bound[j].mean) * bound[j].scale - bound[j].slack >=
            threshold) {
          continue;
        }
        const BucketSummary& target = summary[j];
        double delta = lambda * (EstimationErrorWith(target, buckets[j], f) -
                                 target.estimation_error);
        if (use_features) {
          delta += (1.0 - lambda) * buckets[j].SimilarityDeltaAdd(x);
        }
        if (delta < best_delta) {
          best_delta = delta;
          best_bucket = j;
          threshold = best_delta + f_slack;
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
      Summarize(buckets[current], lambda, bound[current], summary[current]);
      Summarize(buckets[best_bucket], lambda, bound[best_bucket],
                summary[best_bucket]);
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

#ifndef OPTHASH_BENCH_AOL_HARNESS_H_
#define OPTHASH_BENCH_AOL_HARNESS_H_

// Shared harness for the real-world (§7) experiments on the AOL-substitute
// query log: builds the day-0 prefix, trains every estimator family at a
// given memory budget, streams the remaining days, and scores the §7.4
// metrics at day checkpoints. Used by bench_aol_error_vs_size (Fig. 7),
// bench_aol_error_vs_time (Fig. 8) and bench_aol_table1 (Table 1).

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/table_printer.h"
#include "core/baseline_estimators.h"
#include "core/evaluation.h"
#include "core/opt_hash_estimator.h"
#include "experiment_util.h"
#include "sketch/learned_count_min.h"
#include "stream/element.h"
#include "stream/query_log.h"

namespace opthash::bench {

/// One candidate estimator (a hyperparameter choice within a family).
struct AolCandidate {
  std::string family;       // "count-min" / "heavy-hitter" / "opt-hash".
  std::string description;  // e.g. "d=4" or "c=0.3".
  std::unique_ptr<core::FrequencyEstimator> estimator;
};

/// Checkpointed metrics for one candidate.
struct AolCheckpoint {
  size_t day = 0;
  core::ErrorMetrics metrics;
};

class AolHarness {
 public:
  explicit AolHarness(const stream::QueryLogConfig& config)
      : log_(config), pipeline_(log_) {
    // Day-0 prefix counts (the observed stream prefix S0 of §7.3).
    for (size_t rank : log_.GenerateDay(0)) {
      day0_counts_[rank] += 1.0;
    }
    // Ideal heavy-hitter oracle input: true frequencies over all days
    // (§7.2: "the IDs of the heavy-hitters in the test set (over the
    // entire 90-day period) are known").
    for (size_t day = 0; day < log_.NumDays(); ++day) {
      for (size_t rank : log_.GenerateDay(day)) {
        ++total_counts_[log_.QueryId(rank)];
      }
    }
  }

  const stream::QueryLog& log() const { return log_; }
  size_t NumDay0Queries() const { return day0_counts_.size(); }

  /// The bag-of-words feature row of a rank's query text, as the
  /// classifier h_U sees it.
  const std::vector<double>& Features(size_t rank) {
    return pipeline_.Features(rank);
  }

  /// Builds the §7.2/§7.3 candidate set for a total budget of `buckets`.
  std::vector<AolCandidate> BuildCandidates(size_t buckets, uint64_t seed) {
    std::vector<AolCandidate> candidates;
    // count-min: depth swept over {1, 2, 4, 6}.
    for (size_t depth : {1u, 2u, 4u, 6u}) {
      if (buckets / depth == 0) continue;
      candidates.push_back(
          {"count-min", "d=" + std::to_string(depth),
           std::make_unique<core::CountMinEstimator>(buckets, depth, seed)});
    }
    // heavy-hitter (LCMS, ideal oracle): depth x b_heavy sweeps.
    for (size_t depth : {1u, 2u, 4u, 6u}) {
      for (size_t heavy : {10u, 100u, 1000u, 10000u}) {
        if (2 * heavy >= buckets) continue;  // b_heavy <= b/2 constraint.
        const std::vector<uint64_t> heavy_keys =
            sketch::SelectTopKeys(total_counts_, heavy);
        auto estimator = core::LearnedCmsEstimator::Create(
            buckets, depth, heavy_keys, seed);
        if (!estimator.ok()) continue;
        candidates.push_back(
            {"heavy-hitter",
             "d=" + std::to_string(depth) + ",bh=" + std::to_string(heavy),
             std::make_unique<core::LearnedCmsEstimator>(
                 std::move(estimator).value())});
      }
    }
    // opt-hash: ratio c swept over {0.03, 0.3}; lambda = 1 as in §7.3.
    for (double ratio : {0.03, 0.3}) {
      auto estimator = TrainOptHash(buckets, ratio, seed);
      if (estimator != nullptr) {
        candidates.push_back({"opt-hash",
                              "c=" + TablePrinter::Num(ratio, 2),
                              std::move(estimator)});
      }
    }
    return candidates;
  }

  /// Streams days 1..last_day through every candidate (baselines also see
  /// day 0), collecting metrics at the requested checkpoint days.
  /// Returns metrics[candidate][checkpoint].
  std::vector<std::vector<AolCheckpoint>> Run(
      std::vector<AolCandidate>& candidates,
      const std::vector<size_t>& checkpoint_days, size_t last_day) {
    stream::ExactCounter truth;
    // Day 0: baselines ingest it; opt-hash already folded it in at training.
    for (size_t rank : log_.GenerateDay(0)) {
      const uint64_t id = log_.QueryId(rank);
      truth.Add(id);
      for (auto& candidate : candidates) {
        if (candidate.family != "opt-hash") {
          candidate.estimator->Update({id, nullptr});
        }
      }
    }
    std::vector<std::vector<AolCheckpoint>> metrics(candidates.size());
    auto maybe_checkpoint = [&](size_t day) {
      if (std::find(checkpoint_days.begin(), checkpoint_days.end(), day) ==
          checkpoint_days.end()) {
        return;
      }
      const std::vector<core::EvalQuery> queries = DayQueries(day, truth);
      for (size_t c = 0; c < candidates.size(); ++c) {
        metrics[c].push_back(
            {day, core::EvaluateEstimator(*candidates[c].estimator, queries)});
      }
    };
    maybe_checkpoint(0);
    for (size_t day = 1; day <= last_day; ++day) {
      for (size_t rank : log_.GenerateDay(day)) {
        const uint64_t id = log_.QueryId(rank);
        truth.Add(id);
        for (auto& candidate : candidates) {
          candidate.estimator->Update({id, nullptr});
        }
      }
      maybe_checkpoint(day);
    }
    return metrics;
  }

  /// The §7.4 query set U_t: queries appearing in day t, scored against
  /// their cumulative true frequency over days 0..t.
  std::vector<core::EvalQuery> DayQueries(size_t day,
                                          const stream::ExactCounter& truth) {
    std::set<size_t> day_ranks;
    for (size_t rank : log_.GenerateDay(day)) day_ranks.insert(rank);
    std::vector<core::EvalQuery> queries;
    queries.reserve(day_ranks.size());
    for (size_t rank : day_ranks) {
      const uint64_t id = log_.QueryId(rank);
      queries.push_back({{id, &pipeline_.Features(rank)},
                         static_cast<double>(truth.Count(id))});
    }
    return queries;
  }

  /// Cumulative true frequency of a rank at the end of the log.
  uint64_t TotalCount(size_t rank) const {
    auto it = total_counts_.find(log_.QueryId(rank));
    return it == total_counts_.end() ? 0 : it->second;
  }

  /// Trains the opt-hash estimator on the day-0 prefix (lambda = 1, fast
  /// O(nb) DP path, random-forest classifier — the §7.3 configuration).
  std::unique_ptr<core::OptHashEstimator> TrainOptHash(size_t buckets,
                                                       double ratio,
                                                       uint64_t seed) {
    std::vector<core::PrefixElement> prefix;
    prefix.reserve(day0_counts_.size());
    for (const auto& [rank, count] : day0_counts_) {
      prefix.push_back({.id = log_.QueryId(rank),
                        .frequency = count,
                        .features = pipeline_.Features(rank)});
    }
    core::OptHashConfig config;
    config.total_buckets = buckets;
    config.id_ratio = ratio;
    config.lambda = 1.0;
    config.solver = core::SolverKind::kDp;
    config.dp.algorithm = opt::DpAlgorithm::kSmawk;
    config.dp.center = opt::DpCostCenter::kMedian;
    config.classifier = core::ClassifierKind::kRandomForest;
    config.rf.num_trees = 10;
    config.rf.max_depth = 12;
    config.rf.seed = seed;
    config.seed = seed;
    auto result = core::OptHashEstimator::Train(config, prefix);
    if (!result.ok()) return nullptr;
    return std::make_unique<core::OptHashEstimator>(
        std::move(result).value());
  }

 private:
  stream::QueryLog log_;
  QueryFeaturePipeline pipeline_;
  std::unordered_map<size_t, double> day0_counts_;            // rank -> f0.
  std::unordered_map<uint64_t, uint64_t> total_counts_;       // id -> total.
};

/// Picks, within a family, the candidate with the lowest value of the
/// given metric at a checkpoint index ("we report the best performing
/// version", §7.2). Returns candidate index or SIZE_MAX.
inline size_t BestCandidate(
    const std::vector<AolCandidate>& candidates,
    const std::vector<std::vector<AolCheckpoint>>& metrics,
    const std::string& family, size_t checkpoint_index, bool use_average) {
  size_t best = SIZE_MAX;
  double best_value = 0.0;
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (candidates[c].family != family) continue;
    const core::ErrorMetrics& m = metrics[c][checkpoint_index].metrics;
    const double value =
        use_average ? m.average_absolute_error : m.expected_magnitude_error;
    if (best == SIZE_MAX || value < best_value) {
      best = c;
      best_value = value;
    }
  }
  return best;
}

}  // namespace opthash::bench

#endif  // OPTHASH_BENCH_AOL_HARNESS_H_

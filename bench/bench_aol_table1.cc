// Table 1: average (per element) error of the 120 KB opt-hash estimator as
// a percentage of the query's true frequency, for the queries of ranks
// 1, 10, 100, 1,000 and 10,000, measured after the full 90-day period
// (averaged over independent repetitions as in §7.4).

#include <cstdio>

#include "aol_harness.h"
#include "common/running_stats.h"
#include "common/table_printer.h"

namespace opthash::bench {
namespace {

void Run() {
  std::printf(
      "Table 1: opt-hash (120 KB) average error as %% of query frequency "
      "by rank, after 90 days.\n\n");

  constexpr size_t kRanks[] = {1, 10, 100, 1000, 10000};
  constexpr size_t kRepeats = 3;
  std::vector<RunningStats> percent_error(std::size(kRanks));
  std::vector<double> frequencies(std::size(kRanks), 0.0);

  for (size_t repeat = 0; repeat < kRepeats; ++repeat) {
    stream::QueryLogConfig config;
    config.num_queries = 300000;
    config.arrivals_per_day = 30000;
    config.num_days = 90;
    config.seed = 2006 + repeat;
    AolHarness harness(config);

    const auto buckets = static_cast<size_t>(120.0 * 1000.0 / 4.0);
    auto opt_hash = harness.TrainOptHash(buckets, /*ratio=*/0.3,
                                         /*seed=*/11 + repeat);
    OPTHASH_CHECK(opt_hash != nullptr);

    stream::ExactCounter truth;
    for (size_t rank : harness.log().GenerateDay(0)) {
      truth.Add(harness.log().QueryId(rank));
    }
    for (size_t day = 1; day < config.num_days; ++day) {
      for (size_t rank : harness.log().GenerateDay(day)) {
        const uint64_t id = harness.log().QueryId(rank);
        truth.Add(id);
        opt_hash->Update({id, nullptr});
      }
    }

    for (size_t r = 0; r < std::size(kRanks); ++r) {
      const size_t rank = kRanks[r];
      const uint64_t id = harness.log().QueryId(rank);
      const auto truth_count = static_cast<double>(truth.Count(id));
      if (truth_count <= 0.0) continue;
      // An id missing from the learned table is routed by h_U, which
      // needs the query's feature row.
      const double estimate = opt_hash->Estimate({id, &harness.Features(rank)});
      percent_error[r].Add(100.0 * std::abs(estimate - truth_count) /
                           truth_count);
      frequencies[r] = truth_count;
    }
  }

  TablePrinter table({"query_rank", "query_frequency",
                      "avg_error_percentage"});
  for (size_t r = 0; r < std::size(kRanks); ++r) {
    table.AddRow({std::to_string(kRanks[r]),
                  TablePrinter::Num(frequencies[r], 0),
                  TablePrinter::Num(percent_error[r].mean(), 2) + " +/- " +
                      TablePrinter::Num(percent_error[r].stddev(), 2)});
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper Table 1): percentage error grows as rank "
      "deepens (0.01%% at rank 1\nup to ~20%% at rank 10,000 in the paper) "
      "— head queries are stored exactly, tail queries\nshare buckets.\n");
}

}  // namespace
}  // namespace opthash::bench

int main() {
  opthash::bench::Run();
  return 0;
}

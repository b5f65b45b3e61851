// google-benchmark micro-benchmarks for the optimization core: BCD solves
// (random problems with b = 10, and the learn_querylog day-0 problem), the
// three DP layer algorithms (the quadratic / divide-and-conquer / SMAWK
// ladder of §4.4 and refs [39][40]), and the exact solver on tiny
// instances.

#include <algorithm>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "opt/bcd.h"
#include "opt/dp.h"
#include "opt/exact.h"
#include "stream/query_log.h"

namespace opthash::opt {
namespace {

HashingProblem MakeProblem(size_t n, size_t b, double lambda, size_t dim) {
  Rng rng(42);
  HashingProblem problem;
  problem.num_buckets = b;
  problem.lambda = lambda;
  problem.frequencies.resize(n);
  for (double& f : problem.frequencies) {
    f = static_cast<double>(rng.NextBounded(1000));
  }
  problem.features.resize(n);
  for (auto& x : problem.features) {
    x.resize(dim);
    for (double& v : x) v = rng.NextGaussian();
  }
  return problem;
}

void BM_BcdSolveLambda1(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const HashingProblem problem = MakeProblem(n, 10, 1.0, 0);
  BcdConfig config;
  config.max_sweeps = 5;
  for (auto _ : state) {
    BcdSolver solver(config);
    benchmark::DoNotOptimize(solver.Solve(problem).objective.overall);
  }
  state.SetItemsProcessed(state.iterations() * n * 5);
}
BENCHMARK(BM_BcdSolveLambda1)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BcdSolveMixedLambda(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const HashingProblem problem = MakeProblem(n, 10, 0.5, 2);
  BcdConfig config;
  config.max_sweeps = 5;
  for (auto _ : state) {
    BcdSolver solver(config);
    benchmark::DoNotOptimize(solver.Solve(problem).objective.overall);
  }
  state.SetItemsProcessed(state.iterations() * n * 5);
}
BENCHMARK(BM_BcdSolveMixedLambda)->Arg(256)->Arg(1024)->Arg(4096);

// The learn_querylog benchmark's solve: day 0 of a 50k-query log with 12k
// arrivals per day, 4096 total buckets and c = 0.3, so 3,150 ids sampled
// by frequency (as OptHashEstimator::Train does) into 946 buckets. The
// prefix has few distinct frequencies and every bucket is pure after one
// sweep, so most candidate buckets cannot win a move.
HashingProblem QueryLogDayZeroProblem() {
  stream::QueryLogConfig log_config;
  log_config.num_queries = 50'000;
  log_config.arrivals_per_day = 12'000;
  log_config.num_days = 31;
  const stream::QueryLog log(log_config);
  std::vector<double> counts(log.NumQueries() + 1, 0.0);
  for (size_t rank : log.GenerateDay(0)) counts[log.QueryId(rank)] += 1.0;
  std::vector<double> prefix;
  for (double count : counts) {
    if (count > 0.0) prefix.push_back(count);
  }
  // Train's split of 4096 buckets at c = 0.3: floor(4096 / 1.3) = 3150
  // stored ids, sampled with its default seed, and 946 buckets.
  const size_t ids = 3150;
  Rng rng(1);
  std::vector<size_t> chosen =
      WeightedSampleWithoutReplacement(prefix, ids, rng);
  std::sort(chosen.begin(), chosen.end());
  HashingProblem problem;
  problem.num_buckets = 4096 - ids;
  problem.lambda = 1.0;
  for (size_t index : chosen) problem.frequencies.push_back(prefix[index]);
  return problem;
}

void BM_BcdSolveQueryLogDayZero(benchmark::State& state) {
  const HashingProblem problem = QueryLogDayZeroProblem();
  for (auto _ : state) {
    BcdSolver solver;
    benchmark::DoNotOptimize(solver.Solve(problem).objective.overall);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(problem.NumElements()));
}
BENCHMARK(BM_BcdSolveQueryLogDayZero)->Unit(benchmark::kMillisecond);

void BM_DpQuadraticMean(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const HashingProblem problem = MakeProblem(n, 10, 1.0, 0);
  DpSolver solver(DpConfig{DpAlgorithm::kQuadratic, DpCostCenter::kMean});
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(problem).objective.overall);
  }
}
BENCHMARK(BM_DpQuadraticMean)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DpDivideConquerMedian(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const HashingProblem problem = MakeProblem(n, 10, 1.0, 0);
  DpSolver solver(
      DpConfig{DpAlgorithm::kDivideConquer, DpCostCenter::kMedian});
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(problem).objective.overall);
  }
}
BENCHMARK(BM_DpDivideConquerMedian)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_DpSmawkMedian(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const HashingProblem problem = MakeProblem(n, 10, 1.0, 0);
  DpSolver solver(DpConfig{DpAlgorithm::kSmawk, DpCostCenter::kMedian});
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(problem).objective.overall);
  }
}
BENCHMARK(BM_DpSmawkMedian)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_ExactSolveTiny(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const HashingProblem problem = MakeProblem(n, 3, 1.0, 0);
  ExactConfig config;
  config.time_limit_seconds = 5.0;
  for (auto _ : state) {
    ExactSolver solver(config);
    benchmark::DoNotOptimize(solver.Solve(problem).iterations);
  }
}
BENCHMARK(BM_ExactSolveTiny)->Arg(8)->Arg(10)->Arg(12);

}  // namespace
}  // namespace opthash::opt

BENCHMARK_MAIN();

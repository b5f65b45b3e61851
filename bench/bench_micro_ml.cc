// google-benchmark micro-benchmarks for the ML substrate: training and
// per-element prediction cost of the three classifiers (§5.2's h_U must be
// cheap — it sits on the stream's query path for unseen elements).

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"

namespace opthash::ml {
namespace {

Dataset MakeBlobs(size_t n, size_t classes, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Dataset data(dim);
  for (size_t i = 0; i < n; ++i) {
    const auto label = static_cast<int>(i % classes);
    std::vector<double> x(dim);
    for (size_t d = 0; d < dim; ++d) {
      x[d] = static_cast<double>(label) * 2.0 + rng.NextGaussian();
    }
    data.Add(std::move(x), label);
  }
  return data;
}

void BM_LogRegFit(benchmark::State& state) {
  const Dataset data =
      MakeBlobs(static_cast<size_t>(state.range(0)), 10, 8, 1);
  LogisticRegressionConfig config;
  config.max_iters = 50;
  for (auto _ : state) {
    LogisticRegression model(config);
    model.Fit(data);
    benchmark::DoNotOptimize(model.Predict(data.Features(0)));
  }
}
BENCHMARK(BM_LogRegFit)->Arg(500)->Arg(2000);

void BM_CartFit(benchmark::State& state) {
  const Dataset data =
      MakeBlobs(static_cast<size_t>(state.range(0)), 10, 8, 2);
  for (auto _ : state) {
    DecisionTree tree;
    tree.Fit(data);
    benchmark::DoNotOptimize(tree.NodeCount());
  }
}
BENCHMARK(BM_CartFit)->Arg(500)->Arg(2000)->Arg(8000);

void BM_RandomForestFit(benchmark::State& state) {
  const Dataset data =
      MakeBlobs(static_cast<size_t>(state.range(0)), 10, 8, 3);
  RandomForestConfig config;
  config.num_trees = 10;
  for (auto _ : state) {
    RandomForest forest(config);
    forest.Fit(data);
    benchmark::DoNotOptimize(forest.NumTrees());
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(500)->Arg(2000);

// The shape of a bundle's h_U training set (§5.2 on a query log): one row
// per stored id, bag-of-words counts over a 500-word vocabulary with a
// handful of mostly head words per row, and the learned buckets as labels.
// Inside a node most columns are all zero and the rest hold a few small
// counts, so split search visits few nonzeros per column, unlike the
// dense blobs above.
Dataset MakeBagOfWords(size_t n, size_t classes, size_t vocabulary,
                       uint64_t seed) {
  Rng rng(seed);
  Dataset data(vocabulary);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> x(vocabulary, 0.0);
    const uint64_t words = 1 + rng.NextBounded(4);
    for (uint64_t w = 0; w < words; ++w) {
      const double u = rng.NextDouble();
      x[static_cast<size_t>(u * u * u * static_cast<double>(vocabulary))] +=
          1.0;
    }
    data.Add(std::move(x), static_cast<int>(rng.NextBounded(classes)));
  }
  return data;
}

void BM_RandomForestFitBagOfWords(benchmark::State& state) {
  const Dataset data = MakeBagOfWords(3000, 950, 500, 7);
  RandomForestConfig config;
  config.num_trees = 10;
  config.max_depth = 12;
  for (auto _ : state) {
    RandomForest forest(config);
    forest.Fit(data);
    benchmark::DoNotOptimize(forest.NumTrees());
  }
}
BENCHMARK(BM_RandomForestFitBagOfWords)->Unit(benchmark::kMillisecond);

void BM_CartPredict(benchmark::State& state) {
  const Dataset data = MakeBlobs(4000, 10, 8, 4);
  DecisionTree tree;
  tree.Fit(data);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Predict(data.Features(i)));
    if (++i >= 4000) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CartPredict);

void BM_RandomForestPredict(benchmark::State& state) {
  const Dataset data = MakeBlobs(4000, 10, 8, 5);
  RandomForestConfig config;
  config.num_trees = 10;
  RandomForest forest(config);
  forest.Fit(data);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.Predict(data.Features(i)));
    if (++i >= 4000) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomForestPredict);

void BM_LogRegPredict(benchmark::State& state) {
  const Dataset data = MakeBlobs(4000, 10, 8, 6);
  LogisticRegressionConfig config;
  config.max_iters = 30;
  LogisticRegression model(config);
  model.Fit(data);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(data.Features(i)));
    if (++i >= 4000) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogRegPredict);

}  // namespace
}  // namespace opthash::ml

BENCHMARK_MAIN();

// google-benchmark micro-benchmarks for the sketch substrate: per-arrival
// update / point-query cost of the Count-Min Sketch (standard and
// conservative), Count Sketch and Bloom filter — the "update and query
// times are constant" requirement of §1 — the batch ingest rate of the
// kernel path behind both sketches' UpdateBatch, and the learned table's
// probe and ingest on a served bundle's shape.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "common/span.h"
#include "core/learned_table.h"
#include "core/opt_hash_estimator.h"
#include "hashing/bloom_filter.h"
#include "sketch/count_min_sketch.h"
#include "sketch/count_sketch.h"
#include "sketch/learned_count_min.h"

namespace opthash {
namespace {

std::vector<uint64_t> MakeKeys(size_t count) {
  Rng rng(1);
  ZipfSampler zipf(100000, 1.0);
  std::vector<uint64_t> keys(count);
  for (auto& key : keys) key = zipf.Sample(rng);
  return keys;
}

void BM_CountMinUpdate(benchmark::State& state) {
  sketch::CountMinSketch sketch(1 << 12, static_cast<size_t>(state.range(0)),
                                7);
  const std::vector<uint64_t> keys = MakeKeys(4096);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(keys[i++ & 4095]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinUpdate)->Arg(1)->Arg(2)->Arg(4)->Arg(6);

void BM_CountMinConservativeUpdate(benchmark::State& state) {
  sketch::CountMinSketch sketch(1 << 12, 4, 7, /*conservative_update=*/true);
  const std::vector<uint64_t> keys = MakeKeys(4096);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(keys[i++ & 4095]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinConservativeUpdate);

void BM_CountMinEstimate(benchmark::State& state) {
  sketch::CountMinSketch sketch(1 << 12, 4, 7);
  const std::vector<uint64_t> keys = MakeKeys(4096);
  for (uint64_t key : keys) sketch.Update(key);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Estimate(keys[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinEstimate);

void BM_CountSketchUpdate(benchmark::State& state) {
  sketch::CountSketch sketch(1 << 12, 5, 7);
  const std::vector<uint64_t> keys = MakeKeys(4096);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(keys[i++ & 4095]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountSketchUpdate);

void BM_CountSketchEstimate(benchmark::State& state) {
  sketch::CountSketch sketch(1 << 12, 5, 7);
  const std::vector<uint64_t> keys = MakeKeys(4096);
  for (uint64_t key : keys) sketch.Update(key);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Estimate(keys[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountSketchEstimate);

// The batch ingest path the daemon runs: per level one kernel hash pass
// over the block, then a sequential scatter. Arg is the width: 2^16 (the
// served cms_wide geometry) reduces each hash by a mask, 60000 by the
// exact magic multiply. CountSketch hashes twice per level (bucket and
// sign) and scatters signed counters.
constexpr size_t kUpdateBlock = 4096;

void BM_CountMinUpdateBatch(benchmark::State& state) {
  sketch::CountMinSketch sketch(static_cast<size_t>(state.range(0)), 4, 7);
  const std::vector<uint64_t> keys = MakeKeys(kUpdateBlock);
  for (auto _ : state) {
    sketch.UpdateBatch(Span<const uint64_t>(keys));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kUpdateBlock);
}
BENCHMARK(BM_CountMinUpdateBatch)->Arg(1 << 16)->Arg(60000);

void BM_CountSketchUpdateBatch(benchmark::State& state) {
  sketch::CountSketch sketch(static_cast<size_t>(state.range(0)), 4, 7);
  const std::vector<uint64_t> keys = MakeKeys(kUpdateBlock);
  for (auto _ : state) {
    sketch.UpdateBatch(Span<const uint64_t>(keys));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kUpdateBlock);
}
BENCHMARK(BM_CountSketchUpdateBatch)->Arg(1 << 16)->Arg(60000);

void BM_LearnedCmsUpdate(benchmark::State& state) {
  std::vector<uint64_t> heavy(100);
  for (size_t h = 0; h < heavy.size(); ++h) heavy[h] = h + 1;
  auto sketch = sketch::LearnedCountMinSketch::Create(1 << 12, 2, heavy, 7);
  const std::vector<uint64_t> keys = MakeKeys(4096);
  size_t i = 0;
  for (auto _ : state) {
    sketch.value().Update(keys[i++ & 4095]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LearnedCmsUpdate);

void BM_BloomAdd(benchmark::State& state) {
  hashing::BloomFilter filter(1 << 16, 5, 7);
  const std::vector<uint64_t> keys = MakeKeys(4096);
  size_t i = 0;
  for (auto _ : state) {
    filter.Add(keys[i++ & 4095]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomAdd);

void BM_BloomMayContain(benchmark::State& state) {
  hashing::BloomFilter filter(1 << 16, 5, 7);
  const std::vector<uint64_t> keys = MakeKeys(4096);
  for (uint64_t key : keys) filter.Add(key);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.MayContain(keys[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomMayContain);

// The learned table of perfbench's learn_querylog bundle: 3,150 stored
// ids (a 4,096-bucket budget at id ratio 0.3), probed by 4,096-item
// blocks of which about 42% hit, in no order a predictor can learn: each
// iteration takes the next block of a 2^16-item pool.
constexpr size_t kStoredIds = 3150;
constexpr uint64_t kLearnedBuckets = 4096 - kStoredIds;
constexpr double kHitShare = 0.42;
constexpr size_t kArrivalPool = 1 << 16;

// kArrivalPool arrivals over `stored`: each is a stored id with
// probability kHitShare, else an id the table does not hold.
std::vector<uint64_t> LearnedArrivals(Span<const uint64_t> stored) {
  Rng rng(3);
  std::vector<uint64_t> keys(kArrivalPool);
  for (auto& key : keys) {
    key = rng.NextDouble(0.0, 1.0) < kHitShare
              ? stored[rng.NextBounded(stored.size())]
              : (rng.NextUint64() | 1);  // Stored ids below are even.
  }
  return keys;
}

// The pool's next 4,096-item block.
Span<const uint64_t> NextBlock(const std::vector<uint64_t>& pool,
                               size_t& base) {
  const Span<const uint64_t> block(pool.data() + base, kUpdateBlock);
  base = (base + kUpdateBlock) % pool.size();
  return block;
}

void BM_LearnedTableFindBatch(benchmark::State& state) {
  Rng rng(2);
  std::vector<uint64_t> ids(kStoredIds);
  for (auto& id : ids) id = rng.NextUint64() & ~uint64_t{1};
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<int32_t> buckets(ids.size());
  for (auto& bucket : buckets) {
    bucket = static_cast<int32_t>(rng.NextBounded(kLearnedBuckets));
  }
  const core::LearnedTable table(ids.data(), buckets.data(), ids.size());
  const std::vector<uint64_t> pool = LearnedArrivals(table.ids());
  std::vector<int32_t> out(kUpdateBlock);
  size_t base = 0;
  for (auto _ : state) {
    table.FindBatch(NextBlock(pool, base), Span<int32_t>(out));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kUpdateBlock);
}
BENCHMARK(BM_LearnedTableFindBatch);

// A bundle's ingest on one thread: count a block's bucket deltas through
// the learned table, then fold them into the counters. The estimator is
// trained by BCD on a Zipf prefix large enough to store kStoredIds ids.
void BM_BundleIngest(benchmark::State& state) {
  Rng rng(4);
  ZipfSampler zipf(20000, 1.0);
  std::vector<double> frequency(20000, 0.0);
  for (size_t i = 0; i < 200000; ++i) frequency[zipf.Sample(rng) - 1] += 1;
  std::vector<core::PrefixElement> prefix;
  for (size_t id = 0; id < frequency.size(); ++id) {
    if (frequency[id] > 0) prefix.push_back({2 * id, frequency[id], {0.0}});
  }
  core::OptHashConfig config;
  config.total_buckets = 4096;
  config.id_ratio = 0.3;
  config.solver = core::SolverKind::kBcd;
  config.classifier = core::ClassifierKind::kNone;
  auto trained = core::OptHashEstimator::Train(config, prefix);
  if (!trained.ok()) {
    state.SkipWithError(trained.status().ToString().c_str());
    return;
  }
  core::OptHashEstimator& estimator = trained.value();
  const std::vector<uint64_t> pool = LearnedArrivals(estimator.table().ids());
  const stream::ShardedIngestConfig one_thread;
  size_t base = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator.Ingest(NextBlock(pool, base), one_thread).ok());
  }
  state.counters["stored_ids"] =
      static_cast<double>(estimator.num_stored_ids());
  state.SetItemsProcessed(state.iterations() * kUpdateBlock);
}
BENCHMARK(BM_BundleIngest);

}  // namespace
}  // namespace opthash

BENCHMARK_MAIN();

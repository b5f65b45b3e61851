// google-benchmark micro-benchmarks for the sketch substrate: per-arrival
// update / point-query cost of the Count-Min Sketch (standard and
// conservative), Count Sketch and Bloom filter — the "update and query
// times are constant" requirement of §1 — and the batch ingest rate of
// the kernel path behind both sketches' UpdateBatch.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "common/span.h"
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

}  // namespace
}  // namespace opthash

BENCHMARK_MAIN();

// bench_window_accuracy — sliding-window estimation error versus window
// count: the same Zipf stream flows through windowed count-min rings
// that all cover the SAME live span (window_items x windows held
// constant) but slice it into 1..16 windows, and every ring's answers
// are scored against an exact trailing-span oracle (a brute-force count
// over the last `span` arrivals). Reported as JSON per ring, so CI
// archives the trajectory per commit.
//
//   bench_window_accuracy [--quick] [--items N] [--span L] [--out path]
//
// Two error sources show up, and the table separates knob from noise:
// count-min collision error (identical across rows — same geometry,
// same stream) and GRANULARITY error — a ring expires whole windows, so
// coarse rings (few, large windows) answer over a live set that lags
// the ideal trailing span by up to one window. More windows buy a
// tighter match to the trailing span at the cost of one sub-sketch per
// window; the measured curve below is the sizing guidance quoted in
// docs/OPERATIONS.md ("Windowed serving").
// --quick shrinks the workload for the CI perfbench-smoke job.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "sketch/count_min_sketch.h"
#include "sketch/windowed_sketch.h"

namespace opthash {
namespace {

struct Options {
  size_t items = 200'000;  // Total arrivals streamed through each ring.
  size_t span = 8192;      // Live span every ring covers (items).
  bool quick = false;
  std::string out;  // Empty = stdout.
};

struct ResultRow {
  size_t windows = 0;
  uint64_t window_items = 0;
  size_t keys_scored = 0;
  double mean_abs_error = 0.0;
  double p99_abs_error = 0.0;
  double max_abs_error = 0.0;
  double mean_rel_error = 0.0;  // Relative to the span.
};

std::vector<uint64_t> ZipfishKeys(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys;
  keys.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const auto r = static_cast<uint64_t>(rng.NextUint64());
    keys.push_back(r % ((r % 7 == 0) ? 20'000 : 128));
  }
  return keys;
}

// Streams every arrival through the ring, then scores a key sample
// against the exact count over the trailing `span` arrivals.
ResultRow MeasureRing(const std::vector<uint64_t>& stream, size_t span,
                      size_t windows) {
  ResultRow row;
  row.windows = windows;
  row.window_items = static_cast<uint64_t>(span / windows);

  sketch::CountMinSketch prototype(4096, 4, 17);
  auto ring = sketch::WindowedSketch<sketch::CountMinSketch>::Create(
      prototype, windows, row.window_items);
  if (!ring.ok()) {
    std::fprintf(stderr, "ring: %s\n", ring.status().ToString().c_str());
    std::abort();
  }
  ring.value().UpdateBatch(
      Span<const uint64_t>(stream.data(), stream.size()));

  // The oracle the operator has in mind: exact counts over the last
  // `span` arrivals, irrespective of window boundaries.
  std::unordered_map<uint64_t, uint64_t> trailing;
  const size_t start = stream.size() > span ? stream.size() - span : 0;
  for (size_t i = start; i < stream.size(); ++i) ++trailing[stream[i]];

  std::vector<double> errors;
  for (uint64_t key = 0; key < 2048; ++key) {
    const auto exact = trailing.find(key);
    const double truth =
        exact == trailing.end() ? 0.0
                                : static_cast<double>(exact->second);
    const double estimate = ring.value().Estimate(key);
    errors.push_back(std::abs(estimate - truth));
  }
  row.keys_scored = errors.size();
  double total = 0.0;
  for (double error : errors) total += error;
  row.mean_abs_error = total / static_cast<double>(errors.size());
  std::sort(errors.begin(), errors.end());
  row.p99_abs_error =
      errors[std::min(errors.size() - 1,
                      static_cast<size_t>(0.99 * errors.size()))];
  row.max_abs_error = errors.back();
  row.mean_rel_error = row.mean_abs_error / static_cast<double>(span);
  return row;
}

void PrintJson(std::FILE* out, const Options& options,
               const std::vector<ResultRow>& rows) {
  std::fprintf(out, "{\n  \"benchmark\": \"window_accuracy\",\n");
  std::fprintf(out, "  \"items\": %zu,\n", options.items);
  std::fprintf(out, "  \"span\": %zu,\n", options.span);
  std::fprintf(out, "  \"quick\": %s,\n", options.quick ? "true" : "false");
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ResultRow& row = rows[i];
    std::fprintf(out,
                 "    {\"windows\": %zu, \"window_items\": %llu, "
                 "\"keys_scored\": %zu, \"mean_abs_error\": %.4f, "
                 "\"p99_abs_error\": %.4f, \"max_abs_error\": %.4f, "
                 "\"mean_rel_error\": %.6f}%s\n",
                 row.windows,
                 static_cast<unsigned long long>(row.window_items),
                 row.keys_scored, row.mean_abs_error, row.p99_abs_error,
                 row.max_abs_error, row.mean_rel_error,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--items") {
      options.items = static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--span") {
      options.span = static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--out") {
      options.out = next();
    } else {
      std::fprintf(stderr,
                   "usage: bench_window_accuracy [--quick] [--items N] "
                   "[--span L] [--out path]\n");
      return 2;
    }
  }
  if (options.quick) {
    options.items = 40'000;
    options.span = 4096;
  }

  const std::vector<uint64_t> stream = ZipfishKeys(options.items, 29);
  std::vector<ResultRow> rows;
  for (size_t windows : {1, 2, 4, 8, 16}) {
    rows.push_back(MeasureRing(stream, options.span, windows));
    std::fprintf(stderr,
                 "windows=%2zu x %llu items: mean=%.2f p99=%.2f max=%.2f\n",
                 rows.back().windows,
                 static_cast<unsigned long long>(rows.back().window_items),
                 rows.back().mean_abs_error, rows.back().p99_abs_error,
                 rows.back().max_abs_error);
  }

  if (!options.out.empty()) {
    std::FILE* file = std::fopen(options.out.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", options.out.c_str());
      return 1;
    }
    PrintJson(file, options, rows);
    std::fclose(file);
  } else {
    PrintJson(stdout, options, rows);
  }
  return 0;
}

}  // namespace
}  // namespace opthash

int main(int argc, char** argv) { return opthash::Main(argc, argv); }

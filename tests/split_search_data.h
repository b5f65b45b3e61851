#ifndef OPTHASH_TESTS_SPLIT_SEARCH_DATA_H_
#define OPTHASH_TESTS_SPLIT_SEARCH_DATA_H_

// Small seeded datasets for the split-search byte goldens in
// decision_tree_test.cc and random_forest_test.cc. Each column kind
// stresses one part of the search; every dataset also holds a sparse
// count column that the labels depend on, so where the search places a
// column's zeros (between its negative and its positive values) decides
// some split and shows in the serialized bytes.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "ml/dataset.h"

namespace opthash::ml {

enum class SplitColumn {
  kSigned,      // Integers in [-3, 3]: negatives, zeros and positives.
  kSignedZero,  // -0.0, 0.0, -1.5 or 1.5.
  kDense,       // Gaussian: every value distinct.
  kAllZero,     // 0.0 in every row.
  kAllEqual,    // 2.5 in every row.
  kCount,       // 0 in two rows of three, else a count in [1, 3].
};

inline double DrawColumn(SplitColumn column, Rng& rng) {
  switch (column) {
    case SplitColumn::kSigned:
      return static_cast<double>(rng.NextBounded(7)) - 3.0;
    case SplitColumn::kSignedZero: {
      constexpr double kValues[] = {-0.0, 0.0, -1.5, 1.5};
      return kValues[rng.NextBounded(4)];
    }
    case SplitColumn::kDense:
      return rng.NextGaussian();
    case SplitColumn::kAllZero:
      return 0.0;
    case SplitColumn::kAllEqual:
      return 2.5;
    case SplitColumn::kCount:
      return rng.NextBounded(3) == 0
                 ? static_cast<double>(1 + rng.NextBounded(3))
                 : 0.0;
  }
  return 0.0;
}

// One row per draw, labels in [0, 4): bit 0 is "the count column is
// nonzero", bit 1 is "the first column is negative", and one row in six
// gets a random label instead.
inline Dataset SplitSearchDataset(const std::vector<SplitColumn>& columns,
                                  size_t rows, uint64_t seed) {
  Rng rng(seed);
  Dataset data(columns.size());
  for (size_t i = 0; i < rows; ++i) {
    std::vector<double> x;
    int label = 0;
    for (SplitColumn column : columns) {
      x.push_back(DrawColumn(column, rng));
      if (column == SplitColumn::kCount && x.back() > 0.0) label |= 1;
    }
    if (x.front() < 0.0) label |= 2;
    if (rng.NextBounded(6) == 0) label = static_cast<int>(rng.NextBounded(4));
    data.Add(std::move(x), label);
  }
  return data;
}

// Every column kind at once.
inline Dataset MixedColumnsDataset(size_t rows, uint64_t seed) {
  return SplitSearchDataset(
      {SplitColumn::kSigned, SplitColumn::kSignedZero, SplitColumn::kDense,
       SplitColumn::kAllZero, SplitColumn::kAllEqual, SplitColumn::kCount},
      rows, seed);
}

}  // namespace opthash::ml

#endif  // OPTHASH_TESTS_SPLIT_SEARCH_DATA_H_

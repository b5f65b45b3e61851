#include "sketch/windowed_sketch.h"

#include <string>

namespace opthash::sketch {

Status ValidateWindowedConfig(size_t num_windows, double decay) {
  if (num_windows == 0) {
    return Status::InvalidArgument(
        "a windowed sketch needs at least one window");
  }
  // NaN fails both comparisons' complements, so it is rejected too.
  if (!(decay > 0.0) || !(decay <= 1.0)) {
    return Status::InvalidArgument(
        "decay must be in (0, 1]; got " + std::to_string(decay));
  }
  return Status::OK();
}

Status ValidateWindowedParts(size_t num_windows, size_t num_counts,
                             size_t head, double decay) {
  Status config = ValidateWindowedConfig(num_windows, decay);
  if (!config.ok()) return config;
  if (num_counts != num_windows) {
    return Status::InvalidArgument(
        "windowed ring carries " + std::to_string(num_counts) +
        " window counts for " + std::to_string(num_windows) + " windows");
  }
  if (head >= num_windows) {
    return Status::InvalidArgument(
        "windowed ring head " + std::to_string(head) +
        " out of range for " + std::to_string(num_windows) + " windows");
  }
  return Status::OK();
}

Status ValidateFreshSketchFlags(size_t width, size_t depth, size_t capacity,
                                size_t buckets, size_t windows,
                                uint64_t window_items, double decay) {
  if (width == 0 || depth == 0 || capacity == 0 || buckets == 0) {
    return Status::InvalidArgument(
        "--width, --depth, --capacity and --buckets must be >= 1");
  }
  if (windows == 0) {
    if (window_items != 0 || decay != 1.0) {
      return Status::InvalidArgument(
          "--window and --decay configure windowed counting; add "
          "--windows W (>= 1)");
    }
    return Status::OK();
  }
  if (window_items == 0) {
    return Status::InvalidArgument(
        "windowed counting advances by item count: --window N must be >= 1");
  }
  return ValidateWindowedConfig(windows, decay);
}

double WindowDecayWeight(double decay, size_t age) {
  // Iterated product, not std::pow: ages are at most W-1 and the repeated
  // multiply is reproducible bit-for-bit on every platform, which the
  // snapshot-equivalence tests assert.
  double weight = 1.0;
  for (size_t i = 0; i < age; ++i) weight *= decay;
  return weight;
}

}  // namespace opthash::sketch

#ifndef OPTHASH_TESTS_ARTIFACT_TEST_UTIL_H_
#define OPTHASH_TESTS_ARTIFACT_TEST_UTIL_H_

#include <string>
#include <type_traits>
#include <utility>

#include "common/status.h"
#include "io/artifact.h"

namespace opthash::io::testutil {

/// Opens `path` through io::VisitArtifact, the opener the CLI and the
/// daemon use, and returns what it holds when that is a T. Any other
/// kind is an error. Keep the Result and read through .value(): moving
/// a map-backed sketch out of it trips gcc 12's -Wfree-nonheap-object.
template <typename T>
Result<T> OpenArtifactAs(const std::string& path, bool use_mmap = false) {
  return VisitArtifact(path, use_mmap, [&](auto&& artifact) -> Result<T> {
    if constexpr (std::is_same_v<std::decay_t<decltype(artifact)>, T>) {
      return std::move(artifact);
    } else {
      return Status::InvalidArgument(path + " holds another artifact kind");
    }
  });
}

}  // namespace opthash::io::testutil

#endif  // OPTHASH_TESTS_ARTIFACT_TEST_UTIL_H_

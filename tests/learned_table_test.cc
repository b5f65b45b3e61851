// Tests for core::LearnedTable, the one probe over the learned table's
// ascending id and bucket columns: Find and FindBatch must agree with an
// ordered-map reference at every table size, for hits and misses, at the
// extreme ids 0 and UINT64_MAX, and for batch lengths that leave a partial
// block of lanes.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/random.h"
#include "core/learned_table.h"

namespace opthash::core {
namespace {

constexpr uint64_t kMaxId = std::numeric_limits<uint64_t>::max();

struct Columns {
  std::map<uint64_t, int32_t> reference;
  std::vector<uint64_t> ids;
  std::vector<int32_t> buckets;
};

// `size` distinct even ids, so every odd id is a miss; with `extremes`,
// ids 0 and UINT64_MAX are stored as far as the size allows.
Columns MakeColumns(size_t size, bool extremes, uint64_t seed) {
  Rng rng(seed);
  Columns columns;
  if (extremes && size >= 1) columns.reference[0] = 7;
  if (extremes && size >= 2) columns.reference[kMaxId] = 3;
  while (columns.reference.size() < size) {
    const uint64_t id = (rng.NextUint64() | 2) & ~uint64_t{1};
    columns.reference.emplace(id, static_cast<int32_t>(rng.NextBounded(64)));
  }
  for (const auto& [id, bucket] : columns.reference) {
    columns.ids.push_back(id);
    columns.buckets.push_back(bucket);
  }
  return columns;
}

// Every stored id, its neighbours, both extremes and some random ids.
std::vector<uint64_t> Queries(const Columns& columns, uint64_t seed) {
  std::vector<uint64_t> queries = {0, 1, kMaxId, kMaxId - 1};
  for (uint64_t id : columns.ids) {
    queries.push_back(id);
    if (id > 0) queries.push_back(id - 1);
    if (id < kMaxId) queries.push_back(id + 1);
  }
  Rng rng(seed);
  for (int i = 0; i < 37; ++i) queries.push_back(rng.NextUint64());
  return queries;
}

int32_t ReferenceFind(const Columns& columns, uint64_t id) {
  const auto it = columns.reference.find(id);
  return it == columns.reference.end() ? -1 : it->second;
}

TEST(LearnedTableTest, FindAndFindBatchMatchAnOrderedMap) {
  for (const size_t size : {0, 1, 2, 3, 17, 1000}) {
    for (const bool extremes : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "size " << size << ", extremes " << extremes);
      const Columns columns = MakeColumns(size, extremes, 11 + size);
      const LearnedTable table(columns.ids.data(), columns.buckets.data(),
                               columns.ids.size());
      ASSERT_EQ(table.size(), size);
      const std::vector<uint64_t> queries = Queries(columns, 5 + size);
      for (uint64_t id : queries) {
        ASSERT_EQ(table.Find(id), ReferenceFind(columns, id)) << id;
        ASSERT_EQ(table.count(id), columns.reference.count(id)) << id;
      }
      // Lengths around the lane count leave partial blocks of lanes.
      constexpr size_t kLanes = LearnedTable::kLanes;
      for (const size_t length :
           {size_t{0}, size_t{1}, kLanes - 1, kLanes, kLanes + 1,
            2 * kLanes + 3, queries.size()}) {
        if (length > queries.size()) continue;
        std::vector<int32_t> found(length, -2);
        table.FindBatch(Span<const uint64_t>(queries.data(), length),
                        Span<int32_t>(found.data(), length));
        for (size_t i = 0; i < length; ++i) {
          ASSERT_EQ(found[i], ReferenceFind(columns, queries[i]))
              << "batch length " << length << ", query " << queries[i];
        }
      }
    }
  }
}

TEST(LearnedTableTest, BucketAveragesFailClosedOutsideTheBuckets) {
  const std::vector<double> freq = {6.0, 5.0, 0.0};
  const std::vector<double> count = {3.0, 0.0, 0.0};
  const BucketCounters counters{freq.data(), count.data(), freq.size()};
  EXPECT_EQ(counters.Average(0), 2.0);
  EXPECT_EQ(counters.Average(1), 0.0);  // Empty bucket.
  EXPECT_EQ(counters.Average(-1), 0.0);  // Table miss.
  EXPECT_EQ(counters.Average(3), 0.0);  // Corrupt mapped entry.

  // A stored-id query block: one hit, one miss, one corrupt bucket.
  const std::vector<uint64_t> ids = {10, 20, 30};
  const std::vector<int32_t> buckets = {0, 1, 9};
  const LearnedTable table(ids.data(), buckets.data(), ids.size());
  const std::vector<uint64_t> queries = {10, 15, 30, 20};
  std::vector<double> out(queries.size(), -1.0);
  EstimateStoredIds(table, counters, /*miss_bucket=*/-1, queries, out);
  EXPECT_EQ(out, (std::vector<double>{2.0, 0.0, 0.0, 0.0}));
  // A miss bucket answers the miss, and only the miss.
  EstimateStoredIds(table, counters, /*miss_bucket=*/0, queries, out);
  EXPECT_EQ(out, (std::vector<double>{2.0, 2.0, 0.0, 0.0}));
}

}  // namespace
}  // namespace opthash::core

#include "storage/property_table.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace parj::storage {
namespace {

using Pairs = std::vector<std::pair<TermId, TermId>>;

TEST(TableReplicaTest, BuildsSortedDistinctKeys) {
  TableReplica r = TableReplica::Build({{5, 8}, {7, 8}, {7, 34}, {5, 3}});
  ASSERT_EQ(r.key_count(), 2u);
  EXPECT_EQ(r.KeyAt(0), 5u);
  EXPECT_EQ(r.KeyAt(1), 7u);
  EXPECT_EQ(r.pair_count(), 4u);
}

TEST(TableReplicaTest, RunsAreSortedAscending) {
  TableReplica r = TableReplica::Build({{1, 9}, {1, 2}, {1, 5}});
  auto run = r.Run(0);
  ASSERT_EQ(run.size(), 3u);
  EXPECT_TRUE(std::is_sorted(run.begin(), run.end()));
  EXPECT_EQ(run[0], 2u);
  EXPECT_EQ(run[2], 9u);
}

TEST(TableReplicaTest, DuplicatePairsCollapse) {
  TableReplica r = TableReplica::Build({{1, 2}, {1, 2}, {1, 2}, {3, 4}});
  EXPECT_EQ(r.pair_count(), 2u);
  EXPECT_EQ(r.key_count(), 2u);
}

TEST(TableReplicaTest, OffsetsDelimitRuns) {
  TableReplica r = TableReplica::Build({{1, 10}, {1, 11}, {2, 20}, {4, 40}});
  auto offsets = r.offsets();
  ASSERT_EQ(offsets.size(), r.key_count() + 1);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 2u);
  EXPECT_EQ(offsets[2], 3u);
  EXPECT_EQ(offsets[3], 4u);
  EXPECT_EQ(r.RunLength(0), 2u);
  EXPECT_EQ(r.RunLength(1), 1u);
  EXPECT_EQ(r.RunLength(2), 1u);
}

TEST(TableReplicaTest, EmptyTable) {
  TableReplica r = TableReplica::Build({});
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.key_count(), 0u);
  EXPECT_EQ(r.pair_count(), 0u);
  EXPECT_EQ(r.offsets().size(), 1u);
  EXPECT_EQ(r.FindKey(5), SIZE_MAX);
  EXPECT_EQ(r.AverageKeyGap(), 1.0);
}

TEST(TableReplicaTest, FindKey) {
  TableReplica r = TableReplica::Build({{5, 1}, {13, 1}, {29, 1}});
  EXPECT_EQ(r.FindKey(5), 0u);
  EXPECT_EQ(r.FindKey(13), 1u);
  EXPECT_EQ(r.FindKey(29), 2u);
  EXPECT_EQ(r.FindKey(4), SIZE_MAX);
  EXPECT_EQ(r.FindKey(14), SIZE_MAX);
  EXPECT_EQ(r.FindKey(100), SIZE_MAX);
}

TEST(TableReplicaTest, AverageKeyGap) {
  // keys 10 and 110: gap (110-10)/2 = 50.
  TableReplica r = TableReplica::Build({{10, 1}, {110, 1}});
  EXPECT_DOUBLE_EQ(r.AverageKeyGap(), 50.0);
  // Single key degenerates to 1.
  TableReplica single = TableReplica::Build({{10, 1}});
  EXPECT_DOUBLE_EQ(single.AverageKeyGap(), 1.0);
}

TEST(TableReplicaTest, AverageRunLength) {
  TableReplica r = TableReplica::Build({{1, 1}, {1, 2}, {1, 3}, {2, 1}});
  EXPECT_DOUBLE_EQ(r.AverageRunLength(), 2.0);
}

TEST(TableReplicaTest, PaperFigure1Example) {
  // The paper's Figure 1 property: triples (5,8) (7,8) (7,34) (13,40)
  // (18,3) (24,9) (24,16) (24,41) (29,40) (33,22) (45,4).
  Pairs pairs = {{5, 8},  {7, 8},   {7, 34},  {13, 40}, {18, 3}, {24, 9},
                 {24, 16}, {24, 41}, {29, 40}, {33, 22}, {45, 4}};
  TableReplica r = TableReplica::Build(pairs);
  ASSERT_EQ(r.key_count(), 8u);
  const TermId expected_keys[] = {5, 7, 13, 18, 24, 29, 33, 45};
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(r.KeyAt(i), expected_keys[i]);
  EXPECT_EQ(r.RunLength(1), 2u);   // key 7 -> {8, 34}
  EXPECT_EQ(r.RunLength(4), 3u);   // key 24 -> {9, 16, 41}
  EXPECT_EQ(r.pair_count(), 11u);
}

TEST(PropertyTableTest, ReplicasAreConsistent) {
  Pairs pairs = {{1, 10}, {2, 10}, {2, 20}, {3, 30}};
  PropertyTable t = PropertyTable::Build(pairs);
  EXPECT_EQ(t.triple_count(), 4u);
  EXPECT_EQ(t.so().pair_count(), t.os().pair_count());
  EXPECT_EQ(t.distinct_subjects(), 3u);
  EXPECT_EQ(t.distinct_objects(), 3u);
  // OS replica keyed by object 10 should list subjects {1, 2}.
  size_t pos = t.os().FindKey(10);
  ASSERT_NE(pos, SIZE_MAX);
  auto run = t.os().Run(pos);
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0], 1u);
  EXPECT_EQ(run[1], 2u);
}

TEST(PropertyTableTest, ReplicaSelection) {
  PropertyTable t = PropertyTable::Build({{1, 2}});
  EXPECT_EQ(&t.replica(ReplicaKind::kSO), &t.so());
  EXPECT_EQ(&t.replica(ReplicaKind::kOS), &t.os());
}

TEST(PropertyTableTest, MemoryUsagePositive) {
  PropertyTable t = PropertyTable::Build({{1, 2}, {3, 4}});
  EXPECT_GT(t.MemoryUsage(), 0u);
}

class RandomTableTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomTableTest, ReplicasEncodeTheSameTripleSet) {
  Rng rng(GetParam());
  Pairs pairs;
  const size_t n = 200 + rng.Uniform(800);
  for (size_t i = 0; i < n; ++i) {
    pairs.emplace_back(static_cast<TermId>(1 + rng.Uniform(150)),
                       static_cast<TermId>(1 + rng.Uniform(150)));
  }
  PropertyTable t = PropertyTable::Build(pairs);

  // Reconstruct the pair set from both replicas; they must agree.
  std::vector<std::pair<TermId, TermId>> from_so;
  for (size_t k = 0; k < t.so().key_count(); ++k) {
    for (TermId v : t.so().Run(k)) from_so.emplace_back(t.so().KeyAt(k), v);
  }
  std::vector<std::pair<TermId, TermId>> from_os;
  for (size_t k = 0; k < t.os().key_count(); ++k) {
    for (TermId v : t.os().Run(k)) from_os.emplace_back(v, t.os().KeyAt(k));
  }
  std::sort(from_os.begin(), from_os.end());
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  EXPECT_EQ(from_so, pairs);  // SO iterates in sorted order already
  EXPECT_EQ(from_os, pairs);
}

TEST_P(RandomTableTest, FindKeyMatchesLinearScan) {
  Rng rng(GetParam() * 31 + 7);
  Pairs pairs;
  for (size_t i = 0; i < 500; ++i) {
    pairs.emplace_back(static_cast<TermId>(1 + rng.Uniform(1000)),
                       static_cast<TermId>(1 + rng.Uniform(50)));
  }
  TableReplica r = TableReplica::Build(pairs);
  for (TermId probe = 1; probe <= 1000; ++probe) {
    size_t expected = SIZE_MAX;
    for (size_t k = 0; k < r.key_count(); ++k) {
      if (r.KeyAt(k) == probe) {
        expected = k;
        break;
      }
    }
    EXPECT_EQ(r.FindKey(probe), expected) << "probe " << probe;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTableTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---- O-S by counting transpose ------------------------------------------

/// A replica's three arrays, compared as a whole.
struct Csr {
  std::vector<TermId> keys;
  std::vector<uint64_t> offsets;
  std::vector<TermId> values;
  bool operator==(const Csr&) const = default;
};

Csr ArraysOf(const TableReplica& r) {
  return Csr{{r.keys().begin(), r.keys().end()},
             {r.offsets().begin(), r.offsets().end()},
             {r.values().begin(), r.values().end()}};
}

/// The test's oracle for O-S, sharing nothing with the transpose: reverse
/// every (subject, object) pair, sort, dedup and lay the result out as
/// CSR.
Csr SortedObjectSubject(const Pairs& so_pairs) {
  Pairs reversed;
  for (const auto& [s, o] : so_pairs) reversed.emplace_back(o, s);
  std::sort(reversed.begin(), reversed.end());
  reversed.erase(std::unique(reversed.begin(), reversed.end()),
                 reversed.end());
  Csr csr;
  csr.offsets.push_back(0);
  for (size_t i = 0; i < reversed.size(); ++i) {
    if (i == 0 || reversed[i].first != reversed[i - 1].first) {
      if (i > 0) csr.offsets.push_back(i);
      csr.keys.push_back(reversed[i].first);
    }
    csr.values.push_back(reversed[i].second);
  }
  if (!reversed.empty()) csr.offsets.push_back(reversed.size());
  return csr;
}

/// Build and FromSortedRuns must both derive exactly the oracle's O-S.
void ExpectTransposeMatchesSort(const Pairs& pairs, TermId max_id) {
  const Csr expected = SortedObjectSubject(pairs);
  PropertyTable built = PropertyTable::Build(pairs);
  EXPECT_EQ(ArraysOf(built.os()), expected);
  EXPECT_EQ(built.os().offsets().size(), built.os().key_count() + 1);

  Csr so = ArraysOf(built.so());
  auto from_runs = PropertyTable::FromSortedRuns(
      SortedRuns{so.keys, so.offsets, so.values}, max_id);
  ASSERT_TRUE(from_runs.ok()) << from_runs.status().ToString();
  EXPECT_EQ(ArraysOf(from_runs->so()), so);
  EXPECT_EQ(ArraysOf(from_runs->os()), expected);
  EXPECT_EQ(from_runs->MemoryUsage(), built.MemoryUsage());
  EXPECT_EQ(from_runs->AllocatedBytes(), from_runs->MemoryUsage());
}

TEST(TransposeTest, Empty) {
  ExpectTransposeMatchesSort({}, 10);
  PropertyTable t = PropertyTable::Build({});
  EXPECT_EQ(t.os().offsets().size(), 1u);
}

TEST(TransposeTest, SinglePair) { ExpectTransposeMatchesSort({{3, 7}}, 10); }

TEST(TransposeTest, DuplicateInputPairs) {
  ExpectTransposeMatchesSort({{2, 5}, {1, 5}, {2, 5}, {2, 5}, {1, 4}}, 10);
}

TEST(TransposeTest, SparseWideIdRange) {
  const TermId max = 4'000'000'000u;
  ExpectTransposeMatchesSort(
      {{1, max}, {max, 1}, {7, 1}, {7, max}, {1'000'000, 65'537}, {9, 2}},
      max);
  // Enough pairs for the 16-bit radix digits, still sparse.
  Rng rng(17);
  Pairs pairs;
  for (int i = 0; i < 70'000; ++i) {
    pairs.emplace_back(static_cast<TermId>(1 + rng.Uniform(5'000)),
                       static_cast<TermId>(1 + rng.Uniform(max)));
  }
  ExpectTransposeMatchesSort(pairs, max);
}

TEST(TransposeTest, OneRunHoldsMostPairs) {
  Pairs pairs;
  for (TermId o = 1; o <= 5'000; ++o) pairs.emplace_back(42, o);
  for (TermId s = 1; s <= 20; ++s) pairs.emplace_back(s, 3 * s);
  ExpectTransposeMatchesSort(pairs, 10'000);
  // And the transposed shape: one object shared by most subjects.
  Pairs reversed;
  for (const auto& [s, o] : pairs) reversed.emplace_back(o, s);
  ExpectTransposeMatchesSort(reversed, 10'000);
}

class RandomTransposeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomTransposeTest, MatchesSortAcrossDensities) {
  Rng rng(GetParam());
  for (const TermId id_range : {8u, 300u, 20'000u, 3'000'000u}) {
    Pairs pairs;
    const size_t n = 1 + rng.Uniform(3'000);
    for (size_t i = 0; i < n; ++i) {
      pairs.emplace_back(static_cast<TermId>(1 + rng.Uniform(id_range)),
                         static_cast<TermId>(1 + rng.Uniform(id_range)));
    }
    ExpectTransposeMatchesSort(pairs, id_range);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTransposeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- FromSortedRuns validation -------------------------------------------

/// Valid S-O runs {1: [2, 5], 4: [3]} over IDs [1, 9].
SortedRuns ValidRuns() { return SortedRuns{{1, 4}, {0, 2, 3}, {2, 5, 3}}; }

void ExpectRejected(const SortedRuns& so, TermId max_id = 9) {
  auto table = PropertyTable::FromSortedRuns(so, max_id);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST(SortedRunsValidationTest, AcceptsValidRuns) {
  auto table = PropertyTable::FromSortedRuns(ValidRuns(), 9);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->triple_count(), 3u);
  EXPECT_TRUE(PropertyTable::FromSortedRuns(SortedRuns{{}, {0}, {}}, 9).ok());
}

TEST(SortedRunsValidationTest, RejectsUnsortedKeys) {
  SortedRuns so = ValidRuns();
  so.keys = {4, 1};
  ExpectRejected(so);
}

TEST(SortedRunsValidationTest, RejectsDuplicateKey) {
  SortedRuns so = ValidRuns();
  so.keys = {4, 4};
  ExpectRejected(so);
}

TEST(SortedRunsValidationTest, RejectsEmptyRun) {
  ExpectRejected(SortedRuns{{1, 4, 6}, {0, 2, 2, 3}, {2, 5, 3}});
}

TEST(SortedRunsValidationTest, RejectsUnsortedRun) {
  SortedRuns so = ValidRuns();
  so.values = {5, 2, 3};
  ExpectRejected(so);
}

TEST(SortedRunsValidationTest, RejectsDuplicateValueInRun) {
  SortedRuns so = ValidRuns();
  so.values = {5, 5, 3};
  ExpectRejected(so);
}

TEST(SortedRunsValidationTest, RejectsIdZero) {
  SortedRuns key = ValidRuns();
  key.keys = {0, 4};
  ExpectRejected(key);
  SortedRuns value = ValidRuns();
  value.values = {0, 5, 3};
  ExpectRejected(value);
}

TEST(SortedRunsValidationTest, RejectsIdAboveMax) {
  ExpectRejected(ValidRuns(), /*max_id=*/4);
  SortedRuns key = ValidRuns();
  key.keys = {1, 10};
  ExpectRejected(key);
}

TEST(SortedRunsValidationTest, RejectsOffsetsNotCoveringValues) {
  SortedRuns short_end = ValidRuns();
  short_end.offsets = {0, 2, 2};
  ExpectRejected(short_end);
  SortedRuns past_end = ValidRuns();
  past_end.offsets = {0, 2, 4};
  ExpectRejected(past_end);
  SortedRuns late_start = ValidRuns();
  late_start.offsets = {1, 2, 3};
  ExpectRejected(late_start);
  SortedRuns missing_sentinel = ValidRuns();
  missing_sentinel.offsets = {0, 2};
  ExpectRejected(missing_sentinel);
  // A middle offset past the values must not be read through.
  SortedRuns overshoot = ValidRuns();
  overshoot.offsets = {0, 100, 3};
  ExpectRejected(overshoot);
  ExpectRejected(SortedRuns{{}, {}, {}});
}

}  // namespace
}  // namespace parj::storage

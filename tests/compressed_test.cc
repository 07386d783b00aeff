// Tests for the blocked FOR/delta compressed replica layer (DESIGN.md
// §13): codec round trips (random + adversarial shapes), the
// trajectory-replay search kernels against their flat twins, probe/counter
// equivalence across store modes and SIMD tiers, engine-level result
// equivalence including live deltas and mid-run compaction, and snapshot
// v3 determinism.

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "engine/parj_engine.h"
#include "index/id_position_index.h"
#include "join/search.h"
#include "storage/compressed.h"
#include "storage/property_table.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace parj {
namespace {

using join::SearchCounters;
using join::SearchStrategy;
using storage::CompressedReplica;
using storage::CompressReplica;
using storage::kPackBlock;
using storage::ReplicaCursor;
using storage::TableReplica;
using test::Spec;
using test::ToSortedRows;

// ---- Codec round trips --------------------------------------------------

struct Arrays {
  std::vector<TermId> keys;
  std::vector<uint64_t> offsets;  // keys.size() + 1 entries
  std::vector<TermId> values;
};

/// Decodes every field of a packed replica through a cursor and compares
/// with the source arrays.
void ExpectRoundTrip(const Arrays& a) {
  const CompressedReplica r = CompressReplica(a.keys, a.offsets, a.values);
  ASSERT_EQ(r.key_count(), a.keys.size());
  ASSERT_EQ(r.pair_count(), a.values.size());
  ReplicaCursor rc;
  for (size_t i = 0; i < a.keys.size(); ++i) {
    ASSERT_EQ(rc.KeyAt(r, i), a.keys[i]) << "key " << i;
    ASSERT_EQ(rc.OffsetAt(r, i), a.offsets[i]) << "offset " << i;
    const std::span<const TermId> run = rc.RunAt(r, i);
    ASSERT_EQ(run.size(), a.offsets[i + 1] - a.offsets[i]) << "run " << i;
    for (size_t j = 0; j < run.size(); ++j) {
      ASSERT_EQ(run[j], a.values[a.offsets[i] + j])
          << "run " << i << " value " << j;
    }
  }
  ASSERT_EQ(rc.OffsetAt(r, a.keys.size()), a.values.size());
  if (!a.keys.empty()) {
    ASSERT_EQ(r.min_key, a.keys.front());
    ASSERT_EQ(r.max_key, a.keys.back());
  }
}

Arrays RandomArrays(Rng* rng, size_t key_count, uint32_t max_gap,
                    size_t max_run) {
  Arrays a;
  TermId key = rng->Uniform(100);
  a.offsets.push_back(0);
  for (size_t i = 0; i < key_count; ++i) {
    a.keys.push_back(key);
    const size_t run = 1 + rng->Uniform(max_run);
    TermId v = rng->Uniform(1000);
    for (size_t j = 0; j < run; ++j) {
      a.values.push_back(v);
      v += 1 + rng->Uniform(50);
    }
    a.offsets.push_back(a.values.size());
    key += 1 + rng->Uniform(max_gap);
  }
  return a;
}

TEST(CompressedCodec, RandomRoundTripFuzz) {
  Rng rng(20260808);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t keys = 1 + rng.Uniform(700);
    const uint32_t max_gap = 1 + static_cast<uint32_t>(rng.Uniform(1 << 16));
    const size_t max_run = 1 + rng.Uniform(9);
    ExpectRoundTrip(RandomArrays(&rng, keys, max_gap, max_run));
  }
}

TEST(CompressedCodec, BlockBoundarySizes) {
  Rng rng(7);
  for (size_t n : {size_t{1}, size_t{2}, kPackBlock - 1, kPackBlock,
                   kPackBlock + 1, 2 * kPackBlock - 1, 2 * kPackBlock,
                   2 * kPackBlock + 1}) {
    ExpectRoundTrip(RandomArrays(&rng, n, 1000, 4));
  }
}

TEST(CompressedCodec, ConstantRunsWidthZeroBlocks) {
  // Consecutive keys (delta 1) with identical-length runs of identical
  // gaps: the length column packs at width 0.
  Arrays a;
  a.offsets.push_back(0);
  for (TermId k = 10; k < 10 + 3 * kPackBlock; ++k) {
    a.keys.push_back(k);
    a.values.push_back(k * 2);
    a.values.push_back(k * 2 + 7);
    a.offsets.push_back(a.values.size());
  }
  ExpectRoundTrip(a);
}

TEST(CompressedCodec, MaxGapDeltasAndAdjacentIds) {
  // Keys spanning the full u32 range in two elements (max delta), plus
  // ids adjacent to 2^32 - 1.
  Arrays a;
  a.keys = {0, 0xFFFFFFFEu, 0xFFFFFFFFu};
  a.offsets = {0, 2, 3, 5};
  a.values = {0xFFFFFFFEu, 0xFFFFFFFFu, 0, 1, 0xFFFFFFFFu};
  ExpectRoundTrip(a);

  // Strictly descending run starts across blocks (FOR path for values).
  Arrays b;
  b.offsets.push_back(0);
  TermId key = 1;
  for (size_t i = 0; i < kPackBlock + 9; ++i) {
    b.keys.push_back(key);
    key += 0x01000000u;  // 16M gaps: 25-bit deltas
    b.values.push_back(0xFFFFFFF0u - static_cast<TermId>(i));
    b.offsets.push_back(b.values.size());
  }
  ExpectRoundTrip(b);
}

TEST(CompressedCodec, SingleElementTailBlock) {
  Rng rng(11);
  ExpectRoundTrip(RandomArrays(&rng, kPackBlock + 1, 3, 1));
  ExpectRoundTrip(RandomArrays(&rng, 5 * kPackBlock + 1, 1 << 20, 6));
}

TEST(CompressedCodec, LongRunsSpanValueBlocks) {
  // One key whose run covers several value blocks.
  Arrays a;
  a.keys = {42};
  a.offsets = {0, 5 * kPackBlock + 17};
  TermId v = 3;
  Rng rng(13);
  for (size_t i = 0; i < 5 * kPackBlock + 17; ++i) {
    a.values.push_back(v);
    v += 1 + rng.Uniform(1 << 12);
  }
  ExpectRoundTrip(a);
}

// ---- Replay kernels vs flat kernels -------------------------------------

TEST(CompressedSearch, BinarySearchReplayDifferential) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<TermId> a;
    TermId key = rng.Uniform(50);
    const size_t n = 1 + rng.Uniform(900);
    for (size_t i = 0; i < n; ++i) {
      a.push_back(key);
      key += 1 + rng.Uniform(60);
    }
    for (size_t gallop_cap : {size_t{64}, size_t{256}, size_t{65536}}) {
      size_t flat_cursor = 0;
      size_t replay_cursor = 0;
      for (int probe = 0; probe < 200; ++probe) {
        const TermId v = rng.Uniform(key + 20);
        const size_t flat = join::BinarySearch(a, v, &flat_cursor, gallop_cap);
        const size_t lb = static_cast<size_t>(
            std::lower_bound(a.begin(), a.end(), v) - a.begin());
        const bool found = lb < a.size() && a[lb] == v;
        const size_t replay = join::BinarySearchReplay(
            a.size(), lb, found, &replay_cursor, gallop_cap);
        ASSERT_EQ(flat, replay) << "probe " << v;
        ASSERT_EQ(flat_cursor, replay_cursor) << "probe " << v;
      }
    }
  }
}

/// Probes a flat replica and its packed twin with the same value stream
/// and requires identical positions, cursors, and counters.
void ExpectSearchEquivalence(SearchStrategy strategy) {
  Rng rng(4242 + static_cast<uint64_t>(strategy));
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<TermId> keys;
    TermId key = 1 + rng.Uniform(10);
    const size_t n = 1 + rng.Uniform(1500);
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(key);
      key += 1 + rng.Uniform(9);
    }
    std::vector<uint64_t> offsets(n + 1);
    std::vector<TermId> values(n, 1);
    for (size_t i = 0; i <= n; ++i) offsets[i] = i;
    const CompressedReplica packed = CompressReplica(keys, offsets, values);
    const index::IdPositionIndex index =
        index::IdPositionIndex::Build(keys, key + 1);

    const int64_t threshold = 1 + static_cast<int64_t>(rng.Uniform(400));
    const size_t gallop_cap = 256;
    size_t flat_cursor = 0;
    size_t packed_cursor = 0;
    SearchCounters flat_counters;
    SearchCounters packed_counters;
    ReplicaCursor rc;
    for (int probe = 0; probe < 400; ++probe) {
      // Mix near-cursor and far probes so both adaptive arms execute.
      TermId v;
      if (rng.Chance(0.5) && flat_cursor < keys.size()) {
        const int64_t base = static_cast<int64_t>(keys[flat_cursor]);
        const int64_t jitter =
            static_cast<int64_t>(rng.Uniform(2 * threshold + 1)) - threshold;
        v = static_cast<TermId>(std::max<int64_t>(0, base + jitter));
      } else {
        v = rng.Uniform(key + 50);
      }
      const size_t flat =
          join::AdaptiveSearch(keys, v, &flat_cursor, threshold, strategy,
                               &index, &flat_counters, gallop_cap);
      const size_t comp = join::CompressedAdaptiveSearch(
          packed, v, &packed_cursor, threshold, strategy, &index,
          &packed_counters, &rc, gallop_cap);
      ASSERT_EQ(flat, comp) << "probe " << v;
      ASSERT_EQ(flat_cursor, packed_cursor) << "probe " << v;
    }
    ASSERT_EQ(flat_counters.binary_searches, packed_counters.binary_searches);
    ASSERT_EQ(flat_counters.sequential_searches,
              packed_counters.sequential_searches);
    ASSERT_EQ(flat_counters.sequential_steps,
              packed_counters.sequential_steps);
    ASSERT_EQ(flat_counters.index_lookups, packed_counters.index_lookups);
  }
}

TEST(CompressedSearch, AdaptiveEquivalenceAllStrategiesAllTiers) {
  const simd::Level initial = simd::ActiveLevel();
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kSse2,
                            simd::Level::kAvx2}) {
    if (level > simd::SupportedLevel()) continue;
    simd::SetActiveLevel(level);
    for (SearchStrategy strategy :
         {SearchStrategy::kBinary, SearchStrategy::kAdaptiveBinary,
          SearchStrategy::kIndex, SearchStrategy::kAdaptiveIndex}) {
      ExpectSearchEquivalence(strategy);
    }
  }
  simd::SetActiveLevel(initial);
}

// ---- TableReplica mode equivalence --------------------------------------

TEST(CompressedReplicaApi, ModeAgnosticAccessorsAgree) {
  Rng rng(31);
  std::vector<std::pair<TermId, TermId>> pairs;
  for (int i = 0; i < 4000; ++i) {
    pairs.emplace_back(1 + rng.Uniform(600), 1 + rng.Uniform(5000));
  }
  TableReplica flat = TableReplica::Build(pairs);
  TableReplica packed = TableReplica::Build(pairs);
  packed.Compress();
  ASSERT_TRUE(packed.is_compressed());
  ASSERT_FALSE(flat.is_compressed());

  ASSERT_EQ(flat.key_count(), packed.key_count());
  ASSERT_EQ(flat.pair_count(), packed.pair_count());
  ASSERT_EQ(flat.min_key(), packed.min_key());
  ASSERT_EQ(flat.max_key(), packed.max_key());
  ASSERT_LT(packed.MemoryUsage(), flat.MemoryUsage());
  ASSERT_GE(packed.AllocatedBytes(), packed.MemoryUsage());
  ASSERT_EQ(flat.RawBytes(), packed.RawBytes());

  std::vector<TermId> scratch;
  for (size_t i = 0; i < flat.key_count(); ++i) {
    const TermId k = flat.KeyAt(i);
    ASSERT_EQ(packed.FindKey(k), i);
    ASSERT_EQ(packed.RunLength(i), flat.RunLength(i));
    ASSERT_EQ(packed.OffsetAt(i), flat.OffsetAt(i));
    const std::span<const TermId> flat_run = flat.Run(i);
    const std::span<const TermId> packed_run = packed.RunInto(i, &scratch);
    ASSERT_EQ(std::vector<TermId>(packed_run.begin(), packed_run.end()),
              std::vector<TermId>(flat_run.begin(), flat_run.end()));
    ASSERT_TRUE(packed.RunContains(i, flat_run.front()));
    ASSERT_TRUE(packed.RunContains(i, flat_run.back()));
    ASSERT_EQ(packed.RunContains(i, 0), flat.RunContains(i, 0));
  }
  ASSERT_EQ(packed.FindKey(flat.max_key() + 1), SIZE_MAX);

  std::vector<TermId> keys_scratch;
  const std::span<const TermId> decoded = packed.DecodedKeys(&keys_scratch);
  ASSERT_EQ(std::vector<TermId>(decoded.begin(), decoded.end()),
            std::vector<TermId>(flat.keys().begin(), flat.keys().end()));

  for (size_t parts : {size_t{1}, size_t{3}, size_t{8}}) {
    ASSERT_EQ(flat.CostBalancedSplit(0, flat.key_count(), parts),
              packed.CostBalancedSplit(0, packed.key_count(), parts));
  }
}

// ---- Engine-level equivalence -------------------------------------------

Spec ChainSpec() {
  // A graph with skewed runs and enough keys to cross block boundaries.
  Spec spec;
  Rng rng(271828);
  for (int i = 0; i < 3000; ++i) {
    const int a = static_cast<int>(rng.Uniform(260));
    const int b = static_cast<int>(rng.Uniform(260));
    spec.push_back({"n" + std::to_string(a), "p0", "n" + std::to_string(b)});
  }
  for (int i = 0; i < 1500; ++i) {
    const int a = static_cast<int>(rng.Uniform(260));
    const int b = static_cast<int>(rng.Uniform(90));
    spec.push_back({"n" + std::to_string(a), "p1", "m" + std::to_string(b)});
  }
  for (int i = 0; i < 700; ++i) {
    const int a = static_cast<int>(rng.Uniform(90));
    const int b = static_cast<int>(rng.Uniform(40));
    spec.push_back({"m" + std::to_string(a), "p2", "k" + std::to_string(b)});
  }
  return spec;
}

const char* kChainQuery =
    "SELECT * WHERE { ?x <p0> ?y . ?y <p1> ?z . ?z <p2> ?w }";

engine::EngineOptions WithCompression(storage::Compression c) {
  engine::EngineOptions options;
  options.database.compression = c;
  return options;
}

TEST(CompressedEngine, ResultsAndCountersMatchFlatStore) {
  const Spec spec = ChainSpec();
  engine::ParjEngine flat =
      test::MakeEngine(spec, WithCompression(storage::Compression::kNone));
  engine::ParjEngine packed =
      test::MakeEngine(spec, WithCompression(storage::Compression::kBlocked));
  ASSERT_EQ(packed.database().compression(),
            storage::Compression::kBlocked);

  for (SearchStrategy strategy :
       {SearchStrategy::kBinary, SearchStrategy::kAdaptiveBinary,
        SearchStrategy::kIndex, SearchStrategy::kAdaptiveIndex}) {
    for (int threads : {1, 2, 8}) {
      for (bool batch : {false, true}) {
        engine::QueryOptions opts;
        opts.num_threads = threads;
        opts.strategy = strategy;
        opts.batch_probes = batch;
        // Static scheduling makes shard assignment (and so row order,
        // cursors and counters) deterministic; morsel stealing is checked
        // separately on the row multiset.
        opts.scheduling = join::Scheduling::kStatic;
        auto a = flat.Execute(kChainQuery, opts);
        auto b = packed.Execute(kChainQuery, opts);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        ASSERT_TRUE(b.ok()) << b.status().ToString();
        ASSERT_GT(a->row_count, 0u);
        ASSERT_EQ(a->row_count, b->row_count);
        ASSERT_EQ(a->rows, b->rows);  // byte-identical, order included
        ASSERT_EQ(a->counters.binary_searches, b->counters.binary_searches);
        ASSERT_EQ(a->counters.sequential_searches,
                  b->counters.sequential_searches);
        ASSERT_EQ(a->counters.sequential_steps,
                  b->counters.sequential_steps);
        ASSERT_EQ(a->counters.index_lookups, b->counters.index_lookups);
        ASSERT_EQ(a->counters.run_probes, b->counters.run_probes);

        opts.scheduling = join::Scheduling::kMorsel;
        auto c = packed.Execute(kChainQuery, opts);
        ASSERT_TRUE(c.ok()) << c.status().ToString();
        ASSERT_EQ(c->row_count, a->row_count);
        const size_t width = a->var_names.size();
        ASSERT_EQ(ToSortedRows(c->rows, width), ToSortedRows(a->rows, width));
      }
    }
  }
}

TEST(CompressedEngine, EquivalenceAcrossSimdTiers) {
  const Spec spec = ChainSpec();
  engine::ParjEngine flat =
      test::MakeEngine(spec, WithCompression(storage::Compression::kNone));
  engine::ParjEngine packed =
      test::MakeEngine(spec, WithCompression(storage::Compression::kBlocked));
  engine::QueryOptions opts;
  opts.num_threads = 2;
  opts.strategy = SearchStrategy::kAdaptiveBinary;
  opts.scheduling = join::Scheduling::kStatic;

  const simd::Level initial = simd::ActiveLevel();
  auto reference = flat.Execute(kChainQuery, opts);
  ASSERT_TRUE(reference.ok());
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kSse2,
                            simd::Level::kAvx2}) {
    if (level > simd::SupportedLevel()) continue;
    simd::SetActiveLevel(level);
    auto result = packed.Execute(kChainQuery, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->rows, reference->rows);
    ASSERT_EQ(result->counters.sequential_steps,
              reference->counters.sequential_steps);
  }
  simd::SetActiveLevel(initial);
}

TEST(CompressedEngine, LiveDeltaAndCompactionStayEquivalent) {
  const Spec spec = ChainSpec();
  engine::ParjEngine flat =
      test::MakeEngine(spec, WithCompression(storage::Compression::kNone));
  engine::ParjEngine packed =
      test::MakeEngine(spec, WithCompression(storage::Compression::kBlocked));

  auto triple = [](const std::string& s, const std::string& p,
                   const std::string& o) {
    return rdf::Triple{rdf::Term::Iri(s), rdf::Term::Iri(p),
                       rdf::Term::Iri(o)};
  };
  auto check = [&](const char* when) {
    engine::QueryOptions opts;
    opts.num_threads = 2;
    opts.scheduling = join::Scheduling::kStatic;
    auto a = flat.Execute(kChainQuery, opts);
    auto b = packed.Execute(kChainQuery, opts);
    ASSERT_TRUE(a.ok()) << when << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << when << ": " << b.status().ToString();
    ASSERT_EQ(a->rows, b->rows) << when;
    ASSERT_EQ(a->counters.total_searches(), b->counters.total_searches())
        << when;
  };

  check("baseline");
  Rng rng(55);
  for (int i = 0; i < 200; ++i) {
    const auto t = triple("n" + std::to_string(rng.Uniform(300)),
                          i % 3 == 0 ? "p1" : "p0",
                          "fresh" + std::to_string(rng.Uniform(50)));
    ASSERT_TRUE(flat.Insert(t).ok());
    ASSERT_TRUE(packed.Insert(t).ok());
  }
  for (int i = 0; i < 60; ++i) {
    const auto& [s, p, o] = spec[rng.Uniform(spec.size())];
    const auto t = triple(s, p, o);
    ASSERT_TRUE(flat.Remove(t).ok());
    ASSERT_TRUE(packed.Remove(t).ok());
  }
  check("with pending delta");

  ASSERT_TRUE(flat.Compact().ok());
  ASSERT_TRUE(packed.Compact().ok());
  // The rebuilt base must come back in the store's configured mode.
  ASSERT_EQ(packed.database().compression(), storage::Compression::kBlocked);
  ASSERT_TRUE(packed.database().entry(1).table.is_compressed());
  ASSERT_EQ(flat.database().total_triples(),
            packed.database().total_triples());
  check("after compaction");

  for (int i = 0; i < 40; ++i) {
    const auto t = triple("post" + std::to_string(i), "p2",
                          "k" + std::to_string(i % 40));
    ASSERT_TRUE(flat.Insert(t).ok());
    ASSERT_TRUE(packed.Insert(t).ok());
  }
  check("delta on compacted base");
}

// ---- Snapshot v3 --------------------------------------------------------

TEST(CompressedSnapshot, V3ByteIdenticalFromEitherStoreMode) {
  const Spec spec = ChainSpec();
  storage::Database flat = test::MakeDatabase(
      spec, {.compression = storage::Compression::kNone});
  storage::Database packed = test::MakeDatabase(
      spec, {.compression = storage::Compression::kBlocked});

  std::stringstream from_flat;
  std::stringstream from_packed;
  ASSERT_TRUE(storage::WriteSnapshot(flat, from_flat).ok());
  ASSERT_TRUE(storage::WriteSnapshot(packed, from_packed).ok());
  ASSERT_EQ(from_flat.str(), from_packed.str());

  // A v3 file loads into either mode and matches the source store.
  for (storage::Compression mode :
       {storage::Compression::kNone, storage::Compression::kBlocked}) {
    std::stringstream in(from_flat.str());
    auto loaded = storage::ReadSnapshot(in, {.compression = mode});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->total_triples(), flat.total_triples());
    ASSERT_EQ(loaded->compression(), mode);
    std::stringstream again;
    ASSERT_TRUE(storage::WriteSnapshot(*loaded, again).ok());
    ASSERT_EQ(again.str(), from_flat.str());
  }
}

TEST(CompressedSnapshot, V3Verifies) {
  const Spec spec = ChainSpec();
  storage::Database packed = test::MakeDatabase(
      spec, {.compression = storage::Compression::kBlocked});

  std::stringstream v3;
  ASSERT_TRUE(storage::WriteSnapshot(packed, v3).ok());
  auto info = storage::VerifySnapshot(v3);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_EQ(info->version, storage::kSnapshotVersion);
  ASSERT_EQ(info->triple_count, packed.total_triples());
  ASSERT_EQ(info->sections_verified, 3u);
}

TEST(CompressedSnapshot, CorruptPackedSectionIsDataLoss) {
  const Spec spec = ChainSpec();
  storage::Database packed = test::MakeDatabase(
      spec, {.compression = storage::Compression::kBlocked});
  std::stringstream buffer;
  ASSERT_TRUE(storage::WriteSnapshot(packed, buffer).ok());
  std::string bytes = buffer.str();
  // The tables section sits just before the 4-byte section CRC and the
  // trailer (4 + 8 + 4 bytes): flip a packed payload byte inside it.
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() - 40] ^= 0x20;
  std::stringstream corrupted(bytes);
  const Status read = storage::ReadSnapshot(corrupted).status();
  ASSERT_EQ(read.code(), StatusCode::kDataLoss) << read.ToString();
  std::stringstream corrupted2(bytes);
  const Status verify = storage::VerifySnapshot(corrupted2).status();
  ASSERT_EQ(verify.code(), StatusCode::kDataLoss) << verify.ToString();
}

}  // namespace
}  // namespace parj

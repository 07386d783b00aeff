// Tests for the blocked FOR/delta codec that encodes snapshot tables
// (DESIGN.md §13): PackKeys / PackLengths / PackValues round trips through
// the Decode*Block decoders, on random and adversarial shapes.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/compressed.h"

namespace parj {
namespace {

using storage::kPackBlock;
using storage::kPackWidthMask;
using storage::PackedKeys;
using storage::PackedLengths;
using storage::PackedValues;

struct Arrays {
  std::vector<TermId> keys;
  std::vector<uint64_t> offsets;  // keys.size() + 1 entries
  std::vector<TermId> values;
};

/// Packs the three arrays, decodes every block and compares with the
/// source arrays.
void ExpectRoundTrip(const Arrays& a) {
  const PackedKeys pk = storage::PackKeys(a.keys);
  const PackedLengths pl = storage::PackLengths(a.offsets);
  const PackedValues pv = storage::PackValues(a.values);
  ASSERT_EQ(pk.col.size, a.keys.size());
  ASSERT_EQ(pl.col.size, a.keys.size());
  ASSERT_EQ(pl.total, a.values.size());
  ASSERT_EQ(pv.col.size, a.values.size());

  TermId ids[kPackBlock];
  for (size_t b = 0; b < pk.col.block_count(); ++b) {
    storage::DecodeKeyBlock(pk, b, ids);
    for (size_t i = 0; i < pk.col.BlockLen(b); ++i) {
      ASSERT_EQ(ids[i], a.keys[b * kPackBlock + i]) << "key " << i;
    }
  }
  uint64_t offsets[kPackBlock + 1];
  for (size_t b = 0; b < pl.col.block_count(); ++b) {
    storage::DecodeLengthBlock(pl, b, offsets);
    for (size_t i = 0; i <= pl.col.BlockLen(b); ++i) {
      ASSERT_EQ(offsets[i], a.offsets[b * kPackBlock + i]) << "offset " << i;
    }
  }
  for (size_t b = 0; b < pv.col.block_count(); ++b) {
    storage::DecodeValueBlock(pv, b, ids);
    for (size_t i = 0; i < pv.col.BlockLen(b); ++i) {
      ASSERT_EQ(ids[i], a.values[b * kPackBlock + i]) << "value " << i;
    }
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
  const PackedLengths pl = storage::PackLengths(a.offsets);
  for (size_t b = 0; b < pl.col.block_count(); ++b) {
    ASSERT_EQ(pl.col.meta[b] & kPackWidthMask, 0) << "block " << b;
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

}  // namespace
}  // namespace parj

#include "storage/compressed.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace parj::storage {

namespace {

/// Bits needed to represent `x` (0 for 0).
unsigned BitsFor(uint32_t x) {
  return x == 0 ? 0u : 32u - static_cast<unsigned>(std::countl_zero(x));
}

/// Appends one block of `count` fields at `width` bits to the column's
/// payload and directory. Fields are packed LSB-first with no padding;
/// the block's payload starts on a word boundary.
void AppendBlock(PackedColumn* col, const uint32_t* fields, size_t count,
                 uint8_t meta_byte) {
  const unsigned width = meta_byte & kPackWidthMask;
  col->block_word.push_back(static_cast<uint32_t>(col->words.size()));
  col->meta.push_back(meta_byte);
  if (width == 0) return;
  const size_t base_word = col->words.size();
  col->words.resize(base_word + (count * width + 63) / 64, 0);
  size_t bit = 0;
  for (size_t i = 0; i < count; ++i, bit += width) {
    const uint64_t v = fields[i];
    const size_t word = base_word + (bit >> 6);
    const unsigned off = bit & 63u;
    col->words[word] |= v << off;
    if (off + width > 64) col->words[word + 1] |= v >> (64 - off);
  }
}

/// Appends the column's zero guard word. The snapshot format requires it
/// (CheckPackedColumn); no decoder reads it.
void FinishColumn(PackedColumn* col) {
  col->words.push_back(0);
}

/// Calls fn(i, field_i) for the `count` fields of one block packed at
/// `width` bits. Reads only the block's payload words.
template <typename Fn>
void ForEachField(const uint64_t* words, unsigned width, size_t count,
                  Fn&& fn) {
  if (width == 0) {
    for (size_t i = 0; i < count; ++i) fn(i, 0u);
    return;
  }
  const uint64_t mask = (uint64_t{1} << width) - 1;
  size_t bit = 0;
  for (size_t i = 0; i < count; ++i, bit += width) {
    const size_t word = bit >> 6;
    const unsigned off = bit & 63u;
    uint64_t v = words[word] >> off;
    if (off + width > 64) v |= words[word + 1] << (64 - off);
    fn(i, static_cast<uint32_t>(v & mask));
  }
}

/// Delta block (non-decreasing data): out[i] = base + field[0] + ... +
/// field[i]. Encoders emit field[0] = 0 so out[0] == base.
void UnpackDelta(const uint64_t* words, unsigned width, size_t count,
                 uint32_t base, uint32_t* out) {
  uint32_t sum = base;
  ForEachField(words, width, count, [&](size_t i, uint32_t field) {
    sum += field;
    out[i] = sum;
  });
}

/// Frame-of-reference block: out[i] = base + field[i].
void UnpackFor(const uint64_t* words, unsigned width, size_t count,
               uint32_t base, uint32_t* out) {
  ForEachField(words, width, count,
               [&](size_t i, uint32_t field) { out[i] = base + field; });
}

}  // namespace

PackedKeys PackKeys(std::span<const TermId> keys) {
  PARJ_CHECK(keys.size() < UINT32_MAX);
  PackedKeys pk;
  pk.col.size = static_cast<uint32_t>(keys.size());
  uint32_t fields[kPackBlock];
  for (size_t begin = 0; begin < keys.size(); begin += kPackBlock) {
    const size_t len = std::min(kPackBlock, keys.size() - begin);
    pk.minima.push_back(keys[begin]);
    fields[0] = 0;
    uint32_t max_field = 0;
    for (size_t i = 1; i < len; ++i) {
      fields[i] = keys[begin + i] - keys[begin + i - 1];
      max_field = std::max(max_field, fields[i]);
    }
    AppendBlock(&pk.col, fields, len,
                static_cast<uint8_t>(BitsFor(max_field) | kPackDeltaFlag));
  }
  FinishColumn(&pk.col);
  return pk;
}

PackedLengths PackLengths(std::span<const uint64_t> offsets) {
  PARJ_CHECK(!offsets.empty());
  const size_t key_count = offsets.size() - 1;
  PARJ_CHECK(key_count < UINT32_MAX);
  PackedLengths pl;
  pl.col.size = static_cast<uint32_t>(key_count);
  pl.total = offsets[key_count];
  uint32_t fields[kPackBlock];
  for (size_t begin = 0; begin < key_count; begin += kPackBlock) {
    const size_t len = std::min(kPackBlock, key_count - begin);
    pl.base.push_back(offsets[begin]);
    uint32_t min_len = UINT32_MAX;
    for (size_t i = 0; i < len; ++i) {
      min_len = std::min(min_len, static_cast<uint32_t>(
                                      offsets[begin + i + 1] -
                                      offsets[begin + i]));
    }
    // Field i is the CUMULATIVE length excess over a min_len-sloped ramp:
    //   offsets[begin+i] == base + i*min_len + fields[i]
    // so any offset random-accesses in O(1) — no prefix chain on decode,
    // no length-block cache on the probe path. A block of uniform run
    // lengths still packs to width 0, exactly like plain FOR lengths.
    uint32_t max_field = 0;
    for (size_t i = 0; i < len; ++i) {
      fields[i] = static_cast<uint32_t>(
          (offsets[begin + i] - offsets[begin]) -
          static_cast<uint64_t>(i) * min_len);
      max_field = std::max(max_field, fields[i]);
    }
    pl.min_len.push_back(min_len);
    AppendBlock(&pl.col, fields, len,
                static_cast<uint8_t>(BitsFor(max_field)));
  }
  FinishColumn(&pl.col);
  return pl;
}

PackedValues PackValues(std::span<const TermId> values) {
  PARJ_CHECK(values.size() < UINT32_MAX);
  PackedValues pv;
  pv.col.size = static_cast<uint32_t>(values.size());
  uint32_t fields[kPackBlock];
  for (size_t begin = 0; begin < values.size(); begin += kPackBlock) {
    const size_t len = std::min(kPackBlock, values.size() - begin);
    bool non_decreasing = true;
    TermId min_v = values[begin];
    for (size_t i = 1; i < len; ++i) {
      if (values[begin + i] < values[begin + i - 1]) non_decreasing = false;
      min_v = std::min(min_v, values[begin + i]);
    }
    uint32_t max_field = 0;
    uint8_t meta_byte;
    if (non_decreasing) {
      pv.minima.push_back(values[begin]);
      fields[0] = 0;
      for (size_t i = 1; i < len; ++i) {
        fields[i] = values[begin + i] - values[begin + i - 1];
        max_field = std::max(max_field, fields[i]);
      }
      meta_byte = static_cast<uint8_t>(BitsFor(max_field) | kPackDeltaFlag);
    } else {
      pv.minima.push_back(min_v);
      for (size_t i = 0; i < len; ++i) {
        fields[i] = values[begin + i] - min_v;
        max_field = std::max(max_field, fields[i]);
      }
      meta_byte = static_cast<uint8_t>(BitsFor(max_field));
    }
    AppendBlock(&pv.col, fields, len, meta_byte);
  }
  FinishColumn(&pv.col);
  return pv;
}

void DecodeKeyBlock(const PackedKeys& pk, size_t b, uint32_t* out) {
  UnpackDelta(pk.col.words.data() + pk.col.block_word[b],
              pk.col.meta[b] & kPackWidthMask, pk.col.BlockLen(b),
              pk.minima[b], out);
}

void DecodeValueBlock(const PackedValues& pv, size_t b, uint32_t* out) {
  const uint64_t* words = pv.col.words.data() + pv.col.block_word[b];
  const unsigned width = pv.col.meta[b] & kPackWidthMask;
  const size_t len = pv.col.BlockLen(b);
  if (pv.col.meta[b] & kPackDeltaFlag) {
    UnpackDelta(words, width, len, pv.minima[b], out);
  } else {
    UnpackFor(words, width, len, pv.minima[b], out);
  }
}

void DecodeLengthBlock(const PackedLengths& pl, size_t b, uint64_t* out) {
  // Fields are cumulative excesses over the min_len ramp, so each output
  // offset is independent — no serial prefix chain.
  const size_t len = pl.col.BlockLen(b);
  const uint64_t base = pl.base[b];
  const uint64_t min_len = pl.min_len[b];
  ForEachField(pl.col.words.data() + pl.col.block_word[b],
               pl.col.meta[b] & kPackWidthMask, len,
               [&](size_t i, uint32_t excess) {
                 out[i] = base + i * min_len + excess;
               });
  out[len] = b + 1 < pl.base.size() ? pl.base[b + 1] : pl.total;
}

}  // namespace parj::storage

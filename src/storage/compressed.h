#ifndef PARJ_STORAGE_COMPRESSED_H_
#define PARJ_STORAGE_COMPRESSED_H_

// Blocked FOR/delta bit-packed columns: the snapshot table encoding
// (DESIGN.md §13).
//
// A replica's three arrays are each cut into fixed 128-id blocks and
// bit-packed with the narrowest width that represents the block:
//
//   keys     strictly increasing  -> delta-coded gaps, block minima kept
//            uncompressed;
//   offsets  stored as the CUMULATIVE length excess over a min-length
//            ramp (offsets[b*128+i] == base[b] + i*min_len[b] + field_i),
//            plus one uncompressed u64 base offset per block (offsets
//            themselves grow past 2^32). Uniform-length blocks pack to
//            width 0;
//   values   sorted per run, not globally -> per-block adaptive: delta
//            when the block happens to be non-decreasing, FOR over the
//            block minimum otherwise.
//
// Blocks decode through scalar unpack loops in compressed.cc. Encoding is
// deterministic — the same arrays always produce the same packed bytes —
// so a store always writes the same snapshot.

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace parj::storage {

/// Ids per packed block. 128 keeps a decoded block inside two cache
/// lines of u32s and makes block math a shift/mask.
inline constexpr size_t kPackBlock = 128;

/// Block meta byte: low 6 bits = field width (0..32), bit 6 = delta flag.
inline constexpr uint8_t kPackWidthMask = 0x3F;
inline constexpr uint8_t kPackDeltaFlag = 0x40;

/// One bit-packed column: fields packed LSB-first into little-endian u64
/// words, one width per block, plus the per-block directory. A zero guard
/// word follows the payload; the snapshot format requires it, but no
/// decoder reads past a block's payload.
struct PackedColumn {
  uint32_t size = 0;                 ///< logical element count
  std::vector<uint64_t> words;       ///< packed payload + 1 guard word
  std::vector<uint32_t> block_word;  ///< first payload word of each block
  std::vector<uint8_t> meta;         ///< width | kPackDeltaFlag per block

  size_t block_count() const { return meta.size(); }
  size_t BlockLen(size_t b) const {
    return b + 1 < meta.size() ? kPackBlock
                               : static_cast<size_t>(size) - b * kPackBlock;
  }
};

/// Strictly increasing u32 column (replica keys). Every block is
/// delta-coded; minima[b] is the block's first key.
struct PackedKeys {
  PackedColumn col;
  std::vector<TermId> minima;
};

/// CSR offsets, packed as each key's cumulative length excess over the
/// block's min-length ramp: offsets[b*128+i] == base[b] + i*min_len[b] +
/// field_i. base[b] is the offset of the block's first key
/// (offsets[b*128]); min_len[b] the block's minimum run length. The ramp
/// form keeps uniform-length blocks at width 0, and its fields are
/// independent (no prefix chain on decode).
struct PackedLengths {
  PackedColumn col;                ///< col.size == key count
  std::vector<uint64_t> base;
  std::vector<uint32_t> min_len;
  uint64_t total = 0;              ///< offsets.back() == pair count
};

/// Concatenated value runs, per-block adaptive delta/FOR.
struct PackedValues {
  PackedColumn col;
  std::vector<TermId> minima;  ///< delta: first value; FOR: block minimum
};

/// Deterministic builders used by the snapshot writer. `keys` must be
/// strictly increasing; `offsets` has keys.size()+1 monotone entries; all
/// sizes must fit in u32.
PackedKeys PackKeys(std::span<const TermId> keys);
PackedLengths PackLengths(std::span<const uint64_t> offsets);
PackedValues PackValues(std::span<const TermId> values);

/// Block decoders. `out` must hold BlockLen(b) elements (length decoder:
/// BlockLen(b)+1 — it emits the block's offsets prefix, out[i] ==
/// offsets[b*128 + i]).
void DecodeKeyBlock(const PackedKeys& pk, size_t b, uint32_t* out);
void DecodeValueBlock(const PackedValues& pv, size_t b, uint32_t* out);
void DecodeLengthBlock(const PackedLengths& pl, size_t b, uint64_t* out);

}  // namespace parj::storage

#endif  // PARJ_STORAGE_COMPRESSED_H_

#ifndef PARJ_INDEX_ID_POSITION_INDEX_H_
#define PARJ_INDEX_ID_POSITION_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"
#include "common/memory_policy.h"
#include "common/types.h"

namespace parj::index {

/// ID-to-Position index (paper §4.2): maps a dictionary ID directly to its
/// position in a replica's sorted distinct-key array, avoiding binary
/// search.
///
/// The paper's layout interleaves, every A bits, a 4-byte absolute position
/// with A presence bits; finding a position reads one integer and popcounts
/// the bits up to the ID. We keep the position samples and the presence
/// bits in parallel arrays (identical information, simpler alignment):
///
///   bits_        one presence bit per dictionary ID in [0, universe];
///   samples_     for every block of kBlockBits presence bits, the number
///                of set bits in all preceding blocks (i.e. the key-array
///                position of the block's first present ID);
///   word_ranks_  for every 64-bit word, the number of set bits in the
///                preceding words of ITS block (< kBlockBits, so uint16).
///
/// With kBlockBits = 512 (8 words = one cache line) the overhead matches
/// the paper's interval-480 configuration plus universe/32 bytes of word
/// ranks. A lookup is rank(id) = samples_[block] + word_ranks_[word] +
/// popcount(word bits below id): three loads and ONE popcount, data-
/// independent — the old layout instead walked up to 7 sibling words per
/// lookup, a data-dependent loop the branch predictor cannot amortize.
class IdPositionIndex {
 public:
  static constexpr size_t kNotFound = SIZE_MAX;
  static constexpr size_t kBlockBits = 512;
  static constexpr size_t kWordsPerBlock = kBlockBits / 64;

  IdPositionIndex() = default;

  /// Builds the index for `keys` (a sorted distinct array of IDs) over the
  /// dictionary universe [0, max_id].
  static IdPositionIndex Build(std::span<const TermId> keys, TermId max_id);

  IdPositionIndex(IdPositionIndex&&) = default;
  IdPositionIndex& operator=(IdPositionIndex&&) = default;
  IdPositionIndex(const IdPositionIndex&) = delete;
  IdPositionIndex& operator=(const IdPositionIndex&) = delete;

  /// A deep copy (compaction keeps an untouched replica's index this way).
  IdPositionIndex Clone() const {
    IdPositionIndex copy;
    copy.bits_ = bits_;
    copy.samples_ = samples_;
    copy.word_ranks_ = word_ranks_;
    copy.universe_ = universe_;
    copy.key_count_ = key_count_;
    return copy;
  }

  bool empty() const { return bits_.empty(); }

  /// Position of `id` in the indexed key array, or kNotFound.
  size_t Find(TermId id) const {
    DirectMemory mem;
    return FindWith(id, mem);
  }

  /// True when `id` occurs in the indexed key array.
  bool Contains(TermId id) const { return Find(id) != kNotFound; }

  /// Find with an explicit memory-access policy (see
  /// common/memory_policy.h). Every word, sample, and rank read goes
  /// through `mem.Load`, so an instrumented policy observes the true
  /// access stream.
  template <typename MemoryPolicy>
  size_t FindWith(TermId id, MemoryPolicy& mem) const {
    if (id > universe_) return kNotFound;
    const size_t word_index = id / 64;
    const unsigned bit_index = static_cast<unsigned>(id % 64);
    const uint64_t word = mem.Load(&bits_[word_index]);
    if ((word >> bit_index & 1) == 0) return kNotFound;

    const size_t block = id / kBlockBits;
    return static_cast<size_t>(mem.Load(&samples_[block])) +
           static_cast<size_t>(mem.Load(&word_ranks_[word_index])) +
           static_cast<size_t>(PopCountBelow(word, bit_index));
  }

  /// The pre-rank-array lookup (walks the block's preceding words), kept
  /// as the reference for differential tests and the index micro-bench.
  template <typename MemoryPolicy>
  size_t FindWithWalk(TermId id, MemoryPolicy& mem) const {
    if (id > universe_) return kNotFound;
    const size_t word_index = id / 64;
    const unsigned bit_index = static_cast<unsigned>(id % 64);
    const uint64_t word = mem.Load(&bits_[word_index]);
    if ((word >> bit_index & 1) == 0) return kNotFound;

    const size_t block = id / kBlockBits;
    size_t position = mem.Load(&samples_[block]);
    // Count set bits from the start of the block up to (not including) id.
    const size_t first_word = block * kWordsPerBlock;
    for (size_t w = first_word; w < word_index; ++w) {
      position += static_cast<size_t>(PopCount64(mem.Load(&bits_[w])));
    }
    position += static_cast<size_t>(PopCountBelow(word, bit_index));
    return position;
  }

  /// Issues prefetches for the cache lines a FindWith(id) will touch.
  /// Used by the executor's batched probe loop to overlap the misses of
  /// independent lookups; has no architectural effect.
  void PrefetchFind(TermId id) const {
    if (id > universe_) return;
    const size_t word_index = id / 64;
    __builtin_prefetch(&bits_[word_index], 0, 1);
    __builtin_prefetch(&samples_[id / kBlockBits], 0, 1);
    __builtin_prefetch(&word_ranks_[word_index], 0, 1);
  }

  /// Heap bytes held by the index (the paper's N/8 + (N/A)*M formula plus
  /// the word-rank array).
  size_t MemoryUsage() const {
    return bits_.capacity() * sizeof(uint64_t) +
           samples_.capacity() * sizeof(uint32_t) +
           word_ranks_.capacity() * sizeof(uint16_t);
  }

  /// Largest indexable ID.
  TermId universe() const { return universe_; }

  /// Number of present IDs (size of the indexed key array).
  size_t key_count() const { return key_count_; }

 private:
  std::vector<uint64_t> bits_;
  std::vector<uint32_t> samples_;
  std::vector<uint16_t> word_ranks_;
  TermId universe_ = 0;
  size_t key_count_ = 0;
};

}  // namespace parj::index

#endif  // PARJ_INDEX_ID_POSITION_INDEX_H_

#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if PARJ_SIMD_AVX2
#include <immintrin.h>
#endif

namespace parj::simd {

namespace {

#if PARJ_SIMD_SSE2

/// Bias to map unsigned 32-bit compares onto x86's signed lane compares.
inline __m128i Bias128() { return _mm_set1_epi32(INT32_MIN); }

size_t ScanForwardStopSse2(const uint32_t* data, size_t begin, size_t end,
                           uint32_t value) {
  const __m128i bias = Bias128();
  const __m128i vv =
      _mm_xor_si128(_mm_set1_epi32(static_cast<int32_t>(value)), bias);
  size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    // Lanes where data[i] < value; the first lane NOT set is the stop.
    const __m128i lt = _mm_cmpgt_epi32(vv, _mm_xor_si128(d, bias));
    const unsigned mask =
        static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(lt)));
    if (mask != 0xFu) {
      return i + static_cast<size_t>(__builtin_ctz(~mask & 0xFu));
    }
  }
  for (; i < end; ++i) {
    if (data[i] >= value) return i;
  }
  return end - 1;
}

size_t ScanBackwardStopSse2(const uint32_t* data, size_t end0,
                            uint32_t value) {
  const __m128i bias = Bias128();
  const __m128i vv =
      _mm_xor_si128(_mm_set1_epi32(static_cast<int32_t>(value)), bias);
  size_t i = end0;
  while (i >= 4) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i - 4));
    // Lanes where data[i] > value; the highest lane NOT set is the stop.
    const __m128i gt = _mm_cmpgt_epi32(_mm_xor_si128(d, bias), vv);
    const unsigned mask =
        static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(gt)));
    if (mask != 0xFu) {
      const unsigned le = ~mask & 0xFu;
      return (i - 4) + (31 - static_cast<size_t>(__builtin_clz(le)));
    }
    i -= 4;
  }
  while (i > 0) {
    --i;
    if (data[i] <= value) return i;
  }
  return 0;
}

bool ContainsSse2(const uint32_t* data, size_t count, uint32_t value) {
  const __m128i vv = _mm_set1_epi32(static_cast<int32_t>(value));
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    if (_mm_movemask_epi8(_mm_cmpeq_epi32(d, vv)) != 0) return true;
  }
  for (; i < count; ++i) {
    if (data[i] == value) return true;
  }
  return false;
}

/// Inclusive prefix-sum of out[0..count) plus `base` added to every
/// element: 4 lanes per step with a broadcast carry between groups.
void PrefixAddSse2(uint32_t* out, size_t count, uint32_t base) {
  __m128i carry = _mm_set1_epi32(static_cast<int32_t>(base));
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(out + i));
    x = _mm_add_epi32(x, _mm_slli_si128(x, 4));
    x = _mm_add_epi32(x, _mm_slli_si128(x, 8));
    x = _mm_add_epi32(x, carry);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), x);
    carry = _mm_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 3, 3));
  }
  uint32_t c = i > 0 ? out[i - 1] : base;
  for (; i < count; ++i) {
    c += out[i];
    out[i] = c;
  }
}

void ForAddSse2(uint32_t* out, size_t count, uint32_t base) {
  const __m128i b = _mm_set1_epi32(static_cast<int32_t>(base));
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(out + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_add_epi32(x, b));
  }
  for (; i < count; ++i) out[i] += base;
}

#endif  // PARJ_SIMD_SSE2

#if PARJ_SIMD_AVX2

__attribute__((target("avx2"))) size_t ScanForwardStopAvx2(
    const uint32_t* data, size_t begin, size_t end, uint32_t value) {
  const __m256i bias = _mm256_set1_epi32(INT32_MIN);
  const __m256i vv =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int32_t>(value)), bias);
  size_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i lt = _mm256_cmpgt_epi32(vv, _mm256_xor_si256(d, bias));
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(lt)));
    if (mask != 0xFFu) {
      return i + static_cast<size_t>(__builtin_ctz(~mask & 0xFFu));
    }
  }
  for (; i < end; ++i) {
    if (data[i] >= value) return i;
  }
  return end - 1;
}

__attribute__((target("avx2"))) size_t ScanBackwardStopAvx2(
    const uint32_t* data, size_t end0, uint32_t value) {
  const __m256i bias = _mm256_set1_epi32(INT32_MIN);
  const __m256i vv =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int32_t>(value)), bias);
  size_t i = end0;
  while (i >= 8) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i - 8));
    const __m256i gt = _mm256_cmpgt_epi32(_mm256_xor_si256(d, bias), vv);
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(gt)));
    if (mask != 0xFFu) {
      const unsigned le = ~mask & 0xFFu;
      return (i - 8) + (31 - static_cast<size_t>(__builtin_clz(le)));
    }
    i -= 8;
  }
  while (i > 0) {
    --i;
    if (data[i] <= value) return i;
  }
  return 0;
}

__attribute__((target("avx2"))) bool ContainsAvx2(const uint32_t* data,
                                                  size_t count,
                                                  uint32_t value) {
  const __m256i vv = _mm256_set1_epi32(static_cast<int32_t>(value));
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi32(d, vv)) != 0) return true;
  }
  for (; i < count; ++i) {
    if (data[i] == value) return true;
  }
  return false;
}

/// Decodes 8 consecutive fields of width 1..7 starting at absolute bit
/// `bit0`. All 8 fields span (bit0 & 7) + 8*width <= 63 bits, so ONE
/// unaligned 8-byte window holds them: the generic path's per-lane gather
/// collapses into a broadcast plus two variable 64-bit shifts. Reads up
/// to 8 bytes past the last field's byte (the guard word).
__attribute__((target("avx2"))) inline __m256i UnpackSmall8Avx2(
    const uint8_t* bytes, uint32_t bit0, __m256i mask, __m256i shift_lo,
    __m256i shift_hi, __m256i order) {
  uint64_t window;
  std::memcpy(&window, bytes + (bit0 >> 3), sizeof(window));
  const __m256i w = _mm256_set1_epi64x(static_cast<int64_t>(window));
  const __m256i s = _mm256_set1_epi64x(bit0 & 7);
  // Even dwords of lo/hi hold fields {0..3} / {4..7}; shuffle_ps keeps
  // the even dwords and permutevar restores field order.
  const __m256i lo = _mm256_srlv_epi64(w, _mm256_add_epi64(shift_lo, s));
  const __m256i hi = _mm256_srlv_epi64(w, _mm256_add_epi64(shift_hi, s));
  const __m256 packed = _mm256_shuffle_ps(_mm256_castsi256_ps(lo),
                                          _mm256_castsi256_ps(hi), 0x88);
  return _mm256_and_si256(
      _mm256_permutevar8x32_epi32(_mm256_castps_si256(packed), order), mask);
}

__attribute__((target("avx2"))) void UnpackBitsSmallAvx2(const uint64_t* words,
                                                         unsigned width,
                                                         size_t count,
                                                         uint32_t* out) {
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(words);
  const __m256i mask =
      _mm256_set1_epi32(static_cast<int32_t>((1u << width) - 1));
  const int64_t w = width;
  const __m256i shift_lo = _mm256_setr_epi64x(0, w, 2 * w, 3 * w);
  const __m256i shift_hi = _mm256_setr_epi64x(4 * w, 5 * w, 6 * w, 7 * w);
  const __m256i order = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  size_t i = 0;
  uint32_t bit0 = 0;
  for (; i + 8 <= count; i += 8, bit0 += 8 * width) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        UnpackSmall8Avx2(bytes, bit0, mask, shift_lo, shift_hi, order));
  }
  const uint64_t m = (uint64_t{1} << width) - 1;
  for (; i < count; ++i, bit0 += width) {
    const size_t word = bit0 >> 6;
    const unsigned off = bit0 & 63u;
    uint64_t v = words[word] >> off;
    if (off + width > 64) v |= words[word + 1] << (64 - off);
    out[i] = static_cast<uint32_t>(v & m);
  }
}

/// Fused small-width delta decode: unpack and running prefix sum in one
/// pass, so the serial carry chain overlaps the next window's extraction
/// instead of running as a second sweep over the decoded block.
__attribute__((target("avx2"))) void UnpackDeltaSmallAvx2(
    const uint64_t* words, unsigned width, size_t count, uint32_t base,
    uint32_t* out) {
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(words);
  const __m256i mask =
      _mm256_set1_epi32(static_cast<int32_t>((1u << width) - 1));
  const int64_t w = width;
  const __m256i shift_lo = _mm256_setr_epi64x(0, w, 2 * w, 3 * w);
  const __m256i shift_hi = _mm256_setr_epi64x(4 * w, 5 * w, 6 * w, 7 * w);
  const __m256i order = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  const __m256i bcast3 = _mm256_set1_epi32(3);
  __m256i carry = _mm256_set1_epi32(static_cast<int32_t>(base));
  size_t i = 0;
  uint32_t bit0 = 0;
  for (; i + 8 <= count; i += 8, bit0 += 8 * width) {
    const __m256i f =
        UnpackSmall8Avx2(bytes, bit0, mask, shift_lo, shift_hi, order);
    // Group total broadcast to every lane — feeds the carry via ONE
    // 1-cycle add, so the loop-carried chain never routes through the
    // 3-cycle lane permutes below (those only feed this group's store).
    __m256i t = _mm256_add_epi32(f, _mm256_permute2x128_si256(f, f, 0x01));
    t = _mm256_add_epi32(t, _mm256_shuffle_epi32(t, 0x4E));
    t = _mm256_add_epi32(t, _mm256_shuffle_epi32(t, 0xB1));
    __m256i p = _mm256_add_epi32(f, _mm256_slli_si256(f, 4));
    p = _mm256_add_epi32(p, _mm256_slli_si256(p, 8));
    const __m256i low_total = _mm256_permutevar8x32_epi32(p, bcast3);
    p = _mm256_add_epi32(
        p, _mm256_blend_epi32(_mm256_setzero_si256(), low_total, 0xF0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi32(p, carry));
    carry = _mm256_add_epi32(carry, t);
  }
  uint32_t c = i > 0 ? out[i - 1] : base;
  const uint64_t m = (uint64_t{1} << width) - 1;
  for (; i < count; ++i, bit0 += width) {
    const size_t word = bit0 >> 6;
    const unsigned off = bit0 & 63u;
    uint64_t v = words[word] >> off;
    if (off + width > 64) v |= words[word + 1] << (64 - off);
    c += static_cast<uint32_t>(v & m);
    out[i] = c;
  }
}

/// Gather-based field extraction for widths 1..25: each lane loads the
/// 32-bit window starting at its field's byte offset, shifts by the
/// sub-byte bit offset and masks. Valid while (bit & 7) + width <= 32,
/// i.e. width <= 25. May read up to 3 bytes past the payload (the
/// decoder contract's guard word).
__attribute__((target("avx2"))) void UnpackBitsAvx2(const uint64_t* words,
                                                    unsigned width,
                                                    size_t count,
                                                    uint32_t* out) {
  if (width <= 7) {
    UnpackBitsSmallAvx2(words, width, count, out);
    return;
  }
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(words);
  const __m256i lane_bits = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<int32_t>(width)));
  const __m256i mask = _mm256_set1_epi32(static_cast<int32_t>((1u << width) - 1));
  const __m256i seven = _mm256_set1_epi32(7);
  uint32_t bit0 = 0;
  size_t i = 0;
  for (; i + 8 <= count; i += 8, bit0 += 8 * width) {
    const __m256i bits =
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int32_t>(bit0)),
                         lane_bits);
    const __m256i byte_off = _mm256_srli_epi32(bits, 3);
    const __m256i window = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(bytes), byte_off, 1);
    const __m256i shift = _mm256_and_si256(bits, seven);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_and_si256(_mm256_srlv_epi32(window, shift), mask));
  }
  const uint64_t m = (uint64_t{1} << width) - 1;
  for (; i < count; ++i, bit0 += width) {
    const size_t word = bit0 >> 6;
    const unsigned off = bit0 & 63u;
    uint64_t v = words[word] >> off;
    if (off + width > 64) v |= words[word + 1] << (64 - off);
    out[i] = static_cast<uint32_t>(v & m);
  }
}

__attribute__((target("avx2"))) void PrefixAddAvx2(uint32_t* out, size_t count,
                                                   uint32_t base) {
  __m256i carry = _mm256_set1_epi32(static_cast<int32_t>(base));
  const __m256i bcast3 = _mm256_set1_epi32(3);
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i f =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + i));
    // Group total broadcast to every lane — the loop-carried dependency
    // is the single 1-cycle `carry += t` add at the bottom, not the
    // 3-cycle lane permutes (those only feed this group's store).
    __m256i t = _mm256_add_epi32(f, _mm256_permute2x128_si256(f, f, 0x01));
    t = _mm256_add_epi32(t, _mm256_shuffle_epi32(t, 0x4E));
    t = _mm256_add_epi32(t, _mm256_shuffle_epi32(t, 0xB1));
    // Prefix within each 128-bit lane, then add the low lane's total to
    // the high lane (slli_si256 shifts per-lane, so the cross-lane carry
    // needs the explicit permute+blend).
    __m256i p = _mm256_add_epi32(f, _mm256_slli_si256(f, 4));
    p = _mm256_add_epi32(p, _mm256_slli_si256(p, 8));
    const __m256i low_total = _mm256_permutevar8x32_epi32(p, bcast3);
    p = _mm256_add_epi32(
        p, _mm256_blend_epi32(_mm256_setzero_si256(), low_total, 0xF0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi32(p, carry));
    carry = _mm256_add_epi32(carry, t);
  }
  uint32_t c = i > 0 ? out[i - 1] : base;
  for (; i < count; ++i) {
    c += out[i];
    out[i] = c;
  }
}

__attribute__((target("avx2"))) void ForAddAvx2(uint32_t* out, size_t count,
                                                uint32_t base) {
  const __m256i b = _mm256_set1_epi32(static_cast<int32_t>(base));
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi32(x, b));
  }
  for (; i < count; ++i) out[i] += base;
}

#endif  // PARJ_SIMD_AVX2

void UnpackBitsScalar(const uint64_t* words, unsigned width, size_t count,
                      uint32_t* out) {
  if (width == 0) {
    std::memset(out, 0, count * sizeof(uint32_t));
    return;
  }
  const uint64_t mask =
      width >= 32 ? 0xFFFFFFFFull : (uint64_t{1} << width) - 1;
  size_t bit = 0;
  for (size_t i = 0; i < count; ++i, bit += width) {
    const size_t word = bit >> 6;
    const unsigned off = bit & 63u;
    uint64_t v = words[word] >> off;
    if (off + width > 64) v |= words[word + 1] << (64 - off);
    out[i] = static_cast<uint32_t>(v & mask);
  }
}

void PrefixAddScalar(uint32_t* out, size_t count, uint32_t base) {
  uint32_t c = base;
  for (size_t i = 0; i < count; ++i) {
    c += out[i];
    out[i] = c;
  }
}

void ForAddScalar(uint32_t* out, size_t count, uint32_t base) {
  for (size_t i = 0; i < count; ++i) out[i] += base;
}

size_t ScanForwardStopScalar(const uint32_t* data, size_t begin, size_t end,
                             uint32_t value) {
  for (size_t i = begin; i < end; ++i) {
    if (data[i] >= value) return i;
  }
  return end - 1;
}

size_t ScanBackwardStopScalar(const uint32_t* data, size_t end0,
                              uint32_t value) {
  for (size_t i = end0; i > 0; --i) {
    if (data[i - 1] <= value) return i - 1;
  }
  return 0;
}

bool ContainsScalar(const uint32_t* data, size_t count, uint32_t value) {
  for (size_t i = 0; i < count; ++i) {
    if (data[i] == value) return true;
  }
  return false;
}

Level DetectSupportedLevel() {
#if PARJ_SIMD_AVX2
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
#if PARJ_SIMD_SSE2
  return Level::kSse2;
#else
  return Level::kScalar;
#endif
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
  }
  return "?";
}

Level CompiledLevel() {
#if PARJ_SIMD_AVX2
  return Level::kAvx2;
#elif PARJ_SIMD_SSE2
  return Level::kSse2;
#else
  return Level::kScalar;
#endif
}

Level SupportedLevel() {
  static const Level level = DetectSupportedLevel();
  return level;
}

bool ParseLevel(const char* text, Level* out) {
  if (std::strcmp(text, "scalar") == 0 || std::strcmp(text, "off") == 0) {
    *out = Level::kScalar;
    return true;
  }
  if (std::strcmp(text, "sse2") == 0) {
    *out = Level::kSse2;
    return true;
  }
  if (std::strcmp(text, "avx2") == 0) {
    *out = Level::kAvx2;
    return true;
  }
  if (std::strcmp(text, "auto") == 0) {
    *out = SupportedLevel();
    return true;
  }
  return false;
}

namespace detail {

Level InitialLevel() {
  Level level = DetectSupportedLevel();
  const char* env = std::getenv("PARJ_SIMD");
  if (env != nullptr && *env != '\0') {
    Level parsed;
    if (ParseLevel(env, &parsed) && parsed < level) level = parsed;
  }
  return level;
}

size_t ScanForwardStopBulk(const uint32_t* data, size_t begin, size_t end,
                           uint32_t value) {
  switch (ActiveLevel()) {
#if PARJ_SIMD_AVX2
    case Level::kAvx2:
      return ScanForwardStopAvx2(data, begin, end, value);
#endif
#if PARJ_SIMD_SSE2
    case Level::kSse2:
      return ScanForwardStopSse2(data, begin, end, value);
#endif
    default:
      return ScanForwardStopScalar(data, begin, end, value);
  }
}

size_t ScanBackwardStopBulk(const uint32_t* data, size_t end0,
                            uint32_t value) {
  switch (ActiveLevel()) {
#if PARJ_SIMD_AVX2
    case Level::kAvx2:
      return ScanBackwardStopAvx2(data, end0, value);
#endif
#if PARJ_SIMD_SSE2
    case Level::kSse2:
      return ScanBackwardStopSse2(data, end0, value);
#endif
    default:
      return ScanBackwardStopScalar(data, end0, value);
  }
}

bool ContainsBulk(const uint32_t* data, size_t count, uint32_t value) {
  switch (ActiveLevel()) {
#if PARJ_SIMD_AVX2
    case Level::kAvx2:
      return ContainsAvx2(data, count, value);
#endif
#if PARJ_SIMD_SSE2
    case Level::kSse2:
      return ContainsSse2(data, count, value);
#endif
    default:
      return ContainsScalar(data, count, value);
  }
}

}  // namespace detail

void UnpackBitsU32(const uint64_t* words, unsigned width, size_t count,
                   uint32_t* out) {
#if PARJ_SIMD_AVX2
  if (ActiveLevel() >= Level::kAvx2 && width >= 1 && width <= 25) {
    UnpackBitsAvx2(words, width, count, out);
    return;
  }
#endif
  UnpackBitsScalar(words, width, count, out);
}

void UnpackForU32(const uint64_t* words, unsigned width, size_t count,
                  uint32_t base, uint32_t* out) {
  UnpackBitsU32(words, width, count, out);
  switch (ActiveLevel()) {
#if PARJ_SIMD_AVX2
    case Level::kAvx2:
      ForAddAvx2(out, count, base);
      return;
#endif
#if PARJ_SIMD_SSE2
    case Level::kSse2:
      ForAddSse2(out, count, base);
      return;
#endif
    default:
      ForAddScalar(out, count, base);
      return;
  }
}

void UnpackDeltaU32(const uint64_t* words, unsigned width, size_t count,
                    uint32_t base, uint32_t* out) {
#if PARJ_SIMD_AVX2
  if (ActiveLevel() >= Level::kAvx2 && width >= 1 && width <= 7) {
    UnpackDeltaSmallAvx2(words, width, count, base, out);
    return;
  }
#endif
  UnpackBitsU32(words, width, count, out);
  switch (ActiveLevel()) {
#if PARJ_SIMD_AVX2
    case Level::kAvx2:
      PrefixAddAvx2(out, count, base);
      return;
#endif
#if PARJ_SIMD_SSE2
    case Level::kSse2:
      PrefixAddSse2(out, count, base);
      return;
#endif
    default:
      PrefixAddScalar(out, count, base);
      return;
  }
}

bool HardwareCrc32c() {
#if PARJ_SIMD_CRC32C
  static const bool cpu = __builtin_cpu_supports("sse4.2");
  return cpu && ActiveLevel() >= Level::kSse2;
#else
  return false;
#endif
}

}  // namespace parj::simd

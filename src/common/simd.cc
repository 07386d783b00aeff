#include "common/simd.h"

#if PARJ_SIMD_X86
#include <immintrin.h>
#endif

namespace parj::simd {

namespace {

#if PARJ_SIMD_X86

__attribute__((target("avx2"))) size_t ScanForwardStopAvx2(
    const uint32_t* data, size_t begin, size_t end, uint32_t value) {
  const __m256i bias = _mm256_set1_epi32(INT32_MIN);
  const __m256i vv =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int32_t>(value)), bias);
  size_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    // Lanes where data[i] < value; the first lane NOT set is the stop.
    const __m256i lt = _mm256_cmpgt_epi32(vv, _mm256_xor_si256(d, bias));
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(lt)));
    if (mask != 0xFFu) {
      return i + static_cast<size_t>(__builtin_ctz(~mask & 0xFFu));
    }
  }
  return detail::ScanForwardStopPortable(data, i, end, value);
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
    // Lanes where data[i] > value; the highest lane NOT set is the stop.
    const __m256i gt = _mm256_cmpgt_epi32(_mm256_xor_si256(d, bias), vv);
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(gt)));
    if (mask != 0xFFu) {
      const unsigned le = ~mask & 0xFFu;
      return (i - 8) + (31 - static_cast<size_t>(__builtin_clz(le)));
    }
    i -= 8;
  }
  return detail::ScanBackwardStopPortable(data, i, value);
}

#endif  // PARJ_SIMD_X86

/// True when the bulk scans run the AVX2 kernels: compiled in and
/// reported by the CPU.
bool Avx2Scans() {
#if PARJ_SIMD_X86
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2;
#else
  return false;
#endif
}

}  // namespace

const char* ScanKernelName() { return Avx2Scans() ? "avx2" : "portable"; }

namespace detail {

size_t ScanForwardStopPortable(const uint32_t* data, size_t begin,
                               size_t end, uint32_t value) {
  for (size_t i = begin; i < end; ++i) {
    if (data[i] >= value) return i;
  }
  return end - 1;
}

size_t ScanBackwardStopPortable(const uint32_t* data, size_t end0,
                                uint32_t value) {
  for (size_t i = end0; i > 0; --i) {
    if (data[i - 1] <= value) return i - 1;
  }
  return 0;
}

size_t ScanForwardStopBulk(const uint32_t* data, size_t begin, size_t end,
                           uint32_t value) {
#if PARJ_SIMD_X86
  if (Avx2Scans()) return ScanForwardStopAvx2(data, begin, end, value);
#endif
  return ScanForwardStopPortable(data, begin, end, value);
}

size_t ScanBackwardStopBulk(const uint32_t* data, size_t end0,
                            uint32_t value) {
#if PARJ_SIMD_X86
  if (Avx2Scans()) return ScanBackwardStopAvx2(data, end0, value);
#endif
  return ScanBackwardStopPortable(data, end0, value);
}

}  // namespace detail

}  // namespace parj::simd

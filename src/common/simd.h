#ifndef PARJ_COMMON_SIMD_H_
#define PARJ_COMMON_SIMD_H_

// Vectorized probe primitives for the search kernels (DESIGN.md §11).
//
// The bulk scans pick their kernel once, from cpuid: 8-lane AVX2
// compares (compiled out-of-line in simd.cc with a per-function target
// attribute) when the CPU reports AVX2, portable loops otherwise.
// ContainsU32 is a 4-lane SSE2 sweep wherever SSE2 is compiled in — it
// is part of the x86-64 baseline, so no dispatch is needed. Non-x86
// builds and -DPARJ_DISABLE_SIMD compile the portable loops alone.
//
// Every path has EXACTLY the scalar semantics — same stop position, same
// result — so the search kernels built on top produce byte-identical
// counters and cursors on every machine and build.
//
// All lane compares are UNSIGNED (TermIds use the full uint32_t range):
// x86 integer compares are signed, so both operands are biased by 2^31.

#include <cstddef>
#include <cstdint>

#if !defined(PARJ_DISABLE_SIMD) && defined(__GNUC__) && defined(__SSE2__) && \
    (defined(__x86_64__) || defined(__i386__))
#define PARJ_SIMD_X86 1
#include <emmintrin.h>
#endif

namespace parj::simd {

/// Name of the kernel the bulk scans dispatch to: "avx2" or "portable".
const char* ScanKernelName();

namespace detail {

/// Stop position of a forward sequential scan: the smallest i in
/// [begin, end) with data[i] >= value, or end - 1 when every element is
/// smaller (the scan parks on the last element). Requires begin < end.
size_t ScanForwardStopBulk(const uint32_t* data, size_t begin, size_t end,
                           uint32_t value);

/// Stop position of a backward sequential scan: the largest i in
/// [0, end0) with data[i] <= value, or 0 when every element in that range
/// is larger (the scan parks on the first element). Requires end0 > 0.
size_t ScanBackwardStopBulk(const uint32_t* data, size_t end0,
                            uint32_t value);

/// The portable loops the bulk scans fall back to, declared so tests run
/// them on any CPU.
size_t ScanForwardStopPortable(const uint32_t* data, size_t begin,
                               size_t end, uint32_t value);
size_t ScanBackwardStopPortable(const uint32_t* data, size_t end0,
                                uint32_t value);

}  // namespace detail

/// Membership test over an unordered-access (but typically short) span.
/// Semantically identical to a linear scan for equality.
inline bool ContainsU32(const uint32_t* data, size_t count, uint32_t value) {
  size_t i = 0;
#if PARJ_SIMD_X86
  const __m128i vv = _mm_set1_epi32(static_cast<int32_t>(value));
  for (; i + 4 <= count; i += 4) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    if (_mm_movemask_epi8(_mm_cmpeq_epi32(d, vv)) != 0) return true;
  }
#endif
  for (; i < count; ++i) {
    if (data[i] == value) return true;
  }
  return false;
}

}  // namespace parj::simd

#endif  // PARJ_COMMON_SIMD_H_

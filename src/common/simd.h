#ifndef PARJ_COMMON_SIMD_H_
#define PARJ_COMMON_SIMD_H_

// Vectorized scan primitives for the probe kernels (DESIGN.md §11).
//
// Three implementation tiers are compiled in, selected by a process-wide
// runtime level so tests and the CLI can force any tier on any machine:
//
//   kScalar  portable loops — the reference semantics; always available.
//   kSse2    128-bit (4-lane) compares, inlined here. SSE2 is part of the
//            x86-64 baseline, so no extra compiler flags are needed.
//   kAvx2    256-bit (8-lane) compares, compiled out-of-line in simd.cc
//            with a per-function target attribute and only dispatched to
//            when the running CPU reports AVX2. An AVX2-level scan still
//            starts in the inline SSE2 loop and only pays the call once
//            >= kAvx2Handoff elements remain, so short scans never leave
//            the caller's instruction stream.
//
// Every primitive has EXACTLY the scalar semantics whatever the level —
// same stop position, same result — so the search kernels built on top
// produce byte-identical counters and cursors across tiers; the level
// only changes how many elements are examined per instruction. Building
// with -DPARJ_DISABLE_SIMD=ON compiles the scalar tier alone (the CI
// scalar-fallback job), which must therefore be observationally
// indistinguishable from a SIMD build.
//
// All lane compares are UNSIGNED (TermIds use the full uint32_t range):
// x86 integer compares are signed, so both operands are biased by 2^31.

#include <atomic>
#include <cstddef>
#include <cstdint>

#if !defined(PARJ_DISABLE_SIMD) && (defined(__x86_64__) || defined(__i386__))
#if defined(__GNUC__) && defined(__SSE2__)
#define PARJ_SIMD_SSE2 1
#include <emmintrin.h>
// AVX2 bodies live in simd.cc behind __attribute__((target("avx2"))).
#define PARJ_SIMD_AVX2 1
#if defined(__x86_64__)
// CRC-32C on SSE4.2's crc32 instruction (common/crc32c.cc).
#define PARJ_SIMD_CRC32C 1
#endif
#endif
#endif

namespace parj::simd {

enum class Level : uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

const char* LevelName(Level level);

/// Highest tier compiled into this binary (kScalar under
/// -DPARJ_DISABLE_SIMD, kAvx2 on a normal x86-64 build).
Level CompiledLevel();

/// Highest tier this binary can actually run on this CPU (CompiledLevel
/// clamped by cpuid — AVX2 code is only dispatched to when the processor
/// reports it).
Level SupportedLevel();

/// Parses "scalar" / "sse2" / "avx2" / "auto" (auto = SupportedLevel()).
/// Returns false on unknown names.
bool ParseLevel(const char* text, Level* out);

namespace detail {

/// Startup dispatch level: SupportedLevel() clamped down by the PARJ_SIMD
/// environment variable (scalar|sse2|avx2|auto).
Level InitialLevel();

/// The process-wide dispatch level, inline so reading it costs one relaxed
/// load in the scan hot paths instead of a function call.
inline std::atomic<Level>& ActiveSlot() {
  static std::atomic<Level> slot{InitialLevel()};
  return slot;
}

/// Out-of-line bulk halves of the scans (dispatching on ActiveLevel() at
/// full width). Only worth the call for long scans; short ones are fully
/// inline below.
/// Preconditions: begin < end (forward), end0 > 0 (backward).
size_t ScanForwardStopBulk(const uint32_t* data, size_t begin, size_t end,
                           uint32_t value);
size_t ScanBackwardStopBulk(const uint32_t* data, size_t end0,
                            uint32_t value);
bool ContainsBulk(const uint32_t* data, size_t count, uint32_t value);

/// Elements scanned by the inline SSE2 loop before the remainder is
/// handed to the out-of-line widest kernel. The handoff triggers on
/// elements ALREADY SCANNED — scan length is unknowable up front — so a
/// short scan never pays a call and a long one amortizes it over at
/// least this many elements.
inline constexpr size_t kVecInline = 64;

}  // namespace detail

/// The tier the dispatching primitives currently use. Defaults to
/// SupportedLevel(), overridable at process start with PARJ_SIMD=
/// scalar|sse2|avx2 (silently clamped to SupportedLevel()).
inline Level ActiveLevel() {
  return detail::ActiveSlot().load(std::memory_order_relaxed);
}

/// Forces the dispatch tier (clamped to SupportedLevel()). Returns the
/// level actually installed. Thread-compatible: tests and the CLI set it
/// while no searches run.
inline Level SetActiveLevel(Level level) {
  if (level > SupportedLevel()) level = SupportedLevel();
  detail::ActiveSlot().store(level, std::memory_order_relaxed);
  return level;
}

/// Stop position of a forward sequential scan: the smallest i in
/// [start, n) with data[i] >= value, or n - 1 when every element is
/// smaller (the scan parks on the last element). Requires n > 0 and
/// start < n.
inline size_t ScanForwardStop(const uint32_t* data, size_t start, size_t n,
                              uint32_t value) {
  size_t i = start;
#if PARJ_SIMD_SSE2
  if (ActiveLevel() >= Level::kSse2) {
    const size_t inline_end =
        n - i > detail::kVecInline ? i + detail::kVecInline : n;
    const __m128i bias = _mm_set1_epi32(INT32_MIN);
    const __m128i vv =
        _mm_xor_si128(_mm_set1_epi32(static_cast<int32_t>(value)), bias);
    for (; i + 4 <= inline_end; i += 4) {
      const __m128i d =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
      // Lanes where data[i] < value; the first lane NOT set is the stop.
      const __m128i lt = _mm_cmpgt_epi32(vv, _mm_xor_si128(d, bias));
      const unsigned mask =
          static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(lt)));
      if (mask != 0xFu) {
        return i + static_cast<size_t>(__builtin_ctz(~mask & 0xFu));
      }
    }
    if (i + 4 <= n) return detail::ScanForwardStopBulk(data, i, n, value);
  }
#endif
  for (; i < n; ++i) {
    if (data[i] >= value) return i;
  }
  return n - 1;
}

/// Stop position of a backward sequential scan: the largest i in
/// [0, start] with data[i] <= value, or 0 when every element in that
/// range is larger (the scan parks on the first element). Requires
/// start < n of the underlying array.
inline size_t ScanBackwardStop(const uint32_t* data, size_t start,
                               uint32_t value) {
  size_t i = start + 1;  // elements [0, i) remain unexamined
#if PARJ_SIMD_SSE2
  if (ActiveLevel() >= Level::kSse2) {
    const size_t inline_stop =
        i > detail::kVecInline ? i - detail::kVecInline : 0;
    const __m128i bias = _mm_set1_epi32(INT32_MIN);
    const __m128i vv =
        _mm_xor_si128(_mm_set1_epi32(static_cast<int32_t>(value)), bias);
    while (i >= inline_stop + 4) {
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
    if (i >= 4) return detail::ScanBackwardStopBulk(data, i, value);
  }
#endif
  while (i > 0) {
    --i;
    if (data[i] <= value) return i;
  }
  return 0;
}

/// Membership test over an unordered-access (but typically short) span.
/// Semantically identical to a linear scan for equality.
inline bool ContainsU32(const uint32_t* data, size_t count, uint32_t value) {
  size_t i = 0;
#if PARJ_SIMD_SSE2
  if (ActiveLevel() >= Level::kSse2) {
    // Unlike the scans, the membership test's length is known up front:
    // long spans go straight to the widest out-of-line kernel.
    if (count > detail::kVecInline) return detail::ContainsBulk(data, count, value);
    const __m128i vv = _mm_set1_epi32(static_cast<int32_t>(value));
    for (; i + 4 <= count; i += 4) {
      const __m128i d =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
      if (_mm_movemask_epi8(_mm_cmpeq_epi32(d, vv)) != 0) return true;
    }
  }
#endif
  for (; i < count; ++i) {
    if (data[i] == value) return true;
  }
  return false;
}

// ---- Bit-packed block decode (snapshot tables, DESIGN.md §13) ----
//
// A block stores up to 128 unsigned fields of a fixed `width` (0..32 bits)
// packed LSB-first into little-endian 64-bit words with no padding between
// fields. The three decoders below reverse that packing and apply the
// block's reconstruction rule; like the scans, every tier produces
// bit-identical output (the operations are exact integer arithmetic), so
// a snapshot decodes to the same store whatever level is active.
//
// Precondition shared by all three: `count <= 128`, and `words` must stay
// readable for ceil(count*width/64) + 1 words — the AVX2 tier gathers
// 32-bit lanes at byte granularity and may read up to 3 bytes past the
// payload (PackedColumn appends one guard word).

/// Raw field extraction: out[i] = field i. width == 0 zero-fills.
void UnpackBitsU32(const uint64_t* words, unsigned width, size_t count,
                   uint32_t* out);

/// Frame-of-reference block: out[i] = base + field[i].
void UnpackForU32(const uint64_t* words, unsigned width, size_t count,
                  uint32_t base, uint32_t* out);

/// Delta block (non-decreasing data): out[i] = base + field[0] + ... +
/// field[i]. Encoders emit field[0] = 0 so out[0] == base.
void UnpackDeltaU32(const uint64_t* words, unsigned width, size_t count,
                    uint32_t base, uint32_t* out);

// ---- CRC-32C (common/crc32c) ----

/// True when CRC-32C runs on the SSE4.2 `crc32` instruction: compiled in
/// (x86-64, SIMD enabled), reported by the CPU, and the active level above
/// scalar. Forcing the scalar level selects the table-driven path.
bool HardwareCrc32c();

}  // namespace parj::simd

#endif  // PARJ_COMMON_SIMD_H_

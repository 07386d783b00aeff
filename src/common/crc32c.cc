#include "common/crc32c.h"

#include <array>
#include <cstring>

#if !defined(PARJ_DISABLE_SIMD) && defined(__GNUC__) && defined(__x86_64__)
#define PARJ_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace parj {

namespace {

/// Slicing-by-4 tables: table[0] is the classic byte-at-a-time table for
/// the reflected Castagnoli polynomial; table[k] advances a byte k extra
/// positions, so four bytes fold in with four independent lookups per
/// 32-bit word instead of four dependent ones.
constexpr uint32_t kPoly = 0x82F63B78u;

constexpr std::array<std::array<uint32_t, 256>, 4> BuildTables() {
  std::array<std::array<uint32_t, 256>, 4> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = tables[0][i];
    for (size_t k = 1; k < 4; ++k) {
      crc = tables[0][crc & 0xFFu] ^ (crc >> 8);
      tables[k][i] = crc;
    }
  }
  return tables;
}

constexpr auto kTables = BuildTables();

#if PARJ_CRC32C_SSE42
/// Eight bytes per `crc32` instruction, then the tail byte by byte; the
/// instruction applies the same reflected polynomial as the tables.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t crc, const uint8_t* p, size_t length) {
  uint64_t c = ~crc;
  for (; length >= 8; length -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  for (; length > 0; --length) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
  }
  return ~static_cast<uint32_t>(c);
}
#endif

}  // namespace

bool HardwareCrc32c() {
#if PARJ_CRC32C_SSE42
  static const bool sse42 = __builtin_cpu_supports("sse4.2");
  return sse42;
#else
  return false;
#endif
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t length) {
#if PARJ_CRC32C_SSE42
  if (HardwareCrc32c()) {
    return Crc32cExtendSse42(crc, static_cast<const uint8_t*>(data), length);
  }
#endif
  return detail::Crc32cExtendTable(crc, data, length);
}

namespace detail {

uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t length) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  while (length >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = kTables[3][crc & 0xFFu] ^ kTables[2][(crc >> 8) & 0xFFu] ^
          kTables[1][(crc >> 16) & 0xFFu] ^ kTables[0][crc >> 24];
    p += 4;
    length -= 4;
  }
  while (length-- > 0) {
    crc = kTables[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace detail

}  // namespace parj

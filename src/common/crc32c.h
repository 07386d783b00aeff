#ifndef PARJ_COMMON_CRC32C_H_
#define PARJ_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace parj {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum used by the snapshot format's per-section integrity
/// records. Runs on the SSE4.2 `crc32` instruction when the CPU reports
/// SSE4.2 (HardwareCrc32c), else on slicing-by-4 tables built at compile
/// time; both give the same checksum.
///
/// `Crc32cExtend` continues a running checksum, letting the snapshot
/// reader/writer fold bytes in as they stream past instead of buffering
/// whole sections.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t length);

inline uint32_t Crc32c(const void* data, size_t length) {
  return Crc32cExtend(0, data, length);
}

/// True when Crc32cExtend runs on the `crc32` instruction: compiled in
/// (x86-64 without -DPARJ_DISABLE_SIMD) and reported by the CPU.
bool HardwareCrc32c();

namespace detail {

/// The table-driven path, declared so tests run it on any CPU.
uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t length);

}  // namespace detail

}  // namespace parj

#endif  // PARJ_COMMON_CRC32C_H_

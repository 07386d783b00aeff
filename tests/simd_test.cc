#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/rng.h"

namespace parj {
namespace {

// A -DPARJ_DISABLE_SIMD build must run only the table-driven CRC-32C;
// any other build picks the crc32 instruction exactly when cpuid reports
// it.
TEST(SimdDispatchTest, KernelsFollowBuildAndCpu) {
#if defined(PARJ_DISABLE_SIMD)
  EXPECT_FALSE(HardwareCrc32c());
#else
  bool sse42 = false;
#if defined(__x86_64__)
  sse42 = __builtin_cpu_supports("sse4.2");
#endif
  EXPECT_EQ(HardwareCrc32c(), sse42);
#endif
}

TEST(SimdCrc32cTest, StandardVectorAtEveryLevel) {
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(detail::Crc32cExtendTable(0, "123456789", 9), 0xE3069283u);
}

// The hardware path folds whole 8-byte words, then the tail byte by byte:
// every length and start alignment must match the table-driven path,
// from a zero and a running CRC.
TEST(SimdCrc32cTest, EveryTierMatchesScalarAtEveryLengthAndAlignment) {
  Rng rng(32);
  std::vector<uint8_t> data(64 + 8);
  for (uint8_t& byte : data) byte = static_cast<uint8_t>(rng.Uniform(256));
  for (size_t start = 0; start < 8; ++start) {
    for (size_t length = 0; length <= 64; ++length) {
      for (uint32_t seed : {0u, 0xDEADBEEFu}) {
        EXPECT_EQ(Crc32cExtend(seed, data.data() + start, length),
                  detail::Crc32cExtendTable(seed, data.data() + start, length))
            << "start " << start << " length " << length;
      }
    }
  }
}

}  // namespace
}  // namespace parj

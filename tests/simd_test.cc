#include "common/simd.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/rng.h"

namespace parj::simd {
namespace {

/// The scan kernels under test: the cpuid dispatch, and the portable loops
/// it falls back to, so every build and CPU runs both.
struct ScanKernel {
  const char* name;
  size_t (*forward)(const uint32_t*, size_t, size_t, uint32_t);
  size_t (*backward)(const uint32_t*, size_t, uint32_t);
};

constexpr ScanKernel kScanKernels[] = {
    {"dispatched", detail::ScanForwardStopBulk, detail::ScanBackwardStopBulk},
    {"portable", detail::ScanForwardStopPortable,
     detail::ScanBackwardStopPortable},
};

/// Reference semantics, straight from the contract in simd.h.
size_t RefForwardStop(const std::vector<uint32_t>& a, size_t start,
                      uint32_t value) {
  for (size_t i = start; i < a.size(); ++i) {
    if (a[i] >= value) return i;
  }
  return a.size() - 1;
}

size_t RefBackwardStop(const std::vector<uint32_t>& a, size_t start,
                       uint32_t value) {
  for (size_t i = start + 1; i > 0; --i) {
    if (a[i - 1] <= value) return i - 1;
  }
  return 0;
}

// A -DPARJ_DISABLE_SIMD build must dispatch only the portable kernels;
// any other build picks AVX2 scans and the crc32 instruction exactly when
// cpuid reports them.
TEST(SimdDispatchTest, KernelsFollowBuildAndCpu) {
#if defined(PARJ_DISABLE_SIMD)
  EXPECT_STREQ(ScanKernelName(), "portable");
  EXPECT_FALSE(HardwareCrc32c());
#else
  bool avx2 = false;
  bool sse42 = false;
#if defined(__x86_64__) || defined(__i386__)
  avx2 = __builtin_cpu_supports("avx2");
#endif
#if defined(__x86_64__)
  sse42 = __builtin_cpu_supports("sse4.2");
#endif
  EXPECT_STREQ(ScanKernelName(), avx2 ? "avx2" : "portable");
  EXPECT_EQ(HardwareCrc32c(), sse42);
#endif
}

/// Random sorted arrays with extreme values, probed from random starts.
template <typename Check>
void ForEachFuzzedScan(uint64_t seed, Check check) {
  Rng rng(seed);
  for (int round = 0; round < 2000; ++round) {
    const size_t n = 1 + rng.Uniform(200);
    std::vector<uint32_t> a(n);
    for (auto& x : a) {
      const uint64_t kind = rng.Uniform(10);
      x = kind == 0 ? 0
          : kind == 1 ? UINT32_MAX
                      : static_cast<uint32_t>(rng.Next());
    }
    std::sort(a.begin(), a.end());
    const size_t start = rng.Uniform(n);
    const uint32_t v = round % 3 == 0 ? a[rng.Uniform(n)]
                                      : static_cast<uint32_t>(rng.Next());
    check(a, start, v);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// "Every level" is every scan kernel the build has: the dispatched one
// and the portable loops.
TEST(SimdScanTest, ForwardStopMatchesReferenceAtEveryLevel) {
  for (const ScanKernel& kernel : kScanKernels) {
    ForEachFuzzedScan(1, [&](const std::vector<uint32_t>& a, size_t start,
                             uint32_t v) {
      ASSERT_EQ(kernel.forward(a.data(), start, a.size(), v),
                RefForwardStop(a, start, v))
          << kernel.name << " n=" << a.size() << " start=" << start
          << " v=" << v;
    });
  }
}

TEST(SimdScanTest, BackwardStopMatchesReferenceAtEveryLevel) {
  for (const ScanKernel& kernel : kScanKernels) {
    ForEachFuzzedScan(2, [&](const std::vector<uint32_t>& a, size_t start,
                             uint32_t v) {
      ASSERT_EQ(kernel.backward(a.data(), start + 1, v),
                RefBackwardStop(a, start, v))
          << kernel.name << " n=" << a.size() << " start=" << start
          << " v=" << v;
    });
  }
}

TEST(SimdScanTest, AllEqualAndBoundaryArrays) {
  for (const ScanKernel& kernel : kScanKernels) {
    SCOPED_TRACE(kernel.name);
    // All-equal: forward stop is the start itself when value <= element.
    for (size_t n : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 64u}) {
      std::vector<uint32_t> eq(n, 1000);
      for (size_t start = 0; start < n; ++start) {
        EXPECT_EQ(kernel.forward(eq.data(), start, n, 1000), start);
        EXPECT_EQ(kernel.backward(eq.data(), start + 1, 1000), start);
        // Value above every element: forward parks on the last element.
        EXPECT_EQ(kernel.forward(eq.data(), start, n, 2000), n - 1);
        // Value below every element: backward parks on the first.
        EXPECT_EQ(kernel.backward(eq.data(), start + 1, 500), 0u);
      }
    }
  }
}

TEST(SimdScanTest, UnsignedCompareUsesFullRange) {
  // Values straddling INT32_MAX would invert under a signed compare; 16
  // elements give the 8-lane kernel two full vectors.
  std::vector<uint32_t> a = {0,           1,           2,
                             3,           4,           100,
                             0x7FFFFFF0u, 0x7FFFFFFFu, 0x80000000u,
                             0x80000001u, 0xFFFFFF00u, 0xFFFFFFF0u,
                             0xFFFFFFF1u, 0xFFFFFFF2u, 0xFFFFFFF3u,
                             0xFFFFFFFFu};
  for (const ScanKernel& kernel : kScanKernels) {
    EXPECT_EQ(kernel.forward(a.data(), 0, a.size(), 0x80000000u), 8u)
        << kernel.name;
    EXPECT_EQ(kernel.forward(a.data(), 0, a.size(), 0xFFFFFFFFu), 15u)
        << kernel.name;
    EXPECT_EQ(kernel.backward(a.data(), a.size(), 0x7FFFFFFFu), 7u)
        << kernel.name;
  }
  EXPECT_TRUE(ContainsU32(a.data(), a.size(), 0xFFFFFFFFu));
  EXPECT_FALSE(ContainsU32(a.data(), a.size(), 0xFFFFFFFEu));
}

TEST(SimdContainsTest, MatchesLinearReferenceAtEveryLevel) {
  Rng rng(3);
  for (int round = 0; round < 1000; ++round) {
    const size_t n = rng.Uniform(100);
    std::vector<uint32_t> a(n);
    for (auto& x : a) x = static_cast<uint32_t>(rng.Uniform(256));
    const uint32_t v = static_cast<uint32_t>(rng.Uniform(300));
    const bool ref = std::find(a.begin(), a.end(), v) != a.end();
    ASSERT_EQ(ContainsU32(a.data(), n, v), ref) << "n=" << n << " v=" << v;
  }
}

TEST(SimdCrc32cTest, StandardVectorAtEveryLevel) {
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(parj::detail::Crc32cExtendTable(0, "123456789", 9), 0xE3069283u);
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
                  parj::detail::Crc32cExtendTable(seed, data.data() + start,
                                                  length))
            << "start " << start << " length " << length;
      }
    }
  }
}

}  // namespace
}  // namespace parj::simd

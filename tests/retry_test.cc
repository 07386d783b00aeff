#include "server/retry.h"

#include <gtest/gtest.h>

namespace parj::server {
namespace {

TEST(RetryPolicyTest, OnlyResourceExhaustedIsRetryable) {
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::ResourceExhausted("queue")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::OK()));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::Internal("bug")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::DataLoss("crc")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::Cancelled("client")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::DeadlineExceeded("cap")));
}

TEST(RetryPolicyTest, BackoffDoublesFromOneMillisecond) {
  // nullptr rng = deterministic upper bound. Three attempts sleep only
  // before attempts 2 and 3: 1 ms, then 2 ms.
  EXPECT_EQ(RetryPolicy::kMaxAttempts, 3);
  EXPECT_DOUBLE_EQ(RetryPolicy::BackoffMillis(1, nullptr), 1.0);
  EXPECT_DOUBLE_EQ(RetryPolicy::BackoffMillis(2, nullptr), 2.0);
  EXPECT_DOUBLE_EQ(RetryPolicy::BackoffMillis(3, nullptr), 4.0);
}

TEST(RetryPolicyTest, JitterStaysInRange) {
  // Jitter 0.5 draws each sleep from [base / 2, base].
  Rng rng(123);
  for (int i = 0; i < 200; ++i) {
    const double first = RetryPolicy::BackoffMillis(1, &rng);
    EXPECT_GE(first, 0.5);
    EXPECT_LE(first, 1.0);
    const double second = RetryPolicy::BackoffMillis(2, &rng);
    EXPECT_GE(second, 1.0);
    EXPECT_LE(second, 2.0);
  }
}

}  // namespace
}  // namespace parj::server

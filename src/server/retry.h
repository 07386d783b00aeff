#ifndef PARJ_SERVER_RETRY_H_
#define PARJ_SERVER_RETRY_H_

#include "common/rng.h"
#include "common/status.h"

namespace parj::server {

/// Bounded retry with jittered exponential backoff, applied by
/// QueryServer::Execute to *transient* failures only (admission
/// rejections and injected ResourceExhausted faults). Permanent failures —
/// parse errors, data loss, cancellation, deadline expiry — are never
/// retried: retrying them cannot succeed and would double load exactly
/// when the server is struggling.
///
/// The policy is fixed: three attempts, so the only backoffs ever slept
/// are 1 ms and 2 ms, each with up to half randomized away.
struct RetryPolicy {
  /// Total attempts including the first.
  static constexpr int kMaxAttempts = 3;
  static constexpr double kInitialBackoffMillis = 1.0;
  static constexpr double kBackoffMultiplier = 2.0;
  /// Fraction of the backoff that is randomized away: the sleep is drawn
  /// uniformly from [base * (1 - jitter), base]. Jitter decorrelates
  /// retry storms from concurrent clients hitting the same full queue.
  static constexpr double kJitter = 0.5;

  /// Transient-failure predicate: only kResourceExhausted (queue full,
  /// allocation pressure) is worth another attempt.
  static bool IsRetryable(const Status& status) {
    return status.IsResourceExhausted();
  }

  /// Backoff before attempt `attempt + 1` (`attempt` is the 1-based count
  /// of *failed* attempts so far). `rng` supplies the jitter; pass nullptr
  /// for the deterministic upper bound.
  static double BackoffMillis(int attempt, Rng* rng) {
    double base = kInitialBackoffMillis;
    for (int i = 1; i < attempt; ++i) base *= kBackoffMultiplier;
    if (rng == nullptr) return base;
    return base * (1.0 - kJitter * rng->NextDouble());
  }
};

}  // namespace parj::server

#endif  // PARJ_SERVER_RETRY_H_

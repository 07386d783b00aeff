#ifndef PARJ_SERVER_CANCELLATION_H_
#define PARJ_SERVER_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace parj::server {

/// Why a query was asked to stop.
enum class CancelReason : int {
  kNone = 0,
  kCancelled = 1,         ///< client-initiated Cancel()
  kDeadlineExceeded = 2,  ///< deadline/timeout elapsed
};

namespace internal {
struct CancelState {
  std::atomic<int> reason{0};  // CancelReason, sticky once non-zero
  /// Absolute deadline as steady-clock nanoseconds since epoch;
  /// INT64_MAX = no deadline.
  std::atomic<int64_t> deadline_ns{INT64_MAX};
};
}  // namespace internal

/// Cheap copyable view of a cancellation request, checked cooperatively by
/// the executor's shard loops. A default-constructed token never fires, so
/// plumbed-through code paths pay one pointer test when serving is not in
/// use.
class CancellationToken {
 public:
  CancellationToken() = default;

  bool valid() const { return state_ != nullptr; }

  /// Flag-only check — no clock read; safe at per-tuple frequency.
  bool CancelRequested() const {
    return state_ != nullptr &&
           state_->reason.load(std::memory_order_relaxed) != 0;
  }

  /// Flag check plus deadline check (one steady_clock read when a
  /// deadline is set). Latches kDeadlineExceeded on expiry.
  bool StopRequested() const {
    if (state_ == nullptr) return false;
    if (state_->reason.load(std::memory_order_relaxed) != 0) return true;
    const int64_t deadline = state_->deadline_ns.load(std::memory_order_relaxed);
    if (deadline == INT64_MAX) return false;
    const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now().time_since_epoch())
                            .count();
    if (now < deadline) return false;
    int expected = 0;
    state_->reason.compare_exchange_strong(
        expected, static_cast<int>(CancelReason::kDeadlineExceeded),
        std::memory_order_relaxed);
    return true;
  }

  CancelReason reason() const {
    if (state_ == nullptr) return CancelReason::kNone;
    return static_cast<CancelReason>(
        state_->reason.load(std::memory_order_relaxed));
  }

  /// The Status a stopped query reports. Only meaningful after
  /// StopRequested() returned true.
  Status ToStatus() const;

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<internal::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::CancelState> state_;
};

/// Owning side of a cancellation channel: the server (or a client holding
/// the submission handle) cancels; every token cut from this source
/// observes it.
class CancellationSource {
 public:
  CancellationSource() : state_(std::make_shared<internal::CancelState>()) {}

  /// Sets an absolute steady-clock deadline.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    state_->deadline_ns.store(ToNanos(deadline), std::memory_order_relaxed);
  }

  /// Moves the deadline to `deadline` if that is earlier; never later.
  void TightenDeadline(std::chrono::steady_clock::time_point deadline) {
    const int64_t ns = ToNanos(deadline);
    int64_t current = state_->deadline_ns.load(std::memory_order_relaxed);
    while (ns < current && !state_->deadline_ns.compare_exchange_weak(
                               current, ns, std::memory_order_relaxed)) {
    }
  }

  /// Requests client-initiated cancellation (idempotent; never overrides
  /// an already-latched deadline expiry).
  void Cancel() {
    int expected = 0;
    state_->reason.compare_exchange_strong(
        expected, static_cast<int>(CancelReason::kCancelled),
        std::memory_order_relaxed);
  }

  CancellationToken token() const { return CancellationToken(state_); }

 private:
  static int64_t ToNanos(std::chrono::steady_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  std::shared_ptr<internal::CancelState> state_;
};

}  // namespace parj::server

#endif  // PARJ_SERVER_CANCELLATION_H_

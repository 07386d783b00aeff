#ifndef PARJ_SERVER_THREAD_POOL_H_
#define PARJ_SERVER_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace parj::server {

/// Fixed-size, lazily-started thread pool shared by every parallel code
/// path in the repo (query shards, exchange workers, scheduler jobs). The
/// pool itself is work-stealing-free — a plain FIFO queue plus direct
/// handoff; dynamic load balancing lives one layer up, in the join layer's
/// MorselScheduler, which worker gangs consult at morsel granularity (see
/// RunWorkers).
///
/// Threads are created on the first task submission, not at construction,
/// so merely linking the serving layer costs nothing (the paper's
/// single-query binaries keep their exact thread behaviour until they
/// submit work).
///
/// Four submission shapes:
///  - Submit(): fire-and-forget queue task (used by the query scheduler).
///  - ParallelFor(): fork-join over n independent indices. The CALLER
///    participates in the loop, claiming indices from a shared atomic
///    counter alongside the pool workers, so the call always completes
///    even when every worker is busy — nested ParallelFor (a pool-run
///    task fanning out onto the same pool) cannot deadlock.
///  - RunGang(): n members that must run CONCURRENTLY (they synchronize
///    with barriers, e.g. the exchange baseline). Members are handed
///    directly to provably idle workers; the remainder get temporary
///    overflow threads, so a gang can never deadlock waiting for pool
///    capacity held by another gang.
///  - RunWorkers(): n long-lived workers that share a work dispenser
///    (the join executor, static and morsel schedules alike). Each member must run exactly once but needs
///    no concurrency guarantee — a late worker just finds the dispenser
///    drained. Members go to idle workers by direct handoff (no queue
///    latency), any shortfall is queued, and the caller claims every
///    member no pool worker picked up, so the call never oversubscribes
///    (no overflow threads) and never deadlocks (caller participation).
class ThreadPool {
 public:
  struct Stats {
    uint64_t tasks_executed = 0;     ///< queue + direct-handoff tasks run
    uint64_t gangs_run = 0;          ///< RunGang() calls
    uint64_t overflow_threads = 0;   ///< gang members that needed a temp thread
    uint64_t worker_gangs_run = 0;   ///< RunWorkers() calls
  };

  /// `num_threads` <= 0 means hardware concurrency.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a fire-and-forget task. Starts the workers on first use.
  void Submit(std::function<void()> task);

  /// Runs body(0..n-1), each index exactly once, returning when all are
  /// done. The caller claims indices too — safe to call from inside a
  /// pool task.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// Runs member(0..n-1) with all n members guaranteed to be running
  /// concurrently (barrier-safe). The caller runs member 0.
  void RunGang(int n, const std::function<void(int)>& member);

  /// Runs member(0..n-1), each exactly once, with as many members as the
  /// pool has idle capacity for running concurrently and the rest run by
  /// the caller. Built for dispenser-sharing worker gangs: members must
  /// not synchronize with each other (no barriers — use RunGang for
  /// that). Safe to call from inside a pool task.
  void RunWorkers(int n, const std::function<void(int)>& member);

  int thread_count() const { return num_threads_; }
  bool started() const;
  Stats stats() const;

  /// The process-wide pool (lazily started, intentionally never
  /// destroyed so detached users at exit stay valid).
  static ThreadPool& Shared();

 private:
  /// Per-worker direct-handoff slot (guarded by mu_).
  struct Worker {
    std::function<void()> direct;
    bool has_direct = false;
  };

  void EnsureStartedLocked();
  void WorkerLoop(size_t index);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<size_t> idle_;  ///< indices of workers parked in cv_.wait
  std::vector<std::thread> threads_;
  int num_threads_;
  bool started_ = false;
  bool stop_ = false;
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> gangs_run_{0};
  std::atomic<uint64_t> overflow_threads_{0};
  std::atomic<uint64_t> worker_gangs_run_{0};
};

}  // namespace parj::server

#endif  // PARJ_SERVER_THREAD_POOL_H_

#include "mutable/compactor.h"

#include "server/thread_pool.h"

namespace parj::mut {

Compactor::Compactor(DeltaStore* store, server::ThreadPool* pool,
                     CompactorOptions options)
    : store_(store), pool_(pool), options_(options) {}

Compactor::~Compactor() { Wait(); }

bool Compactor::Trigger() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    return false;
  }
  pool_->Submit([this] { RunOnce(); });
  return true;
}

void Compactor::MaybeTrigger() {
  if (options_.auto_compact_delta_triples == 0) return;
  const MutationStats stats = store_->stats();
  if (stats.delta_insert_triples + stats.delta_delete_triples <
      options_.auto_compact_delta_triples) {
    return;
  }
  Trigger();
}

void Compactor::RunOnce() {
  Status status = store_->Compact();
  // A concurrent manual Compact() owning the store guard is not a
  // failure of this driver; record everything else.
  // running_ flips under mu_ so Wait()'s predicate check cannot miss
  // the wakeup. The notify stays under mu_ too: once Wait() can see
  // running_ == false, ~Compactor may destroy done_cv_.
  std::lock_guard<std::mutex> lock(mu_);
  last_status_ = std::move(status);
  runs_.fetch_add(1, std::memory_order_relaxed);
  running_.store(false, std::memory_order_release);
  done_cv_.notify_all();
}

void Compactor::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return !running(); });
}

Status Compactor::last_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_status_;
}

}  // namespace parj::mut

#ifndef PARJ_JOIN_MORSEL_H_
#define PARJ_JOIN_MORSEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace parj::join {

/// One contiguous slice [begin, end) of the first step's work source
/// (key positions for a variable first key, value-run positions for a
/// constant one). Morsels are cut cost-balanced — by cumulative run
/// length from the CSR offsets, not by key count — so a skewed property
/// table still yields morsels of roughly equal work.
struct Morsel {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Per-worker tallies of dynamic morsel execution, merged into
/// ExecResult::morsel_workers.
struct MorselWorkerStats {
  uint64_t morsels = 0;  ///< morsels this worker executed
  uint64_t stolen = 0;   ///< of those, claimed from another worker's queue
  uint64_t items = 0;    ///< first-step work items (keys or run values)
  uint64_t rows = 0;     ///< result rows this worker produced
};

/// Lock-free dispenser behind the morsel-driven executor (DESIGN.md §8).
///
/// The fixed morsel list is partitioned into per-worker local queues of
/// contiguous morsel index ranges (preserving the paper's sequential key
/// order within a worker as long as no stealing happens). Each queue is a
/// cache-line-aligned atomic cursor; a worker pops from its own queue with
/// one fetch_add, and when it drains, scans the other queues and steals
/// from the first non-empty one the same way. Every morsel is claimed
/// exactly once; claiming is wait-free, and there is no communication at
/// tuple granularity — the paper's zero-communication pipeline is intact
/// *within* each morsel.
///
/// With `steal` off a worker only ever drains its own queue. One morsel
/// per worker with stealing off is the paper's §3 static schedule: worker
/// w runs exactly shard w.
class MorselScheduler {
 public:
  MorselScheduler(std::vector<Morsel> morsels, size_t num_workers,
                  bool steal = true);

  MorselScheduler(const MorselScheduler&) = delete;
  MorselScheduler& operator=(const MorselScheduler&) = delete;

  /// Claims the next morsel for `worker`: its own queue first, then — once
  /// that drains and stealing is on — a round-robin steal sweep over the
  /// other queues. Returns false when no queue it may claim from has a
  /// morsel left. `*stolen` reports whether the morsel came from a
  /// foreign queue.
  bool Next(size_t worker, Morsel* out, bool* stolen);

  size_t morsel_count() const { return morsels_.size(); }
  size_t worker_count() const { return num_workers_; }

  /// Builds `parts` equal-count morsels over [begin, end) — the cut used
  /// for constant-key value runs, where every item costs one downstream
  /// pipeline descent. For key ranges use TableReplica::CostBalancedSplit
  /// and MorselsFromCuts instead.
  static std::vector<Morsel> EqualSplit(size_t begin, size_t end,
                                        size_t parts);

  /// Converts the cut-position form (size parts+1, as returned by
  /// CostBalancedSplit) into morsels, dropping empty ranges.
  static std::vector<Morsel> MorselsFromCuts(const std::vector<size_t>& cuts);

 private:
  /// One worker's local queue: morsel indices [next, end). Aligned so
  /// neighbouring workers' cursors never share a cache line.
  struct alignas(64) LocalQueue {
    std::atomic<uint64_t> next{0};
    uint64_t end = 0;
  };

  std::vector<Morsel> morsels_;
  std::unique_ptr<LocalQueue[]> queues_;
  size_t num_workers_ = 1;
  bool steal_ = true;
};

}  // namespace parj::join

#endif  // PARJ_JOIN_MORSEL_H_

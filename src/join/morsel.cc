#include "join/morsel.h"

#include <algorithm>

#include "common/logging.h"

namespace parj::join {

MorselScheduler::MorselScheduler(std::vector<Morsel> morsels,
                                 size_t num_workers, bool steal)
    : morsels_(std::move(morsels)),
      num_workers_(std::max<size_t>(1, num_workers)),
      steal_(steal) {
  queues_.reset(new LocalQueue[num_workers_]);
  const size_t n = morsels_.size();
  for (size_t w = 0; w < num_workers_; ++w) {
    queues_[w].next.store(n * w / num_workers_, std::memory_order_relaxed);
    queues_[w].end = n * (w + 1) / num_workers_;
  }
}

bool MorselScheduler::Next(size_t worker, Morsel* out, bool* stolen) {
  PARJ_DCHECK(worker < num_workers_);
  LocalQueue& own = queues_[worker];
  // Own queue: a single uncontended-in-the-common-case fetch_add. Claiming
  // past `end` is harmless (the index is simply not handed out), so no CAS
  // loop is needed.
  if (own.next.load(std::memory_order_relaxed) < own.end) {
    const uint64_t i = own.next.fetch_add(1, std::memory_order_relaxed);
    if (i < own.end) {
      *out = morsels_[i];
      *stolen = false;
      return true;
    }
  }
  if (!steal_) return false;
  // Steal sweep, starting at the right-hand neighbour so thieves spread
  // out instead of all raiding queue 0.
  for (size_t k = 1; k < num_workers_; ++k) {
    LocalQueue& victim = queues_[(worker + k) % num_workers_];
    if (victim.next.load(std::memory_order_relaxed) >= victim.end) continue;
    const uint64_t i = victim.next.fetch_add(1, std::memory_order_relaxed);
    if (i < victim.end) {
      *out = morsels_[i];
      *stolen = true;
      return true;
    }
  }
  return false;
}

std::vector<Morsel> MorselScheduler::EqualSplit(size_t begin, size_t end,
                                                size_t parts) {
  std::vector<Morsel> morsels;
  if (begin >= end) return morsels;
  parts = std::clamp<size_t>(parts, 1, end - begin);
  morsels.reserve(parts);
  const size_t size = end - begin;
  for (size_t p = 0; p < parts; ++p) {
    Morsel m;
    m.begin = begin + size * p / parts;
    m.end = begin + size * (p + 1) / parts;
    if (m.begin < m.end) morsels.push_back(m);
  }
  return morsels;
}

std::vector<Morsel> MorselScheduler::MorselsFromCuts(
    const std::vector<size_t>& cuts) {
  std::vector<Morsel> morsels;
  if (cuts.size() < 2) return morsels;
  morsels.reserve(cuts.size() - 1);
  for (size_t k = 0; k + 1 < cuts.size(); ++k) {
    if (cuts[k] < cuts[k + 1]) morsels.push_back({cuts[k], cuts[k + 1]});
  }
  return morsels;
}

}  // namespace parj::join

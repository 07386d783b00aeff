#include "storage/property_table.h"

#include <algorithm>

#include "common/logging.h"

namespace parj::storage {

TableReplica TableReplica::Build(
    std::vector<std::pair<TermId, TermId>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  TableReplica replica;
  replica.values_.reserve(pairs.size());
  size_t i = 0;
  while (i < pairs.size()) {
    TermId key = pairs[i].first;
    replica.keys_.push_back(key);
    replica.offsets_.push_back(replica.values_.size());
    while (i < pairs.size() && pairs[i].first == key) {
      replica.values_.push_back(pairs[i].second);
      ++i;
    }
  }
  replica.offsets_.push_back(replica.values_.size());
  if (replica.keys_.empty()) {
    // Keep the sentinel invariant offsets_.size() == keys_.size() + 1.
    replica.offsets_.assign(1, 0);
  }
  replica.keys_.shrink_to_fit();
  replica.offsets_.shrink_to_fit();
  replica.values_.shrink_to_fit();
  return replica;
}

double TableReplica::AverageKeyGap() const {
  const size_t n = key_count();
  if (n < 2 || max_key() <= min_key()) return 1.0;
  return static_cast<double>(max_key() - min_key()) / static_cast<double>(n);
}

std::vector<size_t> TableReplica::CostBalancedSplit(size_t begin, size_t end,
                                                    size_t parts) const {
  PARJ_DCHECK(begin <= end && end + 1 <= offsets_.size());
  if (parts == 0) parts = 1;
  std::vector<size_t> cuts(parts + 1, end);
  cuts[0] = begin;
  const uint64_t base = offsets_[begin];
  const uint64_t total = offsets_[end] - base;
  for (size_t k = 1; k < parts; ++k) {
    // First key position whose cumulative cost reaches share k/parts.
    const uint64_t target = base + total * k / parts;
    auto it = std::lower_bound(offsets_.begin() + begin, offsets_.begin() + end,
                               target);
    size_t pos = static_cast<size_t>(it - offsets_.begin());
    cuts[k] = std::clamp(pos, cuts[k - 1], end);
  }
  return cuts;
}

size_t TableReplica::FindKey(TermId key) const {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return SIZE_MAX;
  return static_cast<size_t>(it - keys_.begin());
}

bool TableReplica::RunContains(size_t key_index, TermId value) const {
  const std::span<const TermId> run = Run(key_index);
  return std::binary_search(run.begin(), run.end(), value);
}

PropertyTable PropertyTable::Build(
    std::vector<std::pair<TermId, TermId>> subject_object_pairs) {
  PropertyTable table;
  std::vector<std::pair<TermId, TermId>> reversed;
  reversed.reserve(subject_object_pairs.size());
  for (const auto& [s, o] : subject_object_pairs) {
    reversed.emplace_back(o, s);
  }
  table.so_ = TableReplica::Build(std::move(subject_object_pairs));
  table.os_ = TableReplica::Build(std::move(reversed));
  return table;
}

}  // namespace parj::storage

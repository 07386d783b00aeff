#include "storage/property_table.h"

#include <algorithm>
#include <string>

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

namespace {

Status CheckId(TermId id, TermId max_id, const char* what) {
  if (id == kInvalidTermId || id > max_id) {
    return Status::InvalidArgument(std::string(what) + " id " +
                                   std::to_string(id) + " outside [1, " +
                                   std::to_string(max_id) + "]");
  }
  return Status::OK();
}

/// The FromSortedRuns contract. Checks each offset against values.size()
/// before reading the run it delimits, so no input indexes out of bounds.
Status ValidateSortedRuns(const SortedRuns& so, TermId max_id) {
  if (so.offsets.size() != so.keys.size() + 1 || so.offsets.front() != 0 ||
      so.offsets.back() != so.values.size()) {
    return Status::InvalidArgument("S-O offsets do not cover the values");
  }
  for (size_t k = 0; k < so.keys.size(); ++k) {
    PARJ_RETURN_NOT_OK(CheckId(so.keys[k], max_id, "subject"));
    if (k > 0 && so.keys[k] <= so.keys[k - 1]) {
      return Status::InvalidArgument("S-O keys not strictly increasing at " +
                                     std::to_string(k));
    }
    const uint64_t begin = so.offsets[k];
    const uint64_t end = so.offsets[k + 1];
    if (end <= begin || end > so.values.size()) {
      return Status::InvalidArgument("S-O run " + std::to_string(k) +
                                     " is empty or out of bounds");
    }
    for (uint64_t i = begin; i < end; ++i) {
      PARJ_RETURN_NOT_OK(CheckId(so.values[i], max_id, "object"));
      if (i > begin && so.values[i] <= so.values[i - 1]) {
        return Status::InvalidArgument("S-O run " + std::to_string(k) +
                                       " not strictly increasing");
      }
    }
  }
  return Status::OK();
}

}  // namespace

PropertyTable PropertyTable::Build(
    std::vector<std::pair<TermId, TermId>> subject_object_pairs) {
  PropertyTable table;
  table.so_ = TableReplica::Build(std::move(subject_object_pairs));
  table.TransposeSubjectObject();
  return table;
}

Result<PropertyTable> PropertyTable::FromSortedRuns(SortedRuns so,
                                                    TermId max_id) {
  PARJ_RETURN_NOT_OK(ValidateSortedRuns(so, max_id));
  PropertyTable table;
  table.so_.keys_ = std::move(so.keys);
  table.so_.offsets_ = std::move(so.offsets);
  table.so_.values_ = std::move(so.values);
  table.so_.keys_.shrink_to_fit();
  table.so_.offsets_.shrink_to_fit();
  table.so_.values_.shrink_to_fit();
  table.TransposeSubjectObject();
  return table;
}

PropertyTable PropertyTable::Clone() const {
  PropertyTable copy;
  copy.so_.keys_ = so_.keys_;
  copy.so_.offsets_ = so_.offsets_;
  copy.so_.values_ = so_.values_;
  copy.os_.keys_ = os_.keys_;
  copy.os_.offsets_ = os_.offsets_;
  copy.os_.values_ = os_.values_;
  return copy;
}

void PropertyTable::TransposeSubjectObject() {
  const std::span<const TermId> objects = so_.values();
  const size_t n = objects.size();
  TableReplica& os = os_;
  os.values_.resize(n);
  if (n == 0) {
    os.offsets_.assign(1, 0);
    return;
  }
  const auto [lo_it, hi_it] = std::minmax_element(objects.begin(),
                                                  objects.end());
  const TermId lo = *lo_it;
  const uint64_t range = static_cast<uint64_t>(*hi_it) - lo + 1;

  if (range <= 2 * static_cast<uint64_t>(n) + 256) {
    // Dense objects: one counting pass over [lo, hi]. slot[i] ends up as
    // the write cursor of object lo + i.
    std::vector<uint64_t> slot(range + 1, 0);
    for (const TermId o : objects) ++slot[o - lo + 1];
    size_t distinct = 0;
    for (uint64_t i = 1; i <= range; ++i) distinct += slot[i] != 0;
    os.keys_.reserve(distinct);
    os.offsets_.reserve(distinct + 1);
    uint64_t running = 0;
    for (uint64_t i = 0; i < range; ++i) {
      const uint64_t count = slot[i + 1];
      if (count != 0) {
        os.keys_.push_back(static_cast<TermId>(lo + i));
        os.offsets_.push_back(running);
      }
      slot[i] = running;
      running += count;
    }
    os.offsets_.push_back(n);
    for (size_t k = 0; k < so_.key_count(); ++k) {
      const TermId s = so_.keys_[k];
      for (const TermId o : so_.Run(k)) os.values_[slot[o - lo]++] = s;
    }
    return;
  }

  // Sparse objects: a stable LSD radix sort of (object - lo, subject) in
  // S-O order, 8- or 16-bit digits, so the counters stay small for a
  // wide ID range. Stability keeps each object's subjects ascending.
  const unsigned digit_bits = n < (size_t{1} << 16) ? 8 : 16;
  const uint64_t digit_mask = (uint64_t{1} << digit_bits) - 1;
  std::vector<uint64_t> pairs(n);
  std::vector<uint64_t> scratch(n);
  size_t i = 0;
  for (size_t k = 0; k < so_.key_count(); ++k) {
    const uint64_t s = so_.keys_[k];
    for (const TermId o : so_.Run(k)) {
      pairs[i++] = (static_cast<uint64_t>(o - lo) << 32) | s;
    }
  }
  std::vector<uint64_t> bucket(digit_mask + 2);
  for (unsigned shift = 0; ((range - 1) >> shift) != 0;
       shift += digit_bits) {
    std::fill(bucket.begin(), bucket.end(), 0);
    for (const uint64_t p : pairs) {
      ++bucket[((p >> (32 + shift)) & digit_mask) + 1];
    }
    for (size_t b = 1; b < bucket.size(); ++b) bucket[b] += bucket[b - 1];
    for (const uint64_t p : pairs) {
      scratch[bucket[(p >> (32 + shift)) & digit_mask]++] = p;
    }
    pairs.swap(scratch);
  }
  scratch = {};
  size_t distinct = 0;
  for (i = 0; i < n; ++i) {
    distinct += i == 0 || (pairs[i] >> 32) != (pairs[i - 1] >> 32);
  }
  os.keys_.reserve(distinct);
  os.offsets_.reserve(distinct + 1);
  for (i = 0; i < n; ++i) {
    if (i == 0 || (pairs[i] >> 32) != (pairs[i - 1] >> 32)) {
      os.keys_.push_back(static_cast<TermId>(lo + (pairs[i] >> 32)));
      os.offsets_.push_back(i);
    }
    os.values_[i] = static_cast<TermId>(pairs[i]);
  }
  os.offsets_.push_back(n);
}

}  // namespace parj::storage

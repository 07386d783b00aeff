#ifndef PARJ_MUTABLE_DELTA_VIEW_H_
#define PARJ_MUTABLE_DELTA_VIEW_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "dict/term_table.h"
#include "rdf/term.h"
#include "storage/property_table.h"

/// Live mutability (DESIGN.md §12). `mutable` is a C++ keyword, so the
/// directory src/mutable/ maps to namespace parj::mut.
namespace parj::mut {

/// One property's pending writes, stored in the exact layout the join
/// kernels already understand: two PropertyTables (each with S-O and O-S
/// replicas) holding the inserted and the deleted (subject, object) pairs.
/// Invariants maintained by the DeltaStore:
///   inserts ∩ base = ∅   (inserting a present triple is a no-op)
///   deletes ⊆ base       (removing an absent triple is a no-op;
///                         removing a pending insert just drops it)
/// so merged membership is (base ∧ ¬deletes) ∨ inserts and the two delta
/// sides are disjoint.
struct PropertyDelta {
  storage::PropertyTable inserts;
  storage::PropertyTable deletes;

  bool empty() const {
    return inserts.triple_count() == 0 && deletes.triple_count() == 0;
  }
  size_t MemoryUsage() const {
    return inserts.MemoryUsage() + deletes.MemoryUsage();
  }
};

/// Immutable snapshot of the terms allocated past a base dictionary: new
/// resources get IDs base_resource_count+1.., new predicates likewise, in
/// first-seen order. Each term is stored once, as its canonical key, in a
/// dict::TermTable whose table ID is the overlay ID minus the base count.
/// Readers (query encode, row decode) probe the overlay after missing in
/// the base dictionary; because IDs are append-only and never reassigned,
/// an ID decoded against any later overlay of the same store decodes to
/// the same term.
class TermOverlay {
 public:
  TermOverlay(TermId base_resources, PredicateId base_predicates)
      : base_resources_(base_resources), base_predicates_(base_predicates) {}

  TermOverlay(const TermOverlay& other)
      : base_resources_(other.base_resources_),
        base_predicates_(other.base_predicates_),
        resources_(other.resources_.Clone()),
        predicates_(other.predicates_.Clone()) {}
  TermOverlay(TermOverlay&&) = default;

  /// Appends `term` if absent; returns its overlay ID either way.
  TermId AddResource(const rdf::Term& term);
  PredicateId AddPredicate(const rdf::Term& term);

  /// Overlay-only lookups: kInvalidTermId / kInvalidPredicateId when the
  /// term was never allocated here (the base dictionary is probed first
  /// by callers).
  TermId LookupResource(const rdf::Term& term) const;
  PredicateId LookupPredicate(const rdf::Term& term) const;

  /// An overlay term's canonical key (its N-Triples form); empty for IDs
  /// at or below the base count (the base dictionary owns those) or past
  /// the overlay.
  std::string_view ResourceKey(TermId id) const;
  std::string_view PredicateKey(PredicateId id) const;

  TermId base_resource_count() const { return base_resources_; }
  PredicateId base_predicate_count() const { return base_predicates_; }
  TermId resource_count() const { return base_resources_ + resources_.size(); }
  PredicateId predicate_count() const {
    return base_predicates_ + predicates_.size();
  }

  /// Overlay keys in allocation order (table ID i is overlay ID
  /// base_count + i) — the order compaction folds them into the next base
  /// dictionary, which is what keeps every previously handed-out ID
  /// stable.
  const dict::TermTable& resource_keys() const { return resources_; }
  const dict::TermTable& predicate_keys() const { return predicates_; }

  bool empty() const { return resources_.empty() && predicates_.empty(); }

  size_t MemoryUsage() const {
    return resources_.MemoryUsage() + predicates_.MemoryUsage();
  }

 private:
  TermId base_resources_;
  PredicateId base_predicates_;
  dict::TermTable resources_;
  dict::TermTable predicates_;
};

/// An immutable, shareable view of every pending write at one publish
/// point: per-predicate PropertyDeltas plus the term overlay. A DeltaView
/// is built by the DeltaStore under its writer lock and then never
/// mutated, so any number of query threads read it without
/// synchronization; properties untouched by a batch share their
/// PropertyDelta with the previous view.
class DeltaView {
 public:
  /// An empty view over a base with the given term counts (epoch 0 state).
  DeltaView(TermId base_resources, PredicateId base_predicates)
      : overlay_(std::make_shared<TermOverlay>(base_resources,
                                               base_predicates)) {}

  DeltaView(std::vector<std::shared_ptr<const PropertyDelta>> props,
            std::shared_ptr<const TermOverlay> overlay, uint64_t sequence);

  /// Pending writes for predicate `pid`, or nullptr when it has none.
  /// Valid for any pid, including predicates past the base database's
  /// entry array (delta-only predicates).
  const PropertyDelta* Find(PredicateId pid) const {
    if (pid == 0 || static_cast<size_t>(pid) > props_.size()) return nullptr;
    const PropertyDelta* d = props_[pid - 1].get();
    return (d == nullptr || d->empty()) ? nullptr : d;
  }

  const TermOverlay& overlay() const { return *overlay_; }

  /// Monotone write-batch sequence number this view reflects.
  uint64_t sequence() const { return sequence_; }

  uint64_t insert_triples() const { return insert_triples_; }
  uint64_t delete_triples() const { return delete_triples_; }
  uint64_t delta_triples() const { return insert_triples_ + delete_triples_; }
  bool empty() const { return delta_triples() == 0 && overlay_->empty(); }

  /// Heap bytes of the delta tables + overlay terms (the delta_bytes
  /// serving gauge).
  size_t DeltaBytes() const { return delta_bytes_; }

  size_t property_count() const { return props_.size(); }

 private:
  // index = predicate id - 1; entries may be null (no pending writes).
  std::vector<std::shared_ptr<const PropertyDelta>> props_;
  std::shared_ptr<const TermOverlay> overlay_;
  uint64_t sequence_ = 0;
  uint64_t insert_triples_ = 0;
  uint64_t delete_triples_ = 0;
  size_t delta_bytes_ = 0;
};

}  // namespace parj::mut

#endif  // PARJ_MUTABLE_DELTA_VIEW_H_

#include "mutable/delta_view.h"

#include "dict/dictionary.h"

namespace parj::mut {

namespace {

/// Canonical dictionary key for `term` in the per-thread reuse buffer
/// (same keying as dict::Dictionary, so base and overlay agree on term
/// identity).
std::string_view KeyFor(const rdf::Term& term) {
  std::string& buf = dict::internal::TlsKeyBuffer();
  buf.clear();
  term.AppendDictionaryKey(&buf);
  return buf;
}

}  // namespace

TermId TermOverlay::AddResource(const rdf::Term& term) {
  return base_resources_ + resources_.FindOrInsert(KeyFor(term));
}

PredicateId TermOverlay::AddPredicate(const rdf::Term& term) {
  return base_predicates_ + predicates_.FindOrInsert(KeyFor(term));
}

TermId TermOverlay::LookupResource(const rdf::Term& term) const {
  const uint32_t local = resources_.Find(KeyFor(term));
  return local == 0 ? kInvalidTermId : base_resources_ + local;
}

PredicateId TermOverlay::LookupPredicate(const rdf::Term& term) const {
  const uint32_t local = predicates_.Find(KeyFor(term));
  return local == 0 ? kInvalidPredicateId : base_predicates_ + local;
}

std::string_view TermOverlay::ResourceKey(TermId id) const {
  if (id <= base_resources_ || id > resource_count()) return {};
  return resources_.Key(id - base_resources_);
}

std::string_view TermOverlay::PredicateKey(PredicateId id) const {
  if (id <= base_predicates_ || id > predicate_count()) return {};
  return predicates_.Key(id - base_predicates_);
}

DeltaView::DeltaView(std::vector<std::shared_ptr<const PropertyDelta>> props,
                     std::shared_ptr<const TermOverlay> overlay,
                     uint64_t sequence)
    : props_(std::move(props)),
      overlay_(std::move(overlay)),
      sequence_(sequence) {
  delta_bytes_ = overlay_->MemoryUsage();
  for (const auto& d : props_) {
    if (d == nullptr) continue;
    insert_triples_ += d->inserts.triple_count();
    delete_triples_ += d->deletes.triple_count();
    delta_bytes_ += d->MemoryUsage();
  }
}

}  // namespace parj::mut

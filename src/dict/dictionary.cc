#include "dict/dictionary.h"

#include <utility>

#include "common/logging.h"

namespace parj::dict {

namespace internal {

std::string& TlsKeyBuffer() {
  thread_local std::string buffer;
  return buffer;
}

}  // namespace internal

namespace {

/// Builds `term`'s canonical key in the thread-local scratch buffer and
/// returns a view of it (valid until the next call on this thread).
std::string_view ScratchKey(const rdf::Term& term) {
  std::string& key = internal::TlsKeyBuffer();
  key.clear();
  term.AppendDictionaryKey(&key);
  return key;
}

}  // namespace

Dictionary Dictionary::Clone() const {
  Dictionary copy;
  copy.resources_ = resources_;
  copy.predicates_ = predicates_;
  copy.resource_ids_ = resource_ids_;
  copy.predicate_ids_ = predicate_ids_;
  return copy;
}

void Dictionary::Reserve(size_t resources, size_t predicates) {
  resources_.reserve(resources);
  predicates_.reserve(predicates);
  resource_ids_.reserve(resources);
  predicate_ids_.reserve(predicates);
}

TermId Dictionary::EncodeResource(const rdf::Term& term) {
  const std::string_view key = ScratchKey(term);
  auto it = resource_ids_.find(key);
  if (it != resource_ids_.end()) return it->second;  // hit: no allocation
  resources_.push_back(term);
  TermId id = static_cast<TermId>(resources_.size());
  resource_ids_.emplace(std::string(key), id);
  return id;
}

TermId Dictionary::EncodeResource(rdf::Term&& term) {
  const std::string_view key = ScratchKey(term);
  auto it = resource_ids_.find(key);
  if (it != resource_ids_.end()) return it->second;
  resources_.push_back(std::move(term));
  TermId id = static_cast<TermId>(resources_.size());
  resource_ids_.emplace(std::string(key), id);
  return id;
}

PredicateId Dictionary::EncodePredicate(const rdf::Term& term) {
  const std::string_view key = ScratchKey(term);
  auto it = predicate_ids_.find(key);
  if (it != predicate_ids_.end()) return it->second;
  predicates_.push_back(term);
  PredicateId id = static_cast<PredicateId>(predicates_.size());
  predicate_ids_.emplace(std::string(key), id);
  return id;
}

PredicateId Dictionary::EncodePredicate(rdf::Term&& term) {
  const std::string_view key = ScratchKey(term);
  auto it = predicate_ids_.find(key);
  if (it != predicate_ids_.end()) return it->second;
  predicates_.push_back(std::move(term));
  PredicateId id = static_cast<PredicateId>(predicates_.size());
  predicate_ids_.emplace(std::string(key), id);
  return id;
}

TermId Dictionary::LookupResource(const rdf::Term& term) const {
  return LookupResourceByKey(ScratchKey(term));
}

PredicateId Dictionary::LookupPredicate(const rdf::Term& term) const {
  return LookupPredicateByKey(ScratchKey(term));
}

TermId Dictionary::LookupResourceByKey(std::string_view key) const {
  auto it = resource_ids_.find(key);
  return it == resource_ids_.end() ? kInvalidTermId : it->second;
}

PredicateId Dictionary::LookupPredicateByKey(std::string_view key) const {
  auto it = predicate_ids_.find(key);
  return it == predicate_ids_.end() ? kInvalidPredicateId : it->second;
}

const rdf::Term& Dictionary::DecodeResource(TermId id) const {
  PARJ_CHECK(id != kInvalidTermId && id <= resources_.size())
      << "resource id out of range: " << id;
  return resources_[id - 1];
}

const rdf::Term& Dictionary::DecodePredicate(PredicateId id) const {
  PARJ_CHECK(id != kInvalidPredicateId && id <= predicates_.size())
      << "predicate id out of range: " << id;
  return predicates_[id - 1];
}

EncodedTriple Dictionary::Encode(const rdf::Triple& triple) {
  EncodedTriple out;
  out.subject = EncodeResource(triple.subject);
  out.predicate = EncodePredicate(triple.predicate);
  out.object = EncodeResource(triple.object);
  return out;
}

Result<EncodedTriple> Dictionary::EncodeExisting(
    const rdf::Triple& triple) const {
  EncodedTriple out;
  out.subject = LookupResource(triple.subject);
  out.predicate = LookupPredicate(triple.predicate);
  out.object = LookupResource(triple.object);
  if (out.subject == kInvalidTermId) {
    return Status::NotFound("subject not in dictionary: " +
                            triple.subject.ToNTriples());
  }
  if (out.predicate == kInvalidPredicateId) {
    return Status::NotFound("predicate not in dictionary: " +
                            triple.predicate.ToNTriples());
  }
  if (out.object == kInvalidTermId) {
    return Status::NotFound("object not in dictionary: " +
                            triple.object.ToNTriples());
  }
  return out;
}

rdf::Triple Dictionary::Decode(const EncodedTriple& triple) const {
  return rdf::Triple{DecodeResource(triple.subject),
                     DecodePredicate(triple.predicate),
                     DecodeResource(triple.object)};
}

size_t Dictionary::MemoryUsage() const {
  size_t bytes = 0;
  auto term_bytes = [](const rdf::Term& t) {
    return sizeof(rdf::Term) + t.lexical().capacity() +
           t.datatype().capacity() + t.lang().capacity();
  };
  for (const auto& t : resources_) bytes += term_bytes(t);
  for (const auto& t : predicates_) bytes += term_bytes(t);
  for (const auto& [k, v] : resource_ids_) {
    bytes += k.capacity() + sizeof(v) + 32;  // bucket overhead estimate
  }
  for (const auto& [k, v] : predicate_ids_) {
    bytes += k.capacity() + sizeof(v) + 32;
  }
  return bytes;
}

}  // namespace parj::dict

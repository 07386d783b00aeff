#include "dict/dictionary.h"

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
  copy.resources_ = resources_.Clone();
  copy.predicates_ = predicates_.Clone();
  return copy;
}

void Dictionary::Reserve(size_t resources, size_t predicates,
                         size_t resource_key_bytes,
                         size_t predicate_key_bytes) {
  resources_.Reserve(resources, resource_key_bytes);
  predicates_.Reserve(predicates, predicate_key_bytes);
}

TermId Dictionary::EncodeResource(const rdf::Term& term) {
  return resources_.FindOrInsert(ScratchKey(term));
}

PredicateId Dictionary::EncodePredicate(const rdf::Term& term) {
  return predicates_.FindOrInsert(ScratchKey(term));
}

TermId Dictionary::LookupResource(const rdf::Term& term) const {
  return resources_.Find(ScratchKey(term));
}

PredicateId Dictionary::LookupPredicate(const rdf::Term& term) const {
  return predicates_.Find(ScratchKey(term));
}

std::string_view Dictionary::ResourceKey(TermId id) const {
  PARJ_CHECK(id != kInvalidTermId && id <= resources_.size())
      << "resource id out of range: " << id;
  return resources_.Key(id);
}

std::string_view Dictionary::PredicateKey(PredicateId id) const {
  PARJ_CHECK(id != kInvalidPredicateId && id <= predicates_.size())
      << "predicate id out of range: " << id;
  return predicates_.Key(id);
}

rdf::Term Dictionary::DecodeResource(TermId id) const {
  return TermFromKey(ResourceKey(id));
}

rdf::Term Dictionary::DecodePredicate(PredicateId id) const {
  return TermFromKey(PredicateKey(id));
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

}  // namespace parj::dict

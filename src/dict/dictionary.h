#ifndef PARJ_DICT_DICTIONARY_H_
#define PARJ_DICT_DICTIONARY_H_

#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "common/types.h"
#include "dict/term_table.h"
#include "rdf/term.h"

namespace parj::dict {

namespace internal {
/// Per-thread scratch buffer for building dictionary keys. Reused across
/// calls, so after warm-up key construction never allocates.
std::string& TlsKeyBuffer();
}  // namespace internal

/// Dictionary encoding for RDF terms (paper §3): every distinct value that
/// appears in a subject or object position receives a dense integer ID from
/// one shared ID space (1..N); predicates receive IDs from a second,
/// independent space. ID 0 is reserved as invalid in both spaces. Each
/// space is one TermTable, which stores every term once, as its
/// canonical key (its N-Triples form).
///
/// The dictionary is append-only; IDs are assigned in first-seen order,
/// which the loader exploits to make encoding deterministic for a given
/// input order. Concurrent READERS (Lookup*/Decode*) are safe; any write
/// (Encode* miss) requires exclusive access — the parallel bulk loader
/// gets both by encoding chunks against a frozen dictionary plus
/// chunk-local deltas (see dict/sharded_encoder.h).
class Dictionary {
 public:
  Dictionary() = default;

  // Movable but not implicitly copyable: the dictionary can hold hundreds
  // of MB. Use Clone() when a copy is genuinely needed (e.g. building a
  // materialized database next to the base one).
  Dictionary(Dictionary&&) = default;
  Dictionary& operator=(Dictionary&&) = default;
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;

  /// A dictionary over two built term tables (a snapshot load).
  Dictionary(TermTable resources, TermTable predicates)
      : resources_(std::move(resources)), predicates_(std::move(predicates)) {}

  /// Explicit deep copy preserving all ID assignments.
  Dictionary Clone() const;

  /// Pre-sizes both term tables for that many terms and key bytes
  /// (load-time optimization; never required for correctness).
  void Reserve(size_t resources, size_t predicates,
               size_t resource_key_bytes = 0,
               size_t predicate_key_bytes = 0);

  /// Gives back large spare capacity in both term tables
  /// (TermTable::TrimSlack).
  void TrimSlack() {
    resources_.TrimSlack();
    predicates_.TrimSlack();
  }

  /// Returns the ID for `term`, inserting it if absent.
  TermId EncodeResource(const rdf::Term& term);

  /// Returns the ID for predicate `term`, inserting it if absent.
  PredicateId EncodePredicate(const rdf::Term& term);

  /// Encode by a canonical key (Term::AppendDictionaryKey bytes): the
  /// bulk paths insert key views without building a term.
  TermId EncodeResourceByKey(std::string_view key) {
    return resources_.FindOrInsert(key);
  }
  PredicateId EncodePredicateByKey(std::string_view key) {
    return predicates_.FindOrInsert(key);
  }

  /// Returns the ID for `term` or kInvalidTermId when absent.
  /// Allocation-free on hits (a term-table probe with a view of a reused
  /// key buffer).
  TermId LookupResource(const rdf::Term& term) const;

  /// Returns the predicate ID or kInvalidPredicateId when absent.
  PredicateId LookupPredicate(const rdf::Term& term) const;

  /// Lookup by a precomputed canonical key (Term::AppendDictionaryKey);
  /// lets callers that already built the key probe without rebuilding it.
  TermId LookupResourceByKey(std::string_view key) const {
    return resources_.Find(key);
  }
  PredicateId LookupPredicateByKey(std::string_view key) const {
    return predicates_.Find(key);
  }

  /// A resource's canonical key, which is its N-Triples form; valid until
  /// the next insert. Asserts on out-of-range IDs.
  std::string_view ResourceKey(TermId id) const;
  std::string_view PredicateKey(PredicateId id) const;

  /// Rebuilds a resource term from its key. Asserts on out-of-range IDs.
  rdf::Term DecodeResource(TermId id) const;

  /// Rebuilds a predicate term from its key. Asserts on out-of-range IDs.
  rdf::Term DecodePredicate(PredicateId id) const;

  /// Encodes a string-level triple, inserting unseen terms.
  EncodedTriple Encode(const rdf::Triple& triple);

  /// Encodes without inserting; any unseen term yields NotFound.
  Result<EncodedTriple> EncodeExisting(const rdf::Triple& triple) const;

  /// Decodes an encoded triple back to string level.
  rdf::Triple Decode(const EncodedTriple& triple) const;

  /// Number of distinct resources (max resource ID).
  TermId resource_count() const { return resources_.size(); }

  /// Number of distinct predicates (max predicate ID).
  PredicateId predicate_count() const { return predicates_.size(); }

  /// Total bytes of all resource / predicate keys.
  size_t resource_key_bytes() const { return resources_.key_bytes(); }
  size_t predicate_key_bytes() const { return predicates_.key_bytes(); }

  /// The two ID spaces, for serialization.
  const TermTable& resources() const { return resources_; }
  const TermTable& predicates() const { return predicates_; }

  /// Heap bytes held by both term tables (allocated capacity).
  size_t MemoryUsage() const {
    return resources_.MemoryUsage() + predicates_.MemoryUsage();
  }

 private:
  TermTable resources_;
  TermTable predicates_;
};

}  // namespace parj::dict

#endif  // PARJ_DICT_DICTIONARY_H_

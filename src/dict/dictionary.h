#ifndef PARJ_DICT_DICTIONARY_H_
#define PARJ_DICT_DICTIONARY_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "rdf/term.h"

namespace parj::dict {

/// Transparent (heterogeneous) hash for the dictionary's key maps: lets
/// lookups probe with a `std::string_view` into a reused buffer, so a hit
/// never allocates a key string. `std::hash<std::string_view>` is
/// guaranteed to agree with `std::hash<std::string>` on equal content.
struct TermKeyHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Map from a term's canonical dictionary key to an ID, with transparent
/// lookup. Shared by the Dictionary itself and the chunk-local delta maps
/// of the sharded encoder.
template <typename V>
using TermKeyMap = std::unordered_map<std::string, V, TermKeyHash,
                                      std::equal_to<>>;

namespace internal {
/// Per-thread scratch buffer for building dictionary keys. Reused across
/// calls, so after warm-up key construction never allocates.
std::string& TlsKeyBuffer();
}  // namespace internal

/// Dictionary encoding for RDF terms (paper §3): every distinct value that
/// appears in a subject or object position receives a dense integer ID from
/// one shared ID space (1..N); predicates receive IDs from a second,
/// independent space. ID 0 is reserved as invalid in both spaces.
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

  /// Explicit deep copy preserving all ID assignments.
  Dictionary Clone() const;

  /// Pre-sizes the hash tables and term arrays (load-time optimization;
  /// never required for correctness).
  void Reserve(size_t resources, size_t predicates);

  /// Returns the ID for `term`, inserting it if absent.
  TermId EncodeResource(const rdf::Term& term);
  /// Move-inserting variant for bulk paths (the sharded encoder's merge).
  TermId EncodeResource(rdf::Term&& term);

  /// Returns the ID for predicate `term`, inserting it if absent.
  PredicateId EncodePredicate(const rdf::Term& term);
  PredicateId EncodePredicate(rdf::Term&& term);

  /// Returns the ID for `term` or kInvalidTermId when absent.
  /// Allocation-free on hits (transparent map probe on a reused buffer).
  TermId LookupResource(const rdf::Term& term) const;

  /// Returns the predicate ID or kInvalidPredicateId when absent.
  PredicateId LookupPredicate(const rdf::Term& term) const;

  /// Lookup by a precomputed canonical key (Term::AppendDictionaryKey);
  /// lets callers that already built the key probe without rebuilding it.
  TermId LookupResourceByKey(std::string_view key) const;
  PredicateId LookupPredicateByKey(std::string_view key) const;

  /// Decodes a resource ID. Asserts on out-of-range IDs.
  const rdf::Term& DecodeResource(TermId id) const;

  /// Decodes a predicate ID. Asserts on out-of-range IDs.
  const rdf::Term& DecodePredicate(PredicateId id) const;

  /// Encodes a string-level triple, inserting unseen terms.
  EncodedTriple Encode(const rdf::Triple& triple);

  /// Encodes without inserting; any unseen term yields NotFound.
  Result<EncodedTriple> EncodeExisting(const rdf::Triple& triple) const;

  /// Decodes an encoded triple back to string level.
  rdf::Triple Decode(const EncodedTriple& triple) const;

  /// Number of distinct resources (max resource ID).
  TermId resource_count() const {
    return static_cast<TermId>(resources_.size());
  }

  /// Number of distinct predicates (max predicate ID).
  PredicateId predicate_count() const {
    return static_cast<PredicateId>(predicates_.size());
  }

  /// Approximate heap footprint in bytes (strings + hash tables).
  size_t MemoryUsage() const;

 private:
  std::vector<rdf::Term> resources_;    // index = id - 1
  std::vector<rdf::Term> predicates_;   // index = id - 1
  TermKeyMap<TermId> resource_ids_;
  TermKeyMap<PredicateId> predicate_ids_;
};

}  // namespace parj::dict

#endif  // PARJ_DICT_DICTIONARY_H_

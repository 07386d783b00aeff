#ifndef PARJ_DICT_TERM_TABLE_H_
#define PARJ_DICT_TERM_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdf/term.h"

namespace parj::dict {

/// A term's canonical key (Term::AppendDictionaryKey, i.e. its N-Triples
/// form) split into views of its parts. The key is unambiguous: `<...>`
/// is an IRI, `_:` a blank node, and a literal's first unescaped `"`
/// closes its value before `@lang` or `^^<datatype>`.
struct KeyParts {
  rdf::TermKind kind = rdf::TermKind::kIri;
  /// IRI, blank label or literal value. A literal value is still in its
  /// escaped form when `escaped` is set.
  std::string_view lexical;
  std::string_view datatype;
  std::string_view lang;
  bool escaped = false;  ///< the literal value contains a `\` escape
};

/// Splits a canonical key. `key` must be a key some Term produced.
KeyParts SplitKey(std::string_view key);

/// True when `key` is canonical: the key TermFromKey(key) writes back. An
/// IRI is `<...>`, a blank node `_:...`, and a literal a `"`-quoted value
/// holding only EscapeLiteral's five escapes (and no raw `"`, newline, CR
/// or tab), then nothing, a non-empty `@lang` or a non-empty `^^<dt>`.
/// Only canonical keys are safe to decode.
bool IsCanonicalKey(std::string_view key);

/// The lexical form with literal escapes undone: `parts.lexical` itself
/// unless it is escaped, else its unescaped copy, held in `*scratch`.
std::string_view UnescapedLexical(const KeyParts& parts, std::string* scratch);

/// Rebuilds the term whose canonical key is `key`; unescapes the literal
/// value only when it contains a `\`.
rdf::Term TermFromKey(std::string_view key);

/// One append-only ID space of terms, each stored once as its canonical
/// key. The keys sit back to back in one byte arena; `offsets_[id - 1]`
/// .. `offsets_[id]` delimit term `id`'s key; a power-of-two open-
/// addressing slot array of (id, hash tag) maps keys back to IDs with
/// linear probing. IDs are dense, 1..size(), in insertion order; 0 is
/// absent.
///
/// Concurrent Find/Key/Decode calls are safe; FindOrInsert and Reserve
/// need exclusive access. Lookups never allocate.
class TermTable {
 public:
  TermTable();

  // Movable but not implicitly copyable (a base table can hold hundreds
  // of MB); Clone() copies the three buffers.
  TermTable(TermTable&&) noexcept = default;
  TermTable& operator=(TermTable&&) noexcept = default;
  TermTable(const TermTable&) = delete;
  TermTable& operator=(const TermTable&) = delete;

  TermTable Clone() const;

  /// Adopts a serialized table: `bytes` holds the keys back to back and
  /// `offsets` its size()+1 delimiters. Builds the slot array once, at its
  /// final size. ParseError unless the offsets start at 0, never fall and
  /// end at bytes.size(), and every key is canonical and distinct.
  static Result<TermTable> FromImage(std::string bytes,
                                     std::vector<uint64_t> offsets);

  /// Returns the ID of `key`, appending it if absent.
  uint32_t FindOrInsert(std::string_view key);

  /// Returns the ID of `key`, or 0 when absent.
  uint32_t Find(std::string_view key) const;

  /// Term `id`'s key, valid until the next insert. `id` in 1..size().
  std::string_view Key(uint32_t id) const {
    return std::string_view(bytes_.data() + offsets_[id - 1],
                            offsets_[id] - offsets_[id - 1]);
  }

  /// Rebuilds term `id` from its key.
  rdf::Term Decode(uint32_t id) const { return TermFromKey(Key(id)); }

  uint32_t size() const {
    return offsets_.empty() ? 0 : static_cast<uint32_t>(offsets_.size() - 1);
  }
  bool empty() const { return size() == 0; }

  /// Total bytes of every key.
  size_t key_bytes() const { return offsets_.empty() ? 0 : offsets_.back(); }

  /// The serialized form FromImage adopts: every key back to back, and the
  /// size()+1 offsets delimiting them.
  std::string_view arena() const {
    return std::string_view(bytes_.data(), key_bytes());
  }
  std::span<const uint64_t> offsets() const { return offsets_; }

  /// Sizes the buffers for `terms` terms of `key_bytes` key bytes in all,
  /// so inserting up to that many neither regrows nor rehashes.
  void Reserve(size_t terms, size_t key_bytes);

  /// Gives back spare capacity once it is large: the arena and offsets
  /// shrink when more than a quarter of either is unused, and the slot
  /// array when it is larger than this many terms need. A table sized
  /// close to its contents is left as it is.
  void TrimSlack();

  /// Heap bytes held: the capacity of the arena, offsets and slots.
  size_t MemoryUsage() const;

 private:
  struct Slot {
    uint32_t id;   ///< 0 = empty
    uint32_t tag;  ///< low 32 bits of the key's hash; also picks the home
  };

  static uint32_t Tag(std::string_view key);
  /// Slot holding `key`, or the empty slot where it would go.
  size_t Probe(std::string_view key, uint32_t tag) const;
  /// Re-places every ID into `slot_count` slots, from the stored tags.
  void Rehash(size_t slot_count);

  std::string bytes_;
  std::vector<uint64_t> offsets_;  // size() + 1 entries; offsets_[0] = 0
  std::vector<Slot> slots_;        // power of two, at most 3/4 full
};

}  // namespace parj::dict

#endif  // PARJ_DICT_TERM_TABLE_H_

#include "dict/term_table.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

#include "common/logging.h"

namespace parj::dict {

namespace {

constexpr size_t kMinSlots = 16;

/// Slots needed to hold `terms` IDs at a load of at most 3/4.
size_t SlotsFor(size_t terms) {
  return std::max(kMinSlots, std::bit_ceil(terms + terms / 3 + 1));
}

/// Index of the `"` that closes a literal key's value (key[0] == '"'),
/// and whether the value holds a `\` escape.
size_t ClosingQuote(std::string_view key, bool* escaped) {
  const size_t quote = key.find('"', 1);
  const size_t backslash = key.substr(0, quote).find('\\', 1);
  *escaped = backslash < quote;
  if (!*escaped) return quote;
  // An escape pair may hide a quote: walk the value pair by pair.
  size_t i = backslash;
  while (i < key.size() && key[i] != '"') i += key[i] == '\\' ? 2 : 1;
  return i;
}

}  // namespace

KeyParts SplitKey(std::string_view key) {
  KeyParts parts;
  if (key.empty()) return parts;
  switch (key[0]) {
    case '<':
      parts.kind = rdf::TermKind::kIri;
      parts.lexical = key.substr(1, key.size() - 2);
      return parts;
    case '_':
      parts.kind = rdf::TermKind::kBlank;
      parts.lexical = key.substr(std::min<size_t>(2, key.size()));
      return parts;
    default: {
      parts.kind = rdf::TermKind::kLiteral;
      const size_t close = ClosingQuote(key, &parts.escaped);
      parts.lexical = key.substr(1, close - 1);
      const std::string_view tail =
          key.substr(std::min(close + 1, key.size()));
      if (!tail.empty() && tail[0] == '@') {
        parts.lang = tail.substr(1);
      } else if (tail.size() >= 4) {  // ^^<datatype>
        parts.datatype = tail.substr(3, tail.size() - 4);
      }
      return parts;
    }
  }
}

bool IsCanonicalKey(std::string_view key) {
  if (key.starts_with('<')) return key.size() >= 2 && key.ends_with('>');
  if (key.starts_with("_:")) return true;
  if (!key.starts_with('"')) return false;
  // The value is EscapeLiteral's output: its five escapes only, and no raw
  // newline, CR or tab before the closing quote.
  size_t i = 1;
  for (; i < key.size() && key[i] != '"'; ++i) {
    if (key[i] == '\\') {
      if (++i == key.size() ||
          std::string_view("\\\"nrt").find(key[i]) == std::string_view::npos) {
        return false;
      }
    } else if (key[i] == '\n' || key[i] == '\r' || key[i] == '\t') {
      return false;
    }
  }
  if (i == key.size()) return false;  // no closing quote
  const std::string_view suffix = key.substr(i + 1);
  return suffix.empty() || (suffix[0] == '@' && suffix.size() >= 2) ||
         (suffix.size() >= 5 && suffix.starts_with("^^<") &&
          suffix.ends_with('>'));
}

std::string_view UnescapedLexical(const KeyParts& parts,
                                  std::string* scratch) {
  if (!parts.escaped) return parts.lexical;
  Result<std::string> unescaped = rdf::UnescapeLiteral(parts.lexical);
  PARJ_CHECK(unescaped.ok()) << "malformed dictionary key literal: "
                             << parts.lexical;
  *scratch = std::move(unescaped).value();
  return *scratch;
}

rdf::Term TermFromKey(std::string_view key) {
  const KeyParts parts = SplitKey(key);
  switch (parts.kind) {
    case rdf::TermKind::kIri:
      return rdf::Term::Iri(std::string(parts.lexical));
    case rdf::TermKind::kBlank:
      return rdf::Term::Blank(std::string(parts.lexical));
    case rdf::TermKind::kLiteral:
      break;
  }
  std::string scratch;
  std::string value(UnescapedLexical(parts, &scratch));
  if (!parts.lang.empty()) {
    return rdf::Term::LangLiteral(std::move(value), std::string(parts.lang));
  }
  if (!parts.datatype.empty()) {
    return rdf::Term::TypedLiteral(std::move(value),
                                   std::string(parts.datatype));
  }
  return rdf::Term::Literal(std::move(value));
}

TermTable::TermTable() : offsets_{0}, slots_(kMinSlots, Slot{0, 0}) {}

TermTable TermTable::Clone() const {
  TermTable copy;
  copy.bytes_ = bytes_;
  copy.offsets_ = offsets_;
  copy.slots_ = slots_;
  return copy;
}

Result<TermTable> TermTable::FromImage(std::string bytes,
                                       std::vector<uint64_t> offsets) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != bytes.size() || offsets.size() - 1 > UINT32_MAX ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    return Status::ParseError("term table offsets do not rise from 0 to its " +
                              std::to_string(bytes.size()) + " key bytes");
  }
  TermTable table;
  table.bytes_ = std::move(bytes);
  table.offsets_ = std::move(offsets);
  table.slots_.assign(SlotsFor(table.size()), Slot{0, 0});
  for (uint32_t id = 1; id <= table.size(); ++id) {
    const std::string_view key = table.Key(id);
    if (!IsCanonicalKey(key)) {
      return Status::ParseError("term " + std::to_string(id) +
                                " has a malformed key");
    }
    const uint32_t tag = Tag(key);
    const size_t i = table.Probe(key, tag);
    if (table.slots_[i].id != 0) {
      return Status::ParseError("term " + std::to_string(id) +
                                " repeats term " +
                                std::to_string(table.slots_[i].id));
    }
    table.slots_[i] = Slot{id, tag};
  }
  return table;
}

uint32_t TermTable::Tag(std::string_view key) {
  return static_cast<uint32_t>(std::hash<std::string_view>{}(key));
}

size_t TermTable::Probe(std::string_view key, uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const Slot slot = slots_[i];
    if (slot.id == 0 || (slot.tag == tag && Key(slot.id) == key)) return i;
  }
}

uint32_t TermTable::Find(std::string_view key) const {
  if (slots_.empty()) return 0;  // moved-from
  return slots_[Probe(key, Tag(key))].id;
}

uint32_t TermTable::FindOrInsert(std::string_view key) {
  if (offsets_.empty()) *this = TermTable();  // moved-from
  const uint32_t tag = Tag(key);
  size_t i = Probe(key, tag);
  if (slots_[i].id != 0) return slots_[i].id;
  if ((size_t{size()} + 1) * 4 > slots_.size() * 3) {
    Rehash(slots_.size() * 2);
    i = Probe(key, tag);
  }
  bytes_.append(key);
  offsets_.push_back(bytes_.size());
  slots_[i] = Slot{size(), tag};
  return size();
}

void TermTable::Rehash(size_t slot_count) {
  std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(slot_count, Slot{0, 0}));
  const size_t mask = slot_count - 1;
  for (const Slot slot : old) {
    if (slot.id == 0) continue;
    size_t i = slot.tag & mask;
    while (slots_[i].id != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void TermTable::Reserve(size_t terms, size_t key_bytes) {
  if (offsets_.empty()) *this = TermTable();
  bytes_.reserve(key_bytes);
  offsets_.reserve(terms + 1);
  const size_t slot_count = SlotsFor(terms);
  if (slot_count > slots_.size()) Rehash(slot_count);
}

void TermTable::TrimSlack() {
  const auto large = [](size_t capacity, size_t size) {
    return capacity - size > size / 4;
  };
  if (large(bytes_.capacity(), bytes_.size())) bytes_.shrink_to_fit();
  if (large(offsets_.capacity(), offsets_.size())) offsets_.shrink_to_fit();
  if (!slots_.empty() && slots_.size() > SlotsFor(size())) {
    Rehash(SlotsFor(size()));
  }
}

size_t TermTable::MemoryUsage() const {
  return bytes_.capacity() + offsets_.capacity() * sizeof(uint64_t) +
         slots_.capacity() * sizeof(Slot);
}

}  // namespace parj::dict

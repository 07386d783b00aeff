#include "dict/sharded_encoder.h"

#include <utility>

#include "rdf/ntriples.h"
#include "server/thread_pool.h"

namespace parj::dict {

namespace {

/// Encodes the term whose canonical key is `key` against base + delta:
/// its base ID on a hit, else a provisional ID for its delta key.
template <typename LookupByKey>
TermId EncodeKeyAgainst(std::string_view key, const LookupByKey& base_lookup,
                        TermTable* delta) {
  const TermId base_id = base_lookup(key);
  if (base_id != kInvalidTermId) return base_id;
  return kDeltaTag | (delta->FindOrInsert(key) - 1);
}

template <typename LookupByKey>
TermId EncodeTermAgainst(const rdf::Term& term, const LookupByKey& base_lookup,
                         TermTable* delta) {
  std::string& key = internal::TlsKeyBuffer();
  key.clear();
  term.AppendDictionaryKey(&key);
  return EncodeKeyAgainst(key, base_lookup, delta);
}

/// EncodeTermAgainst for a scanned span: the key is the span's own text
/// when that is canonical; only other spans build a term to canonicalize.
template <typename LookupByKey>
TermId EncodeSpanAgainst(const rdf::TermSpan& span,
                         const LookupByKey& base_lookup, TermTable* delta) {
  if (span.text_is_key) return EncodeKeyAgainst(span.text, base_lookup, delta);
  return EncodeTermAgainst(rdf::TermFromSpan(span), base_lookup, delta);
}

}  // namespace

EncodedChunk EncodeChunk(const Dictionary& base,
                         std::span<const rdf::Triple> triples) {
  EncodedChunk out;
  out.triples.reserve(triples.size());
  const auto resource_lookup = [&base](std::string_view key) {
    return base.LookupResourceByKey(key);
  };
  const auto predicate_lookup = [&base](std::string_view key) {
    return base.LookupPredicateByKey(key);
  };
  for (const rdf::Triple& t : triples) {
    EncodedTriple e;
    e.subject =
        EncodeTermAgainst(t.subject, resource_lookup, &out.delta_resources);
    e.predicate = EncodeTermAgainst(t.predicate, predicate_lookup,
                                    &out.delta_predicates);
    e.object =
        EncodeTermAgainst(t.object, resource_lookup, &out.delta_resources);
    out.triples.push_back(e);
  }
  return out;
}

EncodedChunk EncodeTextChunk(const Dictionary& base, std::string_view text,
                             bool strict, ChunkLines* lines) {
  EncodedChunk out;
  const auto resource_lookup = [&base](std::string_view key) {
    return base.LookupResourceByKey(key);
  };
  const auto predicate_lookup = [&base](std::string_view key) {
    return base.LookupPredicateByKey(key);
  };
  *lines = ChunkLines{};
  rdf::StatementSpans spans;
  size_t start = 0;
  while (start < text.size()) {
    const size_t end = text.find('\n', start);
    const std::string_view line = (end == std::string_view::npos)
                                      ? text.substr(start)
                                      : text.substr(start, end - start);
    ++lines->count;
    const Status scanned = rdf::ScanStatementLine(line, &spans);
    if (scanned.ok()) {
      EncodedTriple e;
      e.subject = EncodeSpanAgainst(spans.subject, resource_lookup,
                                    &out.delta_resources);
      e.predicate = EncodeSpanAgainst(spans.predicate, predicate_lookup,
                                      &out.delta_predicates);
      e.object = EncodeSpanAgainst(spans.object, resource_lookup,
                                   &out.delta_resources);
      out.triples.push_back(e);
    } else if (scanned.code() != StatusCode::kNotFound) {
      if (lines->first_error_line == 0) {
        lines->first_error_line = lines->count;
        lines->first_error = scanned.message();
      }
      if (strict) break;
      ++lines->skipped;
    }
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return out;
}

Result<std::vector<EncodedTriple>> MergeEncodedChunks(
    Dictionary* base, std::vector<EncodedChunk> chunks,
    server::ThreadPool* pool) {
  // Phase 2 (serial, chunk order): every delta term receives its final ID
  // exactly as a serial first-occurrence scan would have assigned it — a
  // term introduced by an earlier chunk resolves to that earlier ID.
  std::vector<std::vector<TermId>> resource_remap(chunks.size());
  std::vector<std::vector<PredicateId>> predicate_remap(chunks.size());
  // The deltas bound the dictionary's growth: sizing it once spares the
  // rehashes and arena regrowth of inserting one key at a time.
  size_t resources = base->resource_count();
  size_t predicates = base->predicate_count();
  size_t resource_bytes = base->resource_key_bytes();
  size_t predicate_bytes = base->predicate_key_bytes();
  for (const EncodedChunk& chunk : chunks) {
    resources += chunk.delta_resources.size();
    predicates += chunk.delta_predicates.size();
    resource_bytes += chunk.delta_resources.key_bytes();
    predicate_bytes += chunk.delta_predicates.key_bytes();
  }
  base->Reserve(resources, predicates, resource_bytes, predicate_bytes);
  uint64_t total_triples = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    EncodedChunk& chunk = chunks[c];
    const TermTable& delta_res = chunk.delta_resources;
    resource_remap[c].resize(delta_res.size());
    for (uint32_t id = 1; id <= delta_res.size(); ++id) {
      resource_remap[c][id - 1] = base->EncodeResourceByKey(delta_res.Key(id));
    }
    chunk.delta_resources = TermTable();
    const TermTable& delta_pred = chunk.delta_predicates;
    predicate_remap[c].resize(delta_pred.size());
    for (uint32_t id = 1; id <= delta_pred.size(); ++id) {
      predicate_remap[c][id - 1] =
          base->EncodePredicateByKey(delta_pred.Key(id));
    }
    chunk.delta_predicates = TermTable();
    total_triples += chunk.triples.size();
  }
  // The reserve counted a term once per chunk that introduced it. Chunks
  // that share most of their terms (text ordered by predicate repeats
  // nearly every subject in every chunk) over-reserve several times over;
  // give that back.
  base->TrimSlack();
  if (base->resource_count() >= kDeltaTag ||
      base->predicate_count() >= kDeltaTag) {
    return Status::Internal(
        "dictionary exceeds 2^31 terms; sharded encoding tag space "
        "exhausted");
  }

  // Phase 3 (parallel): patch provisional IDs and concatenate, each chunk
  // writing its own pre-computed slice of the output.
  std::vector<size_t> offsets(chunks.size() + 1, 0);
  for (size_t c = 0; c < chunks.size(); ++c) {
    offsets[c + 1] = offsets[c] + chunks[c].triples.size();
  }
  std::vector<EncodedTriple> out(total_triples);
  auto patch_chunk = [&](size_t c) {
    const std::vector<TermId>& res_map = resource_remap[c];
    const std::vector<PredicateId>& pred_map = predicate_remap[c];
    EncodedTriple* dst = out.data() + offsets[c];
    for (const EncodedTriple& t : chunks[c].triples) {
      EncodedTriple patched = t;
      if (patched.subject & kDeltaTag) {
        patched.subject = res_map[patched.subject & ~kDeltaTag];
      }
      if (patched.predicate & kDeltaTag) {
        patched.predicate = pred_map[patched.predicate & ~kDeltaTag];
      }
      if (patched.object & kDeltaTag) {
        patched.object = res_map[patched.object & ~kDeltaTag];
      }
      *dst++ = patched;
    }
  };
  if (pool != nullptr && chunks.size() > 1) {
    pool->ParallelFor(chunks.size(), patch_chunk);
  } else {
    for (size_t c = 0; c < chunks.size(); ++c) patch_chunk(c);
  }
  return out;
}

}  // namespace parj::dict

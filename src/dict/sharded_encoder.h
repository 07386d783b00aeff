#ifndef PARJ_DICT_SHARDED_ENCODER_H_
#define PARJ_DICT_SHARDED_ENCODER_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dict/dictionary.h"
#include "dict/term_table.h"
#include "rdf/term.h"

namespace parj::server {
class ThreadPool;
}  // namespace parj::server

namespace parj::dict {

/// Deterministic two-phase parallel dictionary encoding (bulk-load
/// pipeline, DESIGN.md §10).
///
/// Phase 1 — one call per input chunk, all concurrent: each chunk encodes
/// its triples against a FROZEN base dictionary (read-only, safely
/// shared) plus a chunk-local delta TermTable that assigns provisional
/// IDs (kDeltaTag | local-index) to the keys the base does not know, in
/// first-occurrence order within the chunk. EncodeTextChunk does this
/// straight from N-Triples text; EncodeChunk from parsed triples.
///
/// Phase 2 — MergeEncodedChunks: deltas are folded into the base IN CHUNK
/// ORDER, so a term's final ID equals the ID a serial first-occurrence
/// scan of the concatenated input would have assigned — byte-identical
/// dictionaries and snapshots whatever the thread count or chunk size.
/// The per-chunk patch of provisional IDs to final IDs runs in parallel.

/// High bit of a TermId marks a provisional chunk-local delta index during
/// phase 1. Final dictionaries must stay below this (2^31 terms), which
/// MergeEncodedChunks enforces.
inline constexpr TermId kDeltaTag = TermId{1} << 31;

/// One chunk's provisional encoding.
struct EncodedChunk {
  /// Triples whose IDs are either final (base hits) or provisional
  /// (kDeltaTag set; the low bits are the delta table ID minus one).
  std::vector<EncodedTriple> triples;
  /// Keys of the terms unknown to the base, in first-occurrence (subject,
  /// predicate, object within each triple) order.
  TermTable delta_resources;
  TermTable delta_predicates;
};

/// Phase 1: encodes `triples` against the frozen `base` plus a fresh
/// chunk-local delta. Safe to run concurrently with other EncodeChunk
/// calls sharing `base`, as long as nothing mutates `base` meanwhile.
/// Base hits are allocation-free (a key probe on a reused buffer).
EncodedChunk EncodeChunk(const Dictionary& base,
                         std::span<const rdf::Triple> triples);

/// Line accounting of one EncodeTextChunk call. Line numbers are 1-based
/// and local to the chunk; the caller rebases them to file lines.
struct ChunkLines {
  /// Lines scanned (a last line without '\n' counts). A strict scan stops
  /// at its first malformed line, so this may fall short of the chunk.
  uint64_t count = 0;
  uint64_t skipped = 0;  ///< malformed lines dropped (non-strict only)
  uint64_t first_error_line = 0;  ///< first malformed line; 0 when none
  std::string first_error;        ///< its ParseError message
};

/// Phase 1 straight from N-Triples text: scans `text` (whole lines, as
/// rdf::SplitNewlineChunks cuts them) with rdf::ScanStatementLine and
/// encodes each statement against the frozen `base` plus a fresh delta,
/// exactly as EncodeChunk would encode the parsed triples. A term's key
/// is its byte range in `text` whenever that already is the canonical
/// key (rdf::TermSpan::text_is_key), so an rdf::Term is built only to
/// canonicalize the other spans (escaped literals). Strict mode stops at
/// the first malformed line; otherwise malformed lines are counted and
/// skipped.
EncodedChunk EncodeTextChunk(const Dictionary& base, std::string_view text,
                             bool strict, ChunkLines* lines);

/// Phases 2+3: merges every chunk's delta keys into `*base` in chunk
/// order, by view and with no per-term allocation, patches all
/// provisional IDs to final ones (on `pool` when non-null), and returns
/// the chunks' triples concatenated in chunk order. Fails with Internal
/// if the dictionary would cross the kDeltaTag capacity.
Result<std::vector<EncodedTriple>> MergeEncodedChunks(
    Dictionary* base, std::vector<EncodedChunk> chunks,
    server::ThreadPool* pool = nullptr);

}  // namespace parj::dict

#endif  // PARJ_DICT_SHARDED_ENCODER_H_

#ifndef PARJ_RDF_VOCAB_H_
#define PARJ_RDF_VOCAB_H_

namespace parj::rdf::vocab {

/// Well-known IRIs used by the engine.
inline constexpr char kRdfType[] =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
inline constexpr char kXsdInteger[] =
    "http://www.w3.org/2001/XMLSchema#integer";

}  // namespace parj::rdf::vocab

#endif  // PARJ_RDF_VOCAB_H_

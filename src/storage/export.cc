#include "storage/export.h"

#include <fstream>
#include <ostream>

namespace parj::storage {

Status ExportNTriples(const Database& db, std::ostream& out) {
  // Dictionary keys are the terms' N-Triples forms: write them as is.
  const dict::Dictionary& dict = db.dictionary();
  for (PredicateId pid = 1; pid <= db.predicate_count(); ++pid) {
    const std::string_view predicate = dict.PredicateKey(pid);
    const TableReplica& so = db.entry(pid).table.so();
    so.ForEachRun([&](size_t, TermId s, std::span<const TermId> run) {
      const std::string_view subject = dict.ResourceKey(s);
      for (TermId object : run) {
        out << subject << " " << predicate << " " << dict.ResourceKey(object)
            << " .\n";
      }
    });
  }
  if (!out) return Status::IoError("write failure during N-Triples export");
  return Status::OK();
}

Status ExportNTriplesFile(const Database& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  return ExportNTriples(db, out);
}

}  // namespace parj::storage

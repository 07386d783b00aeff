#ifndef PARJ_WORKLOAD_LUBM_H_
#define PARJ_WORKLOAD_LUBM_H_

#include "workload/data.h"

namespace parj::workload {

/// Options for the LUBM-shaped generator. `universities` plays the role of
/// the benchmark's scale factor (the paper's experiments use scales 1280
/// to 10240; one university yields roughly 100k triples here, as in the
/// original UBA generator).
struct LubmOptions {
  int universities = 1;
  uint64_t seed = 42;
};

/// From-scratch generator reproducing the Univ-Bench schema: universities
/// contain departments; departments employ full/associate/assistant
/// professors and lecturers, run courses and research groups, and enroll
/// undergraduate and graduate students; faculty hold degrees from random
/// universities, head departments, teach courses and author publications;
/// students take courses, have advisors and assist courses. The dataset
/// uses exactly the 17 properties (including rdf:type) the paper reports
/// for LUBM, with the original generator's cardinality ratios.
///
/// Entity IRIs are deterministic (independent of the RNG), so the
/// benchmark queries can reference constants such as
/// <http://www.Department0.University0.edu> at any scale.
GeneratedData GenerateLubm(const LubmOptions& options);

/// The paper's ten LUBM queries (L1-L7 are the variants commonly used for
/// systems without reasoning [Trinity.RDF]; L8-L10 come from the dynamic
/// exchange operator paper), re-expressed over this generator's schema
/// with each query's published role preserved: L4-L6 selective point
/// queries, L2 simple but unselective, L1/L3/L7-L10 heavy multi-joins.
std::vector<NamedQuery> LubmQueries();

}  // namespace parj::workload

#endif  // PARJ_WORKLOAD_LUBM_H_

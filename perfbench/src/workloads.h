#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"

namespace perfbench {

/// Each workload prepares its seeded inputs (untimed), times its set-up,
/// runs its timed phase for options.seconds, checks every answer, and —
/// when options.trace is set — runs the same seed again through the traced
/// layer calls, appending the spans to `spans`. A returned error means the
/// run could not be set up or checked at all.

/// LUBM text load + calibration, one closed-loop client over the ten LUBM
/// queries in kCount mode at one thread with kAdaptiveIndex.
parj::Status RunLubmAnalytic(const RunOptions& options, Report* report,
                             std::vector<Span>* spans);

/// WatDiv snapshot load, one closed-loop client through
/// server::QueryServer over a Zipf(1) stream of re-bound L/S/F templates
/// and C3, every returned row decoded.
parj::Status RunWatdivServe(const RunOptions& options, Report* report,
                            std::vector<Span>* spans);

/// LUBM base with the WAL on, an open-loop writer, a background
/// compactor and one closed-loop reader; recovery from the run's own WAL.
parj::Status RunLubmIngest(const RunOptions& options, Report* report,
                           std::vector<Span>* spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

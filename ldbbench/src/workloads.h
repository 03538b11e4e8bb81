// The three workloads and the metric catalog they report against
// (README.md in this directory lists what each metric means and which
// end-to-end metric it should move).

#ifndef LDBBENCH_WORKLOADS_H_
#define LDBBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "ldbbench/src/common.h"

namespace ldbbench {

/// name, unit
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every untraced run reports all of them.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Per-layer metrics: every traced run reports all of them; one a workload
/// does not exercise reads 0 and is listed as such in the run's text.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Keeps exactly the metrics of `specs`, in catalog order. A missing
/// end-to-end metric throws; a missing per-layer one is set to 0.
void FinalizeMetrics(const std::vector<MetricSpec>& specs, bool fill_missing,
                     Report* r);

void RunServeMix(const Args& a, Report* r);
void RunAdhocCompile(const Args& a, Report* r);
void RunAnalyticLarge(const Args& a, Report* r);

}  // namespace ldbbench

#endif  // LDBBENCH_WORKLOADS_H_

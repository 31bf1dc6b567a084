// Per-layer probes for the traced run. Each probe times calls into one
// module's public functions from this benchmark's own code, inside spans,
// and turns them into the per-layer metrics BENCHMARK.json names. The
// probes do not depend on the workload being traced, so every traced run
// reports the same metric set; perfbench/LAYERS.md states which end-to-end
// metric each family should move.

#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <vector>

#include "perfbench/src/results.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

// Runs every probe, appending metrics to *out. Probe results are gated like
// workload ops (golden traps, determinism across thread counts, digest
// identity across simulator fast paths).
void RunProbes(const Context& ctx, SpanLog& log, Gates& gates,
               std::vector<Metric>* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_

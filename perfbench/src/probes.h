// Single-thread probes the traced run pushes a workload's plans through, so
// that every workload reports the model and featurization costs of its own
// inputs the same way.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "model/mtmlf_qo.h"
#include "trace.h"

namespace perfbench {

using PlanRef =
    std::pair<const mtmlf::query::Query*, const mtmlf::query::PlanNode*>;

/// Median time, in microseconds, of one taped no-grad MtmlfQo::Run per
/// plan, as a serving worker runs it (arena + execution tape). A first
/// untimed pass records the tapes.
double ForwardProbeUs(const mtmlf::model::MtmlfQo& model,
                      const std::vector<PlanRef>& plans, Tracer::Lane* lane);

/// Median time, in microseconds, of one Featurizer::EncodeTableFilters call
/// (eager, no-grad) over every table of every plan.
double EncodeProbeUs(mtmlf::model::MtmlfQo* model,
                     const std::vector<PlanRef>& plans, Tracer::Lane* lane);

/// Records the process-wide tensor allocation counters
/// (tensor::ReadAllocCounters) as trace counters of `phase`.
void RecordAllocCounters(Tracer* tracer, const std::string& phase);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_

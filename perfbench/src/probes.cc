#include "probes.h"

#include "tensor/tape.h"
#include "tensor/workspace.h"

namespace perfbench {

double ForwardProbeUs(const mtmlf::model::MtmlfQo& model,
                      const std::vector<PlanRef>& plans, Tracer::Lane* lane) {
  mtmlf::tensor::NoGradGuard no_grad;
  mtmlf::tensor::Workspace arena;
  mtmlf::tensor::TapeCache tapes;
  tapes.SetModelVersion(1);
  std::vector<double> us;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < plans.size(); ++i) {
      {
        mtmlf::tensor::WorkspaceScope scope(&arena);
        ScopedSpan sp(pass == 1 ? lane : nullptr, "model.forward", i);
        auto t0 = Clock::now();
        auto fwd = model.Run(0, *plans[i].first, *plans[i].second, &tapes);
        if (pass == 1) us.push_back(SecondsSince(t0) * 1e6);
      }
      arena.Reset();
    }
  }
  return Median(us);
}

double EncodeProbeUs(mtmlf::model::MtmlfQo* model,
                     const std::vector<PlanRef>& plans, Tracer::Lane* lane) {
  mtmlf::tensor::NoGradGuard no_grad;
  std::vector<double> us;
  for (size_t i = 0; i < plans.size(); ++i) {
    const auto& q = *plans[i].first;
    for (int t : q.tables) {
      ScopedSpan sp(lane, "featurize.encode", i);
      auto t0 = Clock::now();
      auto enc = model->featurizer(0)->EncodeTableFilters(t, q.FiltersOf(t));
      us.push_back(SecondsSince(t0) * 1e6);
    }
  }
  return Median(us);
}

void RecordAllocCounters(Tracer* tracer, const std::string& phase) {
  if (!tracer->enabled()) return;
  const auto c = mtmlf::tensor::ReadAllocCounters();
  tracer->Counter(phase, "tensor_ops", static_cast<double>(c.ops));
  tracer->Counter(phase, "tensor_heap_nodes", static_cast<double>(c.heap_nodes));
  tracer->Counter(phase, "tensor_arena_nodes",
                  static_cast<double>(c.arena_nodes));
  tracer->Counter(phase, "tensor_heap_bytes", static_cast<double>(c.heap_bytes));
  tracer->Counter(phase, "tensor_arena_bytes",
                  static_cast<double>(c.arena_bytes));
}

}  // namespace perfbench

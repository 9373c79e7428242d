// Shared plumbing of the benchmark program: run configuration, the result
// record every workload fills, and the clocks and summary statistics the
// workloads measure with.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: spans and counters are recorded and the per-layer metrics
  /// are reported instead of the end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its spans (JSON); empty writes nothing.
  std::string trace_out;
  /// Scratch directory for checkpoints and the Unix socket.
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back: operation counts, the outcome of its output
/// checks, and every metric it measured. End-to-end metrics come from the
/// untraced run, per-layer metrics from the traced run.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  /// Records a failed output check (the run then reports correct=false).
  void Check(bool ok, const std::string& what);
  void E2e(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
};

double SecondsSince(Clock::time_point start);

/// User + system CPU of the whole process, in seconds.
double ProcessCpuSeconds();
/// CPU time of the calling thread, in seconds.
double ThreadCpuSeconds();
/// Peak resident set size of the process so far, in MB.
double PeakRssMb();

/// Median with common/stats' linear interpolation; 0 for an empty sample.
inline double Median(std::vector<double> values) {
  return mtmlf::Summarize(std::move(values)).median;
}

RunResult RunTrainPlan(const RunConfig& config, Tracer* tracer);
/// `hot` selects serve-hot (small repeated working set) over serve-cold
/// (every plan distinct).
RunResult RunServe(const RunConfig& config, bool hot, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

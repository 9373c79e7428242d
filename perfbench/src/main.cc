// perfbench: one run of one benchmark workload.
//
//   perfbench --workload <train-plan|serve-hot|serve-cold> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--work-dir <dir>]
//
// Prints a machine descriptor line, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics when
// untraced, the per-layer metrics when traced. perfbench/run.py builds this
// program and is the benchmark's entry point.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "common/logging.h"
#include "trace.h"

namespace {

using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::RunResult;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train-plan|serve-hot|serve-cold> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

std::string CpuFlags() {
  std::string flags;
  auto add = [&](const char* name, bool on) {
    if (!on) return;
    if (!flags.empty()) flags += ' ';
    flags += name;
  };
  __builtin_cpu_init();
  add("sse4.2", __builtin_cpu_supports("sse4.2"));
  add("avx", __builtin_cpu_supports("avx"));
  add("avx2", __builtin_cpu_supports("avx2"));
  add("fma", __builtin_cpu_supports("fma"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
  return flags;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  std::printf("{");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0)) {
        Usage("bad --seconds");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  mtmlf::SetLogLevel(0);

  std::printf(
      "{\"machine\": {\"nproc\": %u, \"cpu_flags\": \"%s\", \"build_type\": "
      "\"%s\"}}\n",
      std::thread::hardware_concurrency(), CpuFlags().c_str(),
      PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  perfbench::Tracer tracer(config.trace);
  RunResult result;
  if (config.workload == "train-plan") {
    result = perfbench::RunTrainPlan(config, &tracer);
  } else if (config.workload == "serve-hot") {
    result = perfbench::RunServe(config, /*hot=*/true, &tracer);
  } else if (config.workload == "serve-cold") {
    result = perfbench::RunServe(config, /*hot=*/false, &tracer);
  } else {
    Usage(("unknown workload " + config.workload).c_str());
  }

  for (const auto& why : result.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  if (config.trace) {
    std::fprintf(stderr, "per-layer self times (%s, seed %llu):\n",
                 config.workload.c_str(),
                 static_cast<unsigned long long>(config.seed));
    tracer.PrintLayerTable(stderr);
    if (!config.trace_out.empty() && !tracer.WriteJson(config.trace_out)) {
      std::fprintf(stderr, "could not write %s\n", config.trace_out.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              result.check_failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  PrintMetrics(config.trace ? result.per_layer : result.end_to_end);
  std::printf("}\n");
  return 0;
}

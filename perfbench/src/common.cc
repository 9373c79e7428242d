#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>

namespace perfbench {

void RunResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  if (std::find(check_failures.begin(), check_failures.end(), what) ==
      check_failures.end()) {
    check_failures.push_back(what);
  }
}

void RunResult::E2e(const std::string& name, double value,
                    const std::string& unit) {
  end_to_end.push_back(Metric{name, value, unit});
}

void RunResult::Layer(const std::string& name, double value,
                      const std::string& unit) {
  per_layer.push_back(Metric{name, value, unit});
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

}  // namespace perfbench

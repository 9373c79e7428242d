// In-memory span and counter recording for the traced run.
//
// Spans are recorded from the benchmark's own code around its calls into
// each layer of the library; nothing inside the library is instrumented.
// Each thread records into its own Lane, so recording takes no lock. A span
// begun while another is open on the same lane is that span's child, which
// is what the self-time table subtracts.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  /// A disabled tracer hands out null lanes, and every span on a null lane
  /// is a no-op.
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  class Lane {
   public:
    int Begin(const char* name, uint64_t request);
    void End(int index);

   private:
    friend class Tracer;
    struct Span {
      const char* name;
      int64_t start_ns;
      int64_t end_ns;
      int parent;  // index in the same lane, -1 for a root span
      uint64_t request;
    };
    explicit Lane(Clock::time_point epoch) : epoch_(epoch) {}
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
  };

  /// A fresh lane for the calling thread; null when disabled. Thread-safe.
  Lane* NewLane();
  /// The lane of the thread that created the tracer.
  Lane* main_lane() { return main_lane_; }

  /// Records a counter value taken at a phase boundary. Call from the
  /// thread that owns the tracer.
  void Counter(const std::string& phase, const std::string& name,
               double value);

  struct LayerRow {
    std::string name;
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  /// Spans aggregated by name. Self time is a span's duration minus the
  /// time its children cover.
  std::vector<LayerRow> LayerTable() const;
  void PrintLayerTable(std::FILE* out) const;
  /// Writes spans, counters and the layer table as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::deque<std::unique_ptr<Lane>> lanes_;  // guarded by mu_
  Lane* main_lane_ = nullptr;
  struct CounterValue {
    std::string phase;
    std::string name;
    double value;
  };
  std::vector<CounterValue> counters_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer::Lane* lane, const char* name, uint64_t request = 0)
      : lane_(lane), index_(lane ? lane->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (lane_ != nullptr) lane_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Lane* lane_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

#include "trace.h"

#include <algorithm>
#include <map>

namespace perfbench {

namespace {

int64_t NanosSince(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

void WriteJsonString(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', out);
    std::fputc(c, out);
  }
  std::fputc('"', out);
}

}  // namespace

int Tracer::Lane::Begin(const char* name, uint64_t request) {
  int index = static_cast<int>(spans_.size());
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NanosSince(epoch_), -1, parent, request});
  open_.push_back(index);
  return index;
}

void Tracer::Lane::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NanosSince(epoch_);
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
  main_lane_ = NewLane();
}

Tracer::Lane* Tracer::NewLane() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.push_back(std::unique_ptr<Lane>(new Lane(epoch_)));
  return lanes_.back().get();
}

void Tracer::Counter(const std::string& phase, const std::string& name,
                     double value) {
  if (enabled_) counters_.push_back(CounterValue{phase, name, value});
}

std::vector<Tracer::LayerRow> Tracer::LayerTable() const {
  std::map<std::string, LayerRow> rows;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& lane : lanes_) {
    const auto& spans = lane->spans_;
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const auto& s : spans) {
      if (s.parent >= 0 && s.end_ns >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      if (s.end_ns < 0) continue;  // never closed
      LayerRow& row = rows[s.name];
      row.name = s.name;
      row.count += 1;
      row.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      row.self_ms +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

void Tracer::PrintLayerTable(std::FILE* out) const {
  std::fprintf(out, "%-28s %10s %14s %14s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& row : LayerTable()) {
    std::fprintf(out, "%-28s %10llu %14.3f %14.3f\n", row.name.c_str(),
                 static_cast<unsigned long long>(row.count), row.total_ms,
                 row.self_ms);
  }
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [");
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool first = true;
    for (size_t l = 0; l < lanes_.size(); ++l) {
      for (const auto& s : lanes_[l]->spans_) {
        std::fprintf(out,
                     "%s\n{\"lane\": %zu, \"name\": \"%s\", \"start_us\": "
                     "%.3f, \"end_us\": %.3f, \"parent\": %d, \"request\": "
                     "%llu}",
                     first ? "" : ",", l, s.name, s.start_ns / 1e3,
                     s.end_ns / 1e3, s.parent,
                     static_cast<unsigned long long>(s.request));
        first = false;
      }
    }
  }
  std::fprintf(out, "],\n\"counters\": [");
  for (size_t i = 0; i < counters_.size(); ++i) {
    std::fprintf(out, "%s\n{\"phase\": ", i == 0 ? "" : ",");
    WriteJsonString(out, counters_[i].phase);
    std::fprintf(out, ", \"name\": ");
    WriteJsonString(out, counters_[i].name);
    std::fprintf(out, ", \"value\": %.17g}", counters_[i].value);
  }
  std::fprintf(out, "],\n\"layers\": [");
  auto rows = LayerTable();
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "%s\n{\"name\": ", i == 0 ? "" : ",");
    WriteJsonString(out, rows[i].name);
    std::fprintf(out,
                 ", \"count\": %llu, \"total_ms\": %.6f, \"self_ms\": %.6f}",
                 static_cast<unsigned long long>(rows[i].count),
                 rows[i].total_ms, rows[i].self_ms);
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench

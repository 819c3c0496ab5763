// Span recording and Chrome-trace output for the traced run.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "bench.hpp"

namespace perfbench {

SpanLog::SpanLog() : origin_(Clock::now()) {}

int SpanLog::begin(const char* name, int parent) {
  Span s;
  s.name = name;
  s.start_us = seconds_since(origin_) * 1e6;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.op = op_;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = seconds_since(origin_) * 1e6;
}

std::vector<double> SpanLog::self_us() const {
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                            s.end_us);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double lo = 0.0;
    double hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[i] = (spans_[i].end_us - spans_[i].start_us) - covered;
  }
  return self;
}

bool SpanLog::write_chrome_trace(const std::string& path,
                                 const std::string& other_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                  "\"parent\":%d,\"op\":%d}}",
                  i == 0 ? "" : ",\n", s.name.c_str(),
                  s.name.substr(0, s.name.find('.')).c_str(),
                  s.parent < 0 ? 0 : 1, s.start_us, s.end_us - s.start_us,
                  s.id, s.parent, s.op);
    out << buf;
  }
  out << "],\n\"otherData\":" << other_json << "}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

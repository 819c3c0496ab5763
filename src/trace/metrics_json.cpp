#include "trace/metrics_json.hpp"

#include <fstream>
#include <sstream>
#include <type_traits>

#include "util/env.hpp"

namespace srumma::trace {

namespace {

// wall / virtual; 0 when the row has no virtual-time denominator.
double wall_per_vs(double wall_seconds, double virtual_seconds) {
  return virtual_seconds > 0.0 ? wall_seconds / virtual_seconds : 0.0;
}

}  // namespace

std::string json_number(double v) {
  std::ostringstream os;
  // 17 significant digits: doubles round-trip exactly, so cross-mode
  // bitwise-identity checks (bench_scale pooled vs threads) can compare
  // serialized metrics directly.
  os.precision(17);
  os << v;
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void emit_json_map(std::ostream& os, const NumberMap& m) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ",") << "\"" << json_escape(k)
       << "\":" << json_number(v);
    first = false;
  }
  os << "}";
}

std::string counters_json(const TraceCounters& t) {
  std::ostringstream os;
  const char* sep = "{";
  for_each_counter([&](const char* name, auto field, CounterAgg) {
    os << sep << "\"" << name << "\":";
    // Integer counters print as integers, real-valued ones round-trip.
    if constexpr (std::is_same_v<decltype(field),
                                 double TraceCounters::*>) {
      os << json_number(t.*field);
    } else {
      os << t.*field;
    }
    sep = ",";
  });
  os << "}";
  return os.str();
}

void MetricsLog::add(const std::string& label, const MultiplyResult& r,
                     NumberMap params, double wall_seconds) {
  Row row;
  row.label = label;
  row.params = std::move(params);
  row.metrics = {{"elapsed_s", r.elapsed},
                 {"gflops", r.gflops},
                 {"overlap", r.overlap},
                 {"wall_seconds", wall_seconds},
                 {"wall_per_virtual_second", wall_per_vs(wall_seconds, r.elapsed)}};
  row.counters = r.trace;
  rows_.push_back(std::move(row));
}

void MetricsLog::add_metric(const std::string& label, const std::string& metric,
                            double value, NumberMap params, double wall_seconds,
                            double virtual_seconds) {
  add_metrics(label, {{metric, value}}, std::move(params), wall_seconds,
              virtual_seconds);
}

void MetricsLog::add_metrics(const std::string& label, NumberMap metrics,
                             NumberMap params, double wall_seconds,
                             double virtual_seconds) {
  Row row;
  row.label = label;
  row.params = std::move(params);
  row.metrics = std::move(metrics);
  row.metrics.emplace_back("wall_seconds", wall_seconds);
  row.metrics.emplace_back("wall_per_virtual_second",
                           wall_per_vs(wall_seconds, virtual_seconds));
  rows_.push_back(std::move(row));
}

std::string MetricsLog::json() const {
  std::ostringstream os;
  os << "{\"schema\":\"srumma-bench-metrics/1\",\"bench\":\""
     << json_escape(bench_) << "\",\"rows\":[";
  bool first = true;
  for (const Row& row : rows_) {
    os << (first ? "" : ",") << "\n  {\"label\":\"" << json_escape(row.label)
       << "\",\"params\":";
    emit_json_map(os, row.params);
    os << ",\"metrics\":";
    emit_json_map(os, row.metrics);
    if (row.counters) {
      os << ",\"counters\":" << counters_json(*row.counters);
    }
    os << "}";
    first = false;
  }
  os << "\n]}\n";
  return os.str();
}

bool write_env_json(const std::string& doc) {
  const std::optional<std::string> path = env_str("SRUMMA_BENCH_JSON");
  if (!path) return true;
  std::ofstream f(*path, std::ios::trunc);
  if (!f) return false;
  f << doc;
  return static_cast<bool>(f);
}

bool MetricsLog::write_env() const { return write_env_json(json()); }

}  // namespace srumma::trace

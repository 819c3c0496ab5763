#include "service/metrics.hpp"

#include <sstream>

namespace srumma::service {

trace::NumberMap metrics_map(const ServiceMetrics& m) {
  return {
      {"jobs_submitted", static_cast<double>(m.submitted)},
      {"jobs_accepted", static_cast<double>(m.accepted)},
      {"jobs_rejected", static_cast<double>(m.rejected)},
      {"jobs_completed", static_cast<double>(m.completed)},
      {"jobs_failed", static_cast<double>(m.failed)},
      {"window_s", m.window},
      {"jobs_per_s", m.jobs_per_s},
      {"latency_p50_s", m.p50_latency},
      {"latency_p99_s", m.p99_latency},
      {"mean_wait_s", m.mean_wait},
      {"utilization", m.utilization},
      {"deadline_misses", static_cast<double>(m.deadline_misses)},
      {"batches", static_cast<double>(m.batches)},
      {"retries", static_cast<double>(m.retries)},
  };
}

std::string service_metrics_json(const std::string& bench,
                                 const std::vector<ServiceArm>& arms) {
  std::ostringstream os;
  os << "{\"schema\":\"srumma-service-metrics/1\",\"bench\":\""
     << trace::json_escape(bench) << "\",\"arms\":[";
  bool first = true;
  for (const ServiceArm& arm : arms) {
    os << (first ? "" : ",") << "\n  {\"label\":\""
       << trace::json_escape(arm.label) << "\",\"params\":";
    trace::emit_json_map(os, arm.params);
    os << ",\"metrics\":";
    trace::NumberMap metrics = metrics_map(arm.metrics);
    metrics.emplace_back("wall_seconds", arm.wall_seconds);
    metrics.emplace_back("wall_per_virtual_second",
                         arm.metrics.window > 0.0
                             ? arm.wall_seconds / arm.metrics.window
                             : 0.0);
    trace::emit_json_map(os, metrics);
    os << "}";
    first = false;
  }
  os << "\n]}\n";
  return os.str();
}

bool write_service_metrics_env(const std::string& bench,
                               const std::vector<ServiceArm>& arms) {
  return trace::write_env_json(service_metrics_json(bench, arms));
}

}  // namespace srumma::service

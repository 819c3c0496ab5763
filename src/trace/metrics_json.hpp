#pragma once
// Machine-readable bench metrics.
//
// Every paper-figure bench prints a human table; this layer additionally
// serializes the underlying MultiplyResult/TraceCounters rows to a stable
// JSON document so the performance trajectory is diffable across PRs
// (scripts/bench_report.sh writes BENCH_fig3.json etc.).
//
// Schema "srumma-bench-metrics/1" (see docs/OBSERVABILITY.md §4):
//   {
//     "schema":  "srumma-bench-metrics/1",
//     "bench":   "<bench id, e.g. fig3>",
//     "rows": [
//       { "label":   "<experiment arm>",
//         "params":  { "<name>": <number>, ... },      // inputs (n, ranks, ...)
//         "metrics": { "<name>": <number>, ... },      // outputs
//         "counters": { ... every TraceCounters field ... }   // multiply rows
//       }, ...
//     ]
//   }
// Multiply rows carry metrics elapsed_s / gflops / overlap plus the full
// team-aggregated counters block; scalar rows (e.g. Fig. 7 overlap
// percentages) carry caller-named metrics and no counters block.  Every
// row additionally carries the harness-speed metrics wall_seconds (real
// time the arm took to simulate) and wall_per_virtual_second (wall /
// modeled virtual seconds; 0 when the row has no virtual duration) so
// simulator throughput is a tracked trajectory alongside modeled perf.
// Fields are only ever added to the schema, never renamed, so
// BENCH_*.json files from different PRs stay comparable.

#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "trace/report.hpp"
#include "vtime/trace_counters.hpp"

namespace srumma::trace {

/// Every TraceCounters field as a JSON object (the "counters" block).
[[nodiscard]] std::string counters_json(const TraceCounters& t);

/// Named (key, value) pairs; keys are emitted in insertion order.
using NumberMap = std::vector<std::pair<std::string, double>>;

/// A double as a JSON number with 17 significant digits (round-trips).
[[nodiscard]] std::string json_number(double v);
/// `s` with '"' and '\\' escaped, for a JSON string body.
[[nodiscard]] std::string json_escape(const std::string& s);
/// `m` as a JSON object, keys in insertion order.
void emit_json_map(std::ostream& os, const NumberMap& m);

/// Write `doc` to the path in SRUMMA_BENCH_JSON; a no-op when it is unset.
/// Returns false only on I/O error.  Every bench metrics document
/// (MetricsLog, the service metrics) is written through here.
bool write_env_json(const std::string& doc);

class MetricsLog {
 public:
  explicit MetricsLog(std::string bench) : bench_(std::move(bench)) {}

  /// A multiply-experiment row: elapsed/gflops/overlap + wall metrics +
  /// full counters.  `wall_seconds` is the measured real time of the arm
  /// (wall_per_virtual_second is derived against r.elapsed).
  void add(const std::string& label, const MultiplyResult& r, NumberMap params,
           double wall_seconds);

  /// A scalar row for benches whose outputs are not MultiplyResults.
  /// `virtual_seconds` is the arm's modeled duration (0 when the row has
  /// no virtual-time denominator).
  void add_metric(const std::string& label, const std::string& metric,
                  double value, NumberMap params, double wall_seconds,
                  double virtual_seconds);

  /// A row with several caller-named metrics and no counters block.
  void add_metrics(const std::string& label, NumberMap metrics,
                   NumberMap params, double wall_seconds,
                   double virtual_seconds);

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] std::string json() const;

  /// write_env_json(json()) — benches call it once at exit; with
  /// SRUMMA_BENCH_JSON unset it is a no-op, so plain bench runs keep
  /// printing tables only.
  bool write_env() const;

 private:
  struct Row {
    std::string label;
    NumberMap params;
    NumberMap metrics;
    std::optional<TraceCounters> counters;
  };

  std::string bench_;
  std::vector<Row> rows_;
};

}  // namespace srumma::trace

#include "trace/profile.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <vector>

#include "util/table.hpp"

namespace srumma {
namespace {

/// Gantt cell of a traced event; '\0' for events the chart does not draw.
char gantt_cell(const trace::TraceEvent& e) {
  if (e.type != trace::EvType::Span || e.t1 <= e.t0) return '\0';
  switch (e.phase) {
    case trace::Phase::Compute: return 'C';
    case trace::Phase::Get: return 'G';
    case trace::Phase::Put:
    case trace::Phase::Acc: return 'P';
    case trace::Phase::Wait:
    case trace::Phase::RecoveryWait: return 'W';
    case trace::Phase::Noise: return 'N';
    case trace::Phase::Barrier: return 'B';
    default: return '\0';
  }
}

}  // namespace

void print_profile(std::ostream& os, Team& team, int max_rows) {
  const double makespan = team.max_clock();
  const MachineModel& mm = team.machine();

  // -- per-rank breakdown ----------------------------------------------------
  std::vector<int> order(static_cast<std::size_t>(team.size()));
  for (int r = 0; r < team.size(); ++r) order[static_cast<std::size_t>(r)] = r;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return team.rank(a).clock().now() > team.rank(b).clock().now();
  });
  if (static_cast<int>(order.size()) > max_rows) {
    // Keep the slowest rows plus the single fastest (the straggler view).
    const int fastest = order.back();
    order.resize(static_cast<std::size_t>(max_rows - 1));
    order.push_back(fastest);
  }

  TableWriter ranks({"rank", "node", "clock ms", "compute %", "comm ms",
                     "wait %", "noise ms", "steal ms"});
  for (int r : order) {
    Rank& rk = team.rank(r);
    const TraceCounters& t = rk.trace();
    const double now = rk.clock().now();
    const double denom = now > 0 ? now : 1.0;
    ranks.add_row({TableWriter::num(static_cast<long long>(r)),
                   TableWriter::num(static_cast<long long>(rk.node())),
                   TableWriter::num(now * 1e3, 2),
                   TableWriter::num(100.0 * t.time_compute / denom, 1),
                   TableWriter::num(t.time_comm * 1e3, 2),
                   TableWriter::num(100.0 * t.time_wait / denom, 1),
                   TableWriter::num(t.time_noise * 1e3, 2),
                   TableWriter::num(rk.clock().steal_total() * 1e3, 2)});
  }
  ranks.print(os, "rank profile (slowest first; makespan " +
                      TableWriter::num(makespan * 1e3, 2) + " ms)");

  // -- resource utilization ----------------------------------------------------
  TableWriter res({"resource", "busy ms", "utilization %"});
  const double denom = makespan > 0 ? makespan : 1.0;
  for (int n = 0; n < mm.num_nodes; ++n) {
    const double out = team.network().nic_out(n).busy_total();
    const double in = team.network().nic_in(n).busy_total();
    if (out == 0.0 && in == 0.0) continue;
    res.add_row({"node " + std::to_string(n) + " NIC out",
                 TableWriter::num(out * 1e3, 2),
                 TableWriter::num(100.0 * out / denom, 1)});
    res.add_row({"node " + std::to_string(n) + " NIC in",
                 TableWriter::num(in * 1e3, 2),
                 TableWriter::num(100.0 * in / denom, 1)});
    if (res.row_count() >= 2 * static_cast<std::size_t>(max_rows)) break;
  }
  for (int d = 0; d < mm.num_domains(); ++d) {
    const double mem = team.network().domain_mem(d).busy_total();
    if (mem == 0.0) continue;
    res.add_row({"domain " + std::to_string(d) + " memory",
                 TableWriter::num(mem * 1e3, 2),
                 TableWriter::num(100.0 * mem / denom, 1)});
  }
  if (res.row_count() > 0) {
    os << "\n";
    res.print(os, "resource utilization");
  }
}

void print_gantt(std::ostream& os, const trace::Tracer& tracer, double t0,
                 double t1, int width, int max_ranks) {
  SRUMMA_REQUIRE(width >= 10, "gantt: width must be at least 10");
  std::vector<std::vector<trace::TraceEvent>> events;
  std::uint64_t dropped = 0;
  for (int r = 0; r < tracer.ranks(); ++r) {
    events.push_back(tracer.events(r));
    dropped += tracer.dropped(r);
  }
  if (t1 <= t0) {
    t0 = 0.0;
    t1 = 0.0;
    for (const auto& v : events)
      for (const auto& e : v)
        if (gantt_cell(e) != '\0') t1 = std::max(t1, e.t1);
    if (t1 <= 0.0) {
      os << "(timeline empty)\n";
      return;
    }
  }
  const double dt = (t1 - t0) / width;
  os << "timeline [" << t0 * 1e3 << " ms .. " << t1 * 1e3 << " ms], "
     << dt * 1e3 << " ms/cell  (C compute, G get, P put, W wait, N noise, "
        "B barrier, . idle)\n";
  const int shown = std::min(max_ranks, tracer.ranks());
  for (int r = 0; r < shown; ++r) {
    // Dominant kind per cell by covered duration.
    std::vector<std::map<char, double>> cells(static_cast<std::size_t>(width));
    for (const auto& e : events[static_cast<std::size_t>(r)]) {
      const char kind = gantt_cell(e);
      const double lo = std::max(e.t0, t0);
      const double hi = std::min(e.t1, t1);
      if (kind == '\0' || hi <= lo) continue;
      const int b0 = std::clamp(static_cast<int>((lo - t0) / dt), 0, width - 1);
      const int b1 = std::clamp(static_cast<int>((hi - t0) / dt), 0, width - 1);
      for (int b = b0; b <= b1; ++b) {
        const double cell_lo = t0 + b * dt;
        const double cover = std::min(hi, cell_lo + dt) - std::max(lo, cell_lo);
        if (cover > 0) cells[static_cast<std::size_t>(b)][kind] += cover;
      }
    }
    os << (r < 10 ? " " : "") << r << " |";
    for (const auto& cell : cells) {
      char best = '.';
      double best_cover = 0.0;
      for (const auto& [kind, cover] : cell) {
        if (cover > best_cover) {
          best = kind;
          best_cover = cover;
        }
      }
      os << best;
    }
    os << "|\n";
  }
  if (shown < tracer.ranks())
    os << "(" << tracer.ranks() - shown << " more ranks not shown)\n";
  if (dropped > 0)
    os << "(" << dropped
       << " trace events lost to ring overflow: the chart is partial)\n";
}

}  // namespace srumma

// Per-layer probes.  Each one repeats a public unit operation until it has
// run long enough to time, and reports the median of a few repetitions.

#include "probes.hpp"

#include <algorithm>
#include <cstdint>

#include "analysis/analyzer.hpp"
#include "analysis/plan_model.hpp"
#include "blas/gemm.hpp"
#include "bench.hpp"
#include "core/task_plan.hpp"
#include "dist/grid.hpp"
#include "msg/comm.hpp"
#include "rma/rma.hpp"
#include "runtime/team.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "vtime/resource.hpp"

namespace perfbench::probes {

using namespace srumma;

namespace {

constexpr int kReps = 5;

/// Median over kReps runs of fn(), which returns one sample.
template <typename Fn>
double median_of(Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) v.push_back(fn());
  return median(std::move(v));
}

/// Wall seconds of one Team::run of `body`.
template <typename Body>
double timed_run(Team& team, Body&& body) {
  const auto t0 = Clock::now();
  team.run(body);
  return seconds_since(t0);
}

/// Two ranks: on different nodes (`remote`) or in one shared-memory domain.
MachineModel pair_machine(const MachineModel& base, bool remote) {
  MachineModel m = base.carve(remote ? 2 : 1);
  m.ranks_per_node = remote ? 1 : 2;
  return m;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double team_setup_ms(const MachineModel& machine) {
  return median_of([&] {
           const auto t0 = Clock::now();
           Team team(machine);
           RmaRuntime rma(team);
           Comm comm(team);
           return seconds_since(t0);
         }) *
         1e3;
}

double empty_run_ms(const MachineModel& machine) {
  Team team(machine);
  team.run([](Rank&) {});
  return median_of([&] { return timed_run(team, [](Rank&) {}); }) * 1e3;
}

double barrier_us(const MachineModel& machine) {
  constexpr int kBarriers = 16;
  Team team(machine);
  team.run([](Rank&) {});
  const double empty = median_of([&] {
    team.reset();
    return timed_run(team, [](Rank&) {});
  });
  const double with = median_of([&] {
    team.reset();
    return timed_run(team, [](Rank& me) {
      for (int i = 0; i < kBarriers; ++i) me.barrier();
    });
  });
  return std::max(0.0, with - empty) / kBarriers * 1e6;
}

double book_append_ns() {
  constexpr int kBooks = 200000;
  return median_of([] {
           Resource r;
           const auto t0 = Clock::now();
           for (int i = 0; i < kBooks; ++i) {
             (void)r.book(static_cast<double>(i), 0.5);
           }
           return seconds_since(t0);
         }) /
         kBooks * 1e9;
}

double book_gap_ns() {
  // 4096 busy intervals [2i, 2i+1]; each booking first-fits a 0.2-long
  // piece into the gap after a pseudo-randomly chosen interval, four
  // passes over every gap.
  constexpr int kIntervals = 4096;
  constexpr int kPasses = 4;
  return median_of([] {
           Resource r;
           for (int i = 0; i < kIntervals; ++i) {
             (void)r.book(2.0 * i, 1.0);
           }
           const auto t0 = Clock::now();
           for (int p = 0; p < kPasses; ++p) {
             for (std::uint64_t j = 0; j < kIntervals; ++j) {
               const std::uint64_t i = (j * 2654435761u) % kIntervals;
               (void)r.book(2.0 * static_cast<double>(i) + 1.0, 0.2);
             }
           }
           return seconds_since(t0);
         }) /
         (kIntervals * kPasses) * 1e9;
}

double get_us(const MachineModel& machine) {
  constexpr int kGets = 4000;
  constexpr std::size_t kElems = 64 * 64;
  Team team(pair_machine(machine, true));
  RmaRuntime rma(team);
  const double empty = median_of([&] {
    team.reset();
    return timed_run(team, [](Rank&) {});
  });
  const double with = median_of([&] {
    team.reset();
    return timed_run(team, [&](Rank& me) {
      if (me.id() != 0) return;
      for (int i = 0; i < kGets; ++i) {
        RmaHandle h = rma.nbget(me, 1, nullptr, nullptr, kElems);
        rma.wait(me, h);
      }
    });
  });
  return std::max(0.0, with - empty) / kGets * 1e6;
}

double copy_gbps(const MachineModel& machine, bool remote, index_t rows,
                 index_t cols) {
  constexpr int kGets = 64;
  Team team(pair_machine(machine, remote));
  RmaRuntime rma(team);
  const std::size_t elems =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  Matrix dst(rows, cols);
  double seconds = 0.0;
  team.run([&](Rank& me) {
    const SymmetricRegion reg = rma.malloc_symmetric(me, elems);
    std::fill_n(reg.base(me.id()), elems, 1.0 + me.id());
    me.barrier();
    if (me.id() == 0) {
      seconds = median_of([&] {
        const auto t0 = Clock::now();
        for (int i = 0; i < kGets; ++i) {
          RmaHandle h = rma.nbget2d(me, 1, reg.base(1), rows, rows, cols,
                                    dst.data(), rows);
          rma.wait(me, h);
        }
        return seconds_since(t0);
      });
    }
    rma.free_symmetric(me, reg);
  });
  SRUMMA_REQUIRE(dst(0, 0) == 2.0, "copy probe: get did not move the data");
  return static_cast<double>(elems * sizeof(double)) * kGets / seconds * 1e-9;
}

double sendrecv_us(const MachineModel& machine) {
  constexpr int kExchanges = 2000;
  Team team(pair_machine(machine, true));
  Comm comm(team);
  const double empty = median_of([&] {
    team.reset();
    return timed_run(team, [](Rank&) {});
  });
  const double with = median_of([&] {
    team.reset();
    return timed_run(team, [&](Rank& me) {
      double out = me.id();
      double in = 0.0;
      const int peer = 1 - me.id();
      for (int i = 0; i < kExchanges; ++i) {
        comm.sendrecv(me, peer, i, &out, 1, peer, i, &in, 1);
      }
    });
  });
  return std::max(0.0, with - empty) / kExchanges * 1e6;
}

double bcast_us(const MachineModel& machine) {
  constexpr int kBcasts = 4;
  Team team(machine);
  Comm comm(team);
  std::vector<int> group(static_cast<std::size_t>(team.size()));
  for (int r = 0; r < team.size(); ++r) group[static_cast<std::size_t>(r)] = r;
  const double empty = median_of([&] {
    team.reset();
    return timed_run(team, [](Rank&) {});
  });
  const double with = median_of([&] {
    team.reset();
    return timed_run(team, [&](Rank& me) {
      double v = me.id() == 0 ? 42.0 : 0.0;
      for (int i = 0; i < kBcasts; ++i) comm.bcast(me, group, 0, &v, 1);
    });
  });
  return std::max(0.0, with - empty) / kBcasts * 1e6;
}

double gemm_gflops(index_t m, index_t n, index_t k) {
  Matrix a(m, k);
  Matrix b(k, n);
  Matrix c(m, n);
  fill_random(a.view(), 1);
  fill_random(b.view(), 2);
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  // Enough calls for about 20 ms per sample at a few GFLOP/s.
  const int calls = std::max(1, static_cast<int>(5e7 / flops));
  const double s = median_of([&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) {
      blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, a.view(), b.view(),
                 0.0, c.view());
    }
    return seconds_since(t0);
  });
  return flops * calls / s * 1e-9;
}

PlanProbe plan(const MachineModel& machine, index_t n,
               const SrummaOptions& opt) {
  const ProcGrid grid = ProcGrid::near_square(machine.total_ranks());
  const MatrixLayout layout(n, n, grid);
  PlanProbe out;
  const TaskPlan first = build_task_plan(
      0, machine, layout, layout, layout,
      tune_options(0, machine, layout, layout, layout, opt));
  SRUMMA_REQUIRE(!first.tasks.empty(), "plan probe: rank 0 has no tasks");
  out.tile_m = first.tasks.front().cm;
  out.tile_n = first.tasks.front().cn;
  out.tile_k = first.tasks.front().kk;
  const int ranks = machine.total_ranks();
  out.us_per_rank = median_of([&] {
                      std::size_t tasks = 0;
                      const auto t0 = Clock::now();
                      for (int r = 0; r < ranks; ++r) {
                        const TaskPlan p = build_task_plan(
                            r, machine, layout, layout, layout,
                            tune_options(r, machine, layout, layout, layout,
                                         opt));
                        tasks += p.tasks.size();
                      }
                      SRUMMA_REQUIRE(tasks > 0, "plan probe: empty plans");
                      return seconds_since(t0);
                    }) /
                    ranks * 1e6;
  return out;
}

double buffer_bound(const MachineModel& machine, index_t n,
                    const SrummaOptions& opt) {
  analysis::AnalysisConfig cfg;
  cfg.machine = machine;
  cfg.options = opt;
  cfg.m = cfg.n = cfg.k = n;
  const analysis::AnalysisReport rep =
      analysis::analyze(analysis::build_plan_model(cfg));
  SRUMMA_REQUIRE(rep.certified(),
                 "the static analyzer does not certify the configuration");
  return static_cast<double>(rep.bounds.buffer_bytes);
}

}  // namespace perfbench::probes

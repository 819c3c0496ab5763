// The pooled execution harness (src/runtime/fiber_exec, docs/HARNESS.md):
// fiber-pool primitives, and the pooled vs thread-per-rank differential.
//
// The differential's exact arms run on MachineModel::testing(2, 1): two
// ranks, one per node, so every modeled resource (per-node NICs, each
// domain's memory system) is booked by exactly one rank and the virtual
// schedule has no first-fit gap competition (docs/MODEL.md §2).  Inside
// that envelope the two execution modes must agree *bitwise* — result
// matrix, every TraceCounters field, and every rank's final virtual
// clock.  On contended machines only the numerics are order-independent,
// so those arms assert bitwise-identical C and leave timings free.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "core/srumma.hpp"
#include "dist/dist_matrix.hpp"
#include "rma/rma.hpp"
#include "runtime/fiber_exec.hpp"
#include "runtime/team.hpp"
#include "tests/helpers.hpp"
#include "trace/metrics_json.hpp"
#include "util/error.hpp"

namespace srumma {
namespace {

// ---------------------------------------------------------------------------
// Harness environment knobs: read strictly, never by starting a pool.

TEST(HarnessEnv, WorkerCountParsesStrictly) {
  {
    testing::ScopedEnv e("SRUMMA_HARNESS_THREADS", "3");
    EXPECT_EQ(exec::default_workers(), 3);
  }
  {
    testing::ScopedEnv e("SRUMMA_HARNESS_THREADS", nullptr);
    EXPECT_GE(exec::default_workers(), 1);
  }
  for (const char* bad : {"0", "4097", "-2", "abc", "2x", ""}) {
    testing::ScopedEnv e("SRUMMA_HARNESS_THREADS", bad);
    if (*bad == '\0') {
      EXPECT_GE(exec::default_workers(), 1);  // empty reads as unset
    } else {
      EXPECT_THROW((void)exec::default_workers(), Error) << bad;
    }
  }
}

TEST(HarnessEnv, StackSizeParsesStrictly) {
  {
    testing::ScopedEnv e("SRUMMA_HARNESS_STACK_KB", "128");
    EXPECT_EQ(exec::default_stack_bytes(), 128u * 1024u);
  }
  {
    testing::ScopedEnv e("SRUMMA_HARNESS_STACK_KB", nullptr);
    EXPECT_EQ(exec::default_stack_bytes(), 512u * 1024u);
  }
  for (const char* bad : {"63", "65537", "abc", "256k"}) {
    testing::ScopedEnv e("SRUMMA_HARNESS_STACK_KB", bad);
    EXPECT_THROW((void)exec::default_stack_bytes(), Error) << bad;
  }
}

TEST(HarnessEnv, ModeIsPooledOrThreads) {
  Team team(MachineModel::testing(2, 1));  // ExecMode::Auto
  std::atomic<int> started{0};
  for (const char* mode : {"pooled", "threads", ""}) {
    testing::ScopedEnv e("SRUMMA_HARNESS", mode);
    team.run([&](Rank&) { ++started; });
  }
  EXPECT_EQ(started.load(), 6);
  for (const char* bad : {"thread", "pool", "Threads", "1"})
    testing::expect_env_rejected("SRUMMA_HARNESS", bad, [&] {
      team.run([&](Rank&) { ++started; });
    });
  EXPECT_EQ(started.load(), 6);
}

TEST(HarnessEnv, BadWorkerCountFailsTheRunBeforeAnyRankStarts) {
  Team team(MachineModel::testing(2, 1));
  team.set_execution(ExecMode::Pooled);  // workers from the environment
  std::atomic<int> started{0};
  {
    testing::ScopedEnv e("SRUMMA_HARNESS_THREADS", "0");
    EXPECT_THROW(team.run([&](Rank&) { ++started; }), Error);
  }
  EXPECT_EQ(started.load(), 0);
  testing::ScopedEnv e("SRUMMA_HARNESS_THREADS", "1");
  team.run([&](Rank&) { ++started; });  // the team stays usable
  EXPECT_EQ(started.load(), 2);
}

// ---------------------------------------------------------------------------
// Fiber-pool primitives.

TEST(FiberExec, RunsEveryBodyExactlyOnce) {
  std::vector<int> hits(32, 0);
  EXPECT_FALSE(exec::on_fiber());
  exec::run_fibers(32, 1, exec::default_stack_bytes(), [&](int i) {
    EXPECT_TRUE(exec::on_fiber());
    hits[static_cast<std::size_t>(i)]++;
  });
  EXPECT_FALSE(exec::on_fiber());
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(FiberExec, SingleWorkerYieldIsDeterministicRoundRobin) {
  // One worker, yielding fibers: each yield re-enqueues at the tail, so
  // the interleaving is a fixed round-robin — the determinism the pooled
  // differential relies on.
  std::vector<int> order;
  exec::run_fibers(3, 1, exec::default_stack_bytes(), [&](int i) {
    order.push_back(i);
    exec::yield();
    order.push_back(i);
  });
  const std::vector<int> expect = {0, 1, 2, 0, 1, 2};
  EXPECT_EQ(order, expect);
}

TEST(FiberExec, MultiWorkerCompletesAllBodies) {
  std::atomic<int> done{0};
  exec::run_fibers(64, 4, exec::default_stack_bytes(), [&](int) {
    exec::yield();
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 64);
}

TEST(FiberExec, DeepStackUseStaysInsideGuardedStack) {
  // Touch well past a page of stack; the guard page would fault if the
  // fiber were running on a too-small or mismanaged stack.
  exec::run_fibers(2, 1, exec::default_stack_bytes(), [&](int i) {
    volatile char probe[16 * 1024];
    probe[0] = static_cast<char>(i);
    probe[sizeof probe - 1] = static_cast<char>(i);
    EXPECT_EQ(probe[0], probe[sizeof probe - 1]);
  });
}

// ---------------------------------------------------------------------------
// Team integration.

TEST(HarnessPool, PooledRunMatchesReference) {
  Team team(MachineModel::testing(2, 2));
  team.set_execution(ExecMode::Pooled);
  RmaRuntime rma(team);
  const index_t n = 32;
  const ProcGrid g{2, 2};
  Matrix a_g = testing::coords_matrix(n, n);
  Matrix b_g(n, n);
  fill_random(b_g.view(), 7);
  Matrix c_ref(n, n);
  testing::reference_gemm(blas::Trans::No, blas::Trans::No, 1.0, a_g, b_g,
                          0.0, c_ref);
  Matrix c_out(n, n);
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, n, n, g);
    DistMatrix b(rma, me, n, n, g);
    DistMatrix c(rma, me, n, n, g);
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, b_g.view());
    (void)srumma_multiply(me, a, b, c, {});
    c.gather_to(me, c_out.view());
  });
  EXPECT_LE(max_abs_diff(c_out.view(), c_ref.view()),
            testing::gemm_tolerance(n));
}

TEST(HarnessPool, ExplicitWorkerCountsAllComplete) {
  for (int workers : {1, 2, 5}) {
    Team team(MachineModel::testing(2, 2));
    team.set_execution(ExecMode::Pooled, workers);
    std::atomic<int> ran{0};
    team.run([&](Rank& me) {
      me.barrier();
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 4) << workers << " workers";
  }
}

TEST(HarnessPool, AbortPropagatesAcrossParkedFibers) {
  // A rank throwing while its peers are parked at a barrier must wake
  // them and rethrow at the Team::run call site — the same contract the
  // thread-per-rank mode has always had.
  Team team(MachineModel::testing(2, 2));
  team.set_execution(ExecMode::Pooled);
  EXPECT_THROW(team.run([&](Rank& me) {
    if (me.id() == 2) throw Error("rank 2 failed");
    me.barrier();
  }),
               Error);
  EXPECT_TRUE(team.aborted());
  team.reset();
  EXPECT_FALSE(team.aborted());
}

TEST(HarnessPool, NestedRunFallsBackToThreads) {
  // A Team::run issued from inside a fiber (the request plane does this)
  // must not recurse into the fiber pool.
  Team outer(MachineModel::testing(1, 2));
  outer.set_execution(ExecMode::Pooled);
  std::atomic<int> inner_ran{0};
  outer.run([&](Rank& me) {
    if (me.id() == 0) {
      Team inner(MachineModel::testing(1, 2));
      inner.set_execution(ExecMode::Pooled);  // overridden by the guard
      inner.run([&](Rank& im) {
        im.barrier();
        inner_ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    me.barrier();
  });
  EXPECT_EQ(inner_ran.load(), 2);
}

// ---------------------------------------------------------------------------
// The pooled vs thread-per-rank differential.

struct ModeRun {
  Matrix c;
  std::string counters;        ///< counters_json of the aggregated trace
  std::vector<double> clocks;  ///< per-rank final virtual clocks
  ModeRun() : c(0, 0) {}
};

struct DiffConfig {
  bool engine = false;
  bool cache = false;
  bool faults = false;
  [[nodiscard]] std::string label() const {
    return std::string(engine ? "engine" : "pipeline") +
           (cache ? "+cache" : "") + (faults ? "+faults" : "");
  }
};

ModeRun run_mode(const MachineModel& machine, ExecMode mode,
                 const DiffConfig& cfg, index_t n) {
  Team team(machine);
  team.set_execution(mode);
  RmaConfig rc;
  rc.cache = cfg.cache;
  if (cfg.faults) {
    fault::FaultConfig f;
    f.fail_rate = 0.02;
    f.delay_rate = 0.02;
    rc.faults = f;
    RetryPolicy retry;
    retry.max_attempts = 20;
    rc.retry = retry;
  }
  RmaRuntime rma(team, rc);
  const ProcGrid g = ProcGrid::near_square(team.size());
  Matrix a_g = testing::coords_matrix(n, n);
  Matrix b_g(n, n);
  fill_random(b_g.view(), 41);

  ModeRun out;
  out.c = Matrix(n, n);
  out.clocks.assign(static_cast<std::size_t>(team.size()), 0.0);
  SrummaOptions opt;
  opt.engine = cfg.engine ? EngineMode::On : EngineMode::Off;
  MultiplyResult result;
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, n, n, g);
    DistMatrix b(rma, me, n, n, g);
    DistMatrix c(rma, me, n, n, g);
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, b_g.view());
    MultiplyResult r = srumma_multiply(me, a, b, c, opt);
    if (me.id() == 0) result = r;
    c.gather_to(me, out.c.view());
    out.clocks[static_cast<std::size_t>(me.id())] = me.clock().now();
  });
  out.counters = trace::counters_json(result.trace);
  return out;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols())) == 0;
}

class HarnessDifferential : public ::testing::TestWithParam<DiffConfig> {};

// Exact arm: contention-free machine, so pooled and thread-per-rank must
// agree on everything — bitwise C, every counter, every final clock.
TEST_P(HarnessDifferential, ExactOnContentionFreeMachine) {
  const DiffConfig cfg = GetParam();
  const MachineModel machine = MachineModel::testing(2, 1);
  const index_t n = 48;
  const ModeRun pooled = run_mode(machine, ExecMode::Pooled, cfg, n);
  const ModeRun threads = run_mode(machine, ExecMode::Threads, cfg, n);
  EXPECT_TRUE(bitwise_equal(pooled.c, threads.c)) << cfg.label();
  EXPECT_EQ(pooled.counters, threads.counters) << cfg.label();
  ASSERT_EQ(pooled.clocks.size(), threads.clocks.size());
  for (std::size_t i = 0; i < pooled.clocks.size(); ++i) {
    EXPECT_EQ(pooled.clocks[i], threads.clocks[i])
        << cfg.label() << " rank " << i;
  }
}

// Contended arm: a dual-rank-per-node cluster shares NICs and memory
// systems, so modeled timings are deterministic only up to first-fit
// booking order — but the numerics must stay bitwise identical in every
// mode (the engine commits handed-back tiles at exact plan positions).
TEST_P(HarnessDifferential, NumericsExactOnContendedMachine) {
  const DiffConfig cfg = GetParam();
  const MachineModel machine = MachineModel::linux_myrinet(2);
  const index_t n = 48;
  const ModeRun pooled = run_mode(machine, ExecMode::Pooled, cfg, n);
  const ModeRun threads = run_mode(machine, ExecMode::Threads, cfg, n);
  EXPECT_TRUE(bitwise_equal(pooled.c, threads.c)) << cfg.label();
}

std::vector<DiffConfig> diff_configs() {
  std::vector<DiffConfig> out;
  for (bool engine : {false, true}) {
    for (bool cache : {false, true}) {
      for (bool faults : {false, true}) {
        out.push_back({engine, cache, faults});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, HarnessDifferential,
                         ::testing::ValuesIn(diff_configs()),
                         [](const auto& param_info) {
                           std::string name = param_info.param.label();
                           for (char& ch : name) {
                             if (ch == '+') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace srumma

// Dependency-driven task engine (src/engine, docs/ENGINE.md): the engine
// must produce bitwise-identical C to the static pipeline on every
// configuration (transposes, flavors, chunking, blocking mode, faults,
// cache), reconcile its steal ledger exactly
// (engine_tasks + tasks_stolen == copy_tasks + direct_tasks == gemm_calls),
// re-arm failed fetches without requeues, and actually steal work from
// straggler-bound domain mates.

#include <gtest/gtest.h>

#include <string>

#include "core/srumma.hpp"
#include "engine/engine.hpp"
#include "tests/helpers.hpp"

namespace srumma {
namespace {

using blas::Trans;

// Small-integer fill: every product and partial sum is exactly
// representable, so engine-vs-pipeline and engine-vs-serial comparisons can
// demand bitwise equality (diff exactly 0.0) rather than a tolerance.
void fill_ints(MatrixView v, std::uint64_t seed) {
  Rng rng(seed);
  for (index_t j = 0; j < v.cols(); ++j)
    for (index_t i = 0; i < v.rows(); ++i)
      v(i, j) = static_cast<double>(static_cast<int>(rng.below(9))) - 4.0;
}

struct EngineRun {
  Matrix c;
  MultiplyResult result;
  TraceCounters trace;
};

EngineRun run_multiply(const MachineModel& mm, ProcGrid grid, index_t m,
                       index_t n, index_t k, const RmaConfig& cfg,
                       SrummaOptions opt, EngineMode mode,
                       std::uint64_t seed) {
  opt.engine = mode;
  Team team(mm);
  RmaRuntime rma(team, cfg);
  const bool tra = opt.ta == Trans::Yes;
  const bool trb = opt.tb == Trans::Yes;
  Matrix a_g(tra ? k : m, tra ? m : k);
  Matrix b_g(trb ? n : k, trb ? k : n);
  fill_ints(a_g.view(), seed);
  fill_ints(b_g.view(), seed + 1);
  Matrix c_init(m, n);
  fill_ints(c_init.view(), seed + 2);

  EngineRun out{Matrix(m, n), {}, {}};
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, a_g.rows(), a_g.cols(), grid);
    DistMatrix b(rma, me, b_g.rows(), b_g.cols(), grid);
    DistMatrix c(rma, me, m, n, grid);
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, b_g.view());
    c.scatter_from(me, c_init.view());
    MultiplyResult r = srumma_multiply(me, a, b, c, opt);
    if (me.id() == 0) out.result = r;
    c.gather_to(me, out.c.view());
  });
  out.trace = team.total_trace();
  return out;
}

// The reconciliation identities every engine run must satisfy exactly.
void expect_engine_ledger(const TraceCounters& t, const std::string& label) {
  EXPECT_EQ(t.engine_tasks + t.tasks_stolen, t.copy_tasks + t.direct_tasks)
      << label;
  EXPECT_EQ(t.copy_tasks + t.direct_tasks, t.gemm_calls) << label;
  EXPECT_EQ(t.task_requeues, 0u) << label;  // re-arm replaces requeue
}

TEST(Engine, BitwiseIdenticalToPipelineAcrossConfigs) {
  struct Case {
    MachineModel mm;
    ProcGrid grid;
    index_t m, n, k;
    SrummaOptions opt;
    RmaConfig cfg;
    const char* label;
  };
  std::vector<Case> cases;
  {
    Case c{MachineModel::testing(2, 2), ProcGrid{2, 2}, 24, 24, 24,
           SrummaOptions{}, RmaConfig{}, "default-2x2-cluster"};
    cases.push_back(c);
  }
  for (Trans ta : {Trans::No, Trans::Yes}) {
    for (Trans tb : {Trans::No, Trans::Yes}) {
      Case c{MachineModel::testing(2, 2), ProcGrid{2, 2}, 15, 11, 19,
             SrummaOptions{}, RmaConfig{}, "transpose"};
      c.opt.ta = ta;
      c.opt.tb = tb;
      cases.push_back(c);
    }
  }
  {
    Case c{MachineModel::cray_x1(1), ProcGrid{2, 2}, 20, 20, 20,
           SrummaOptions{}, RmaConfig{}, "x1-copy-flavor"};
    c.opt.shm_flavor = ShmFlavor::Copy;
    cases.push_back(c);
  }
  {
    Case c{MachineModel::sgi_altix(4), ProcGrid{2, 2}, 20, 20, 20,
           SrummaOptions{}, RmaConfig{}, "altix-direct"};
    cases.push_back(c);
  }
  {
    Case c{MachineModel::testing(2, 2), ProcGrid{2, 2}, 24, 24, 24,
           SrummaOptions{}, RmaConfig{}, "blocking"};
    c.opt.nonblocking = false;
    cases.push_back(c);
  }
  {
    Case c{MachineModel::testing(3, 2), ProcGrid{3, 2}, 21, 10, 33,
           SrummaOptions{}, RmaConfig{}, "tiled-odd-dims"};
    c.opt.c_chunk = 6;
    c.opt.k_chunk = 5;
    cases.push_back(c);
  }
  {
    Case c{MachineModel::testing(2, 2), ProcGrid{2, 2}, 32, 32, 32,
           SrummaOptions{}, RmaConfig{}, "faults-verify"};
    fault::FaultConfig f;
    f.seed = 77;
    f.fail_rate = 0.05;
    f.corrupt_rate = 0.05;
    RetryPolicy rp;
    rp.max_attempts = 8;
    c.cfg.faults = f;
    c.cfg.retry = rp;
    c.opt.shm_flavor = ShmFlavor::Copy;
    c.opt.verify_checksums = true;
    c.opt.c_chunk = 8;
    cases.push_back(c);
  }
  {
    Case c{MachineModel::testing(2, 2), ProcGrid{2, 2}, 32, 32, 32,
           SrummaOptions{}, RmaConfig{}, "cache-on"};
    c.cfg.cache = true;
    c.cfg.cache_capacity = std::uint64_t{64} << 20;
    c.opt.c_chunk = 8;
    c.opt.ordering.a_reuse = false;  // make repeat touches visible to the cache
    cases.push_back(c);
  }
  {
    Case c{MachineModel::linux_myrinet(2), ProcGrid{2, 2}, 32, 32, 32,
           SrummaOptions{}, RmaConfig{}, "myrinet-multi-domain"};
    c.opt.c_chunk = 8;
    cases.push_back(c);
  }

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& sc = cases[i];
    const std::string label =
        std::string(sc.label) + " (case " + std::to_string(i) + ")";
    const std::uint64_t seed = 100 + i;
    EngineRun off = run_multiply(sc.mm, sc.grid, sc.m, sc.n, sc.k, sc.cfg,
                                 sc.opt, EngineMode::Off, seed);
    EngineRun on = run_multiply(sc.mm, sc.grid, sc.m, sc.n, sc.k, sc.cfg,
                                sc.opt, EngineMode::On, seed);
    EXPECT_EQ(max_abs_diff(on.c.view(), off.c.view()), 0.0) << label;
    // The pipeline satisfies the classification identity; the engine adds
    // the steal ledger on top.
    EXPECT_EQ(off.trace.copy_tasks + off.trace.direct_tasks,
              off.trace.gemm_calls)
        << label;
    EXPECT_EQ(off.trace.engine_tasks + off.trace.tasks_stolen, 0u) << label;
    expect_engine_ledger(on.trace, label);
    EXPECT_GT(on.trace.engine_tasks, 0u) << label;
  }
}

TEST(Engine, StragglerNodeTriggersStealsThatReconcile) {
  // Two dual-CPU nodes with node 1's links 8x slow: node 1's ranks see
  // their remote fetches land far in the virtual future, so each should
  // export work to its domain mate (and the fast node's ranks drain their
  // mates' pools when they run out of own work).  The stolen products must
  // still land bitwise-identically, with the ledger exact.
  fault::FaultConfig f;
  f.seed = 5;
  f.straggler_node = 1;
  f.straggler_factor = 8.0;
  RmaConfig cfg;
  cfg.faults = f;
  SrummaOptions opt;
  opt.c_chunk = 8;
  opt.k_chunk = 8;

  const index_t n = 64;
  EngineRun off = run_multiply(MachineModel::linux_myrinet(2), ProcGrid{2, 2},
                               n, n, n, cfg, opt, EngineMode::Off, 21);
  EngineRun on = run_multiply(MachineModel::linux_myrinet(2), ProcGrid{2, 2},
                              n, n, n, cfg, opt, EngineMode::On, 21);
  EXPECT_EQ(max_abs_diff(on.c.view(), off.c.view()), 0.0);
  expect_engine_ledger(on.trace, "straggler-steal");
  EXPECT_GT(on.trace.tasks_stolen, 0u);
  EXPECT_GT(on.trace.engine_tasks, 0u);
}

TEST(Engine, SingleDomainNeverSteals) {
  // One shared-memory domain: every operand is in-domain, the steal boards
  // stay empty, and the whole plan executes as owner work.
  EngineRun on = run_multiply(MachineModel::sgi_altix(4), ProcGrid{2, 2}, 24,
                              24, 24, RmaConfig{}, SrummaOptions{},
                              EngineMode::On, 33);
  expect_engine_ledger(on.trace, "single-domain");
  EXPECT_EQ(on.trace.tasks_stolen, 0u);
  EXPECT_GT(on.trace.engine_tasks, 0u);
}

TEST(Engine, BlockingFaultsCacheStayBitwiseAndReconciled) {
  // The hard corner all at once: blocking mode (no prefetch window), a
  // fault plane injecting failures and corruption (with the verify pass
  // repairing it), and the cooperative block cache sharing fetches.  Both
  // executors must produce the exact serial result and keep their
  // accounting identities; the engine must do it without a single requeue.
  fault::FaultConfig f;
  f.seed = 9;
  f.fail_rate = 0.1;
  f.corrupt_rate = 0.1;
  RetryPolicy rp;
  rp.max_attempts = 6;
  RmaConfig cfg;
  cfg.faults = f;
  cfg.retry = rp;
  cfg.cache = true;
  cfg.cache_capacity = std::uint64_t{64} << 20;
  SrummaOptions opt;
  opt.nonblocking = false;
  opt.shm_flavor = ShmFlavor::Copy;
  opt.verify_checksums = true;
  opt.c_chunk = 8;
  opt.k_chunk = 8;

  const index_t n = 32;
  // beta = 0 (the default), so both runs must reproduce A*B exactly no
  // matter what c_init held; fill seeds match run_multiply's (seed, seed+1).
  Matrix a_g(n, n), b_g(n, n), ref(n, n);
  fill_ints(a_g.view(), 40);
  fill_ints(b_g.view(), 41);
  ref.view().fill(0.0);
  testing::reference_gemm(Trans::No, Trans::No, 1.0, a_g, b_g, 0.0, ref);

  EngineRun off = run_multiply(MachineModel::testing(2, 2), ProcGrid{2, 2}, n,
                               n, n, cfg, opt, EngineMode::Off, 40);
  EngineRun on = run_multiply(MachineModel::testing(2, 2), ProcGrid{2, 2}, n,
                              n, n, cfg, opt, EngineMode::On, 40);
  EXPECT_EQ(max_abs_diff(off.c.view(), ref.view()), 0.0);
  EXPECT_EQ(max_abs_diff(on.c.view(), ref.view()), 0.0);
  EXPECT_EQ(off.trace.copy_tasks + off.trace.direct_tasks,
            off.trace.gemm_calls);
  expect_engine_ledger(on.trace, "blocking-faults-cache");
  EXPECT_GT(on.trace.faults_injected + on.trace.faults_corrupted, 0u);
}

TEST(Engine, EnvSelectionResolvesAutoOnly) {
  // EngineMode::Auto defers to SRUMMA_ENGINE; explicit modes ignore it.
  EXPECT_TRUE(engine::selected(EngineMode::On));
  EXPECT_FALSE(engine::selected(EngineMode::Off));
  // Auto's answer depends on the environment this test runs under (tier 1g
  // sets SRUMMA_ENGINE=1); both answers are legal, it just must not throw.
  (void)engine::selected(EngineMode::Auto);
  for (const char* off : {"", "0"}) {
    testing::ScopedEnv e("SRUMMA_ENGINE", off);
    EXPECT_FALSE(engine::selected(EngineMode::Auto)) << off;
  }
  {
    testing::ScopedEnv e("SRUMMA_ENGINE", "1");
    EXPECT_TRUE(engine::selected(EngineMode::Auto));
    EXPECT_FALSE(engine::selected(EngineMode::Off));
  }
  for (const char* bad : {"false", "true", "01", "yes"})
    testing::expect_env_rejected("SRUMMA_ENGINE", bad, [] {
      (void)engine::selected(EngineMode::Auto);
    });
}

}  // namespace
}  // namespace srumma

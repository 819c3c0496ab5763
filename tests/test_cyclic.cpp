// Tests for the block-cyclic (ScaLAPACK-layout) substrate: 1-D cyclic
// distribution properties (swept), the 2-D cyclic matrix, the cyclic
// pdgemm against the serial oracle, and its agreement with block SUMMA
// where the two layouts coincide.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "baselines/summa.hpp"
#include "cyclic/pdgemm_cyclic.hpp"
#include "trace/metrics_json.hpp"
#include "tests/helpers.hpp"

namespace srumma {
namespace {

// ---- CyclicDist1D property sweep ------------------------------------------

class CyclicDistSweep
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, int>> {};

TEST_P(CyclicDistSweep, PartitionAndRoundTrip) {
  const auto [n, nb, parts] = GetParam();
  CyclicDist1D d(n, nb, parts);
  // local_count sums to n.
  index_t total = 0;
  for (int p = 0; p < parts; ++p) total += d.local_count(p);
  EXPECT_EQ(total, n);
  // owner / to_local / to_global are consistent bijections.
  for (index_t i = 0; i < n; ++i) {
    const int o = d.owner(i);
    const index_t l = d.to_local(i);
    EXPECT_LT(l, d.local_count(o));
    EXPECT_EQ(d.to_global(o, l), i);
    // run_length stays within one block and one owner; the next element
    // after a completed block belongs to the next part (when parts > 1).
    const index_t run = d.run_length(i);
    EXPECT_GE(run, 1);
    EXPECT_EQ(d.owner(i + run - 1), o);
    if (i + run < n && run == nb - i % nb && parts > 1) {
      EXPECT_NE(d.owner(i + run), o);
    }
  }
  // Local enumeration covers each owner's elements exactly once, in order.
  for (int p = 0; p < parts; ++p) {
    index_t prev = -1;
    for (index_t l = 0; l < d.local_count(p); ++l) {
      const index_t g = d.to_global(p, l);
      EXPECT_EQ(d.owner(g), p);
      EXPECT_GT(g, prev);
      prev = g;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CyclicDistSweep,
    ::testing::Values(std::tuple<index_t, index_t, int>{0, 4, 3},
                      std::tuple<index_t, index_t, int>{1, 1, 1},
                      std::tuple<index_t, index_t, int>{10, 3, 2},
                      std::tuple<index_t, index_t, int>{17, 4, 3},
                      std::tuple<index_t, index_t, int>{64, 8, 4},
                      std::tuple<index_t, index_t, int>{65, 8, 4},
                      std::tuple<index_t, index_t, int>{7, 16, 2},  // nb > n
                      std::tuple<index_t, index_t, int>{100, 1, 7}));

TEST(CyclicDist, PlainBlockIsSpecialCase) {
  // nb = ceil(n/parts) degenerates into the plain block distribution.
  CyclicDist1D cyc(20, 7, 3);
  BlockDist1D blk(20, 3);
  // parts 0..2 get 7, 7, 6 under cyclic(7); plain block gives 7, 7, 6.
  for (int p = 0; p < 3; ++p)
    EXPECT_EQ(cyc.local_count(p), blk.count(p));
  for (index_t i = 0; i < 20; ++i) EXPECT_EQ(cyc.owner(i), blk.owner(i));
}

TEST(CyclicDist, InvalidArgsThrow) {
  EXPECT_THROW(CyclicDist1D(10, 0, 2), Error);
  EXPECT_THROW(CyclicDist1D(-1, 2, 2), Error);
  CyclicDist1D d(10, 2, 2);
  EXPECT_THROW((void)d.owner(10), Error);
  EXPECT_THROW((void)d.to_global(0, 99), Error);
}

// ---- CyclicMatrix -----------------------------------------------------------

struct CyEnv {
  Team team;
  RmaRuntime rma;
  explicit CyEnv(MachineModel m) : team(std::move(m)), rma(team) {}
};

TEST(CyclicMatrix, ScatterGatherRoundTrip) {
  CyEnv env(MachineModel::testing(2, 2));
  Matrix global = testing::coords_matrix(13, 9);
  Matrix out(13, 9);
  env.team.run([&](Rank& me) {
    CyclicMatrix x(env.rma, me, 13, 9, 3, 2, ProcGrid{2, 2});
    x.scatter_from(me, global.view());
    x.gather_to(me, out.view());
  });
  EXPECT_EQ(max_abs_diff(global.view(), out.view()), 0.0);
}

TEST(CyclicMatrix, LocalCountsMatchDist) {
  CyEnv env(MachineModel::testing(3, 2));
  env.team.run([&](Rank& me) {
    CyclicMatrix x(env.rma, me, 20, 15, 4, 3, ProcGrid{3, 2});
    index_t total = 0;
    for (int r = 0; r < env.team.size(); ++r)
      total += x.local_rows(r) * x.local_cols(r);
    EXPECT_EQ(total, 20 * 15);
    EXPECT_EQ(x.local_view(me).rows(), x.local_rows(me.id()));
  });
}

TEST(CyclicMatrix, FetchRandomRectangles) {
  CyEnv env(MachineModel::testing(2, 2));
  Matrix global = testing::coords_matrix(19, 17);
  env.team.run([&](Rank& me) {
    CyclicMatrix x(env.rma, me, 19, 17, 3, 4, ProcGrid{2, 2});
    x.scatter_from(me, global.view());
    me.barrier();
    Rng rng(static_cast<std::uint64_t>(777 + me.id()));
    for (int trial = 0; trial < 15; ++trial) {
      const index_t i0 = static_cast<index_t>(rng.below(19));
      const index_t j0 = static_cast<index_t>(rng.below(17));
      const index_t mi = 1 + static_cast<index_t>(rng.below(static_cast<std::uint64_t>(19 - i0)));
      const index_t nj = 1 + static_cast<index_t>(rng.below(static_cast<std::uint64_t>(17 - j0)));
      Matrix dst(mi, nj);
      auto handles = x.fetch_nb(me, i0, j0, mi, nj, dst.view());
      x.wait(me, handles);
      EXPECT_EQ(max_abs_diff(dst.view(), global.block(i0, j0, mi, nj)), 0.0);
    }
  });
}

TEST(CyclicMatrix, FetchCostsMorePiecesThanPlainBlock) {
  // The cyclic layout fragments one-sided access: fetching a whole row
  // band touches every column block — the structural reason SRUMMA uses a
  // plain block distribution.
  CyEnv env(MachineModel::testing(2, 2));
  env.team.run([&](Rank& me) {
    CyclicMatrix cyc(env.rma, me, 32, 32, 4, 4, ProcGrid{2, 2}, true);
    DistMatrix blk(env.rma, me, 32, 32, ProcGrid{2, 2}, true);
    me.barrier();
    const auto gets0 = me.trace().gets;
    auto h1 = cyc.fetch_nb(me, 0, 0, 8, 32, MatrixView{});
    cyc.wait(me, h1);
    const auto cyc_gets = me.trace().gets - gets0;
    PatchHandle h2 = blk.fetch_nb(me, 0, 0, 8, 32, MatrixView{});
    blk.wait(me, h2);
    const auto blk_gets = me.trace().gets - gets0 - cyc_gets;
    EXPECT_GT(cyc_gets, blk_gets * 4);
  });
}

// ---- cyclic pdgemm ----------------------------------------------------------

struct CyclicGemmCase {
  index_t m, n, k, mb, nb, kb;
  int p, q;
};

class CyclicGemmSweep : public ::testing::TestWithParam<CyclicGemmCase> {};

TEST_P(CyclicGemmSweep, MatchesReference) {
  const CyclicGemmCase cc = GetParam();
  CyEnv env(MachineModel::testing(cc.p, cc.q));
  const ProcGrid grid{cc.p, cc.q};
  Matrix a_g = testing::coords_matrix(cc.m, cc.k);
  Matrix b_g(cc.k, cc.n);
  fill_random(b_g.view(), 99);
  Matrix c_ref(cc.m, cc.n);
  testing::reference_gemm(blas::Trans::No, blas::Trans::No, 1.0, a_g, b_g,
                          0.0, c_ref);
  Matrix c_out(cc.m, cc.n);
  Comm comm(env.team);
  env.team.run([&](Rank& me) {
    CyclicMatrix a(env.rma, me, cc.m, cc.k, cc.mb, cc.kb, grid);
    CyclicMatrix b(env.rma, me, cc.k, cc.n, cc.kb, cc.nb, grid);
    CyclicMatrix c(env.rma, me, cc.m, cc.n, cc.mb, cc.nb, grid);
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, b_g.view());
    MultiplyResult r = pdgemm_cyclic(me, comm, a, b, c);
    EXPECT_GT(r.gflops, 0.0);
    // Panel buffers are one full KB block wide, even when KB exceeds K.
    EXPECT_EQ(me.trace().buffer_bytes_peak,
              static_cast<std::uint64_t>(
                  (c.local_rows(me.id()) + c.local_cols(me.id())) * cc.kb) *
                  sizeof(double));
    c.gather_to(me, c_out.view());
  });
  EXPECT_LE(max_abs_diff(c_out.view(), c_ref.view()),
            testing::gemm_tolerance(cc.k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CyclicGemmSweep,
    ::testing::Values(CyclicGemmCase{16, 16, 16, 4, 4, 4, 2, 2},
                      CyclicGemmCase{17, 13, 19, 3, 2, 4, 2, 2},
                      CyclicGemmCase{24, 18, 30, 2, 2, 2, 3, 2},
                      CyclicGemmCase{9, 9, 9, 16, 16, 16, 2, 2},  // nb > n
                      CyclicGemmCase{20, 20, 20, 5, 5, 5, 1, 4},
                      CyclicGemmCase{33, 21, 27, 4, 6, 5, 2, 3}));

// With one block per grid row and column (nb = n/p), the block-cyclic
// layout is the plain block layout, and SUMMA with panel = n/p cuts the
// same panels: both drivers must then model and compute identically.
struct BlockVsCyclicCase {
  index_t n;
  int p;
  bool phantom;
};

class BlockVsCyclic : public ::testing::TestWithParam<BlockVsCyclicCase> {};

TEST_P(BlockVsCyclic, SummaMatchesPdgemmCyclicBitwise) {
  const BlockVsCyclicCase bc = GetParam();
  const index_t n = bc.n;
  const index_t nb = n / bc.p;
  const ProcGrid grid{bc.p, bc.p};
  Matrix a_g(n, n), b_g(n, n);
  fill_random(a_g.view(), 5);
  fill_random(b_g.view(), 6);
  Matrix c_block(n, n), c_cyclic(n, n);
  MultiplyResult r_block, r_cyclic;
  // Both layouts hold global block (pi, pj) as the local array; filling it
  // in place keeps the runs free of scatter traffic, whose schedules differ.
  auto fill_local = [&](Rank& me, const Matrix& g, MatrixView local) {
    const auto [pi, pj] = grid.coords_of(me.id());
    copy(ConstMatrixView(g.view().block(pi * nb, pj * nb, nb, nb)), local);
  };

  {
    CyEnv env(MachineModel::testing(bc.p, bc.p));
    env.team.set_execution(ExecMode::Pooled, 1);
    Comm comm(env.team);
    env.team.run([&](Rank& me) {
      DistMatrix a(env.rma, me, n, n, grid, bc.phantom);
      DistMatrix b(env.rma, me, n, n, grid, bc.phantom);
      DistMatrix c(env.rma, me, n, n, grid, bc.phantom);
      if (!bc.phantom) {
        fill_local(me, a_g, a.local_view(me));
        fill_local(me, b_g, b.local_view(me));
      }
      SummaOptions opt;
      opt.panel = nb;
      MultiplyResult r = summa_multiply(me, comm, a, b, c, opt);
      if (!bc.phantom) c.gather_to(me, c_block.view());
      if (me.id() == 0) r_block = r;
    });
  }
  {
    CyEnv env(MachineModel::testing(bc.p, bc.p));
    env.team.set_execution(ExecMode::Pooled, 1);
    Comm comm(env.team);
    env.team.run([&](Rank& me) {
      CyclicMatrix a(env.rma, me, n, n, nb, nb, grid, bc.phantom);
      CyclicMatrix b(env.rma, me, n, n, nb, nb, grid, bc.phantom);
      CyclicMatrix c(env.rma, me, n, n, nb, nb, grid, bc.phantom);
      if (!bc.phantom) {
        fill_local(me, a_g, a.local_view(me));
        fill_local(me, b_g, b.local_view(me));
      }
      MultiplyResult r = pdgemm_cyclic(me, comm, a, b, c);
      if (!bc.phantom) c.gather_to(me, c_cyclic.view());
      if (me.id() == 0) r_cyclic = r;
    });
  }

  EXPECT_EQ(r_block.elapsed, r_cyclic.elapsed);
  EXPECT_EQ(std::memcmp(&r_block.trace, &r_cyclic.trace,
                        sizeof(TraceCounters)),
            0)
      << "block:  " << trace::counters_json(r_block.trace)
      << "\ncyclic: " << trace::counters_json(r_cyclic.trace);
  if (!bc.phantom) {
    EXPECT_EQ(std::memcmp(c_block.data(), c_cyclic.data(),
                          static_cast<std::size_t>(n * n) * sizeof(double)),
              0);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, BlockVsCyclic,
                         ::testing::Values(BlockVsCyclicCase{96, 2, false},
                                           BlockVsCyclicCase{120, 3, false},
                                           BlockVsCyclicCase{2048, 4, true}));

TEST(CyclicGemm, BlockingMismatchThrows) {
  CyEnv env(MachineModel::testing(2, 1));
  Comm comm(env.team);
  EXPECT_THROW(env.team.run([&](Rank& me) {
    CyclicMatrix a(env.rma, me, 8, 8, 2, 2, ProcGrid{2, 1}, true);
    CyclicMatrix b(env.rma, me, 8, 8, 3, 2, ProcGrid{2, 1}, true);  // KB != MB
    CyclicMatrix c(env.rma, me, 8, 8, 2, 2, ProcGrid{2, 1}, true);
    pdgemm_cyclic(me, comm, a, b, c);
  }),
               Error);
}

TEST(CyclicGemm, AccumulatesWithAlphaBeta) {
  CyEnv env(MachineModel::testing(2, 2));
  const ProcGrid grid{2, 2};
  Matrix a_g = testing::coords_matrix(12, 12);
  Matrix c_init(12, 12);
  fill_random(c_init.view(), 3);
  Matrix c_ref = c_init;
  testing::reference_gemm(blas::Trans::No, blas::Trans::No, -2.0, a_g, a_g,
                          0.5, c_ref);
  Matrix c_out(12, 12);
  Comm comm(env.team);
  env.team.run([&](Rank& me) {
    CyclicMatrix a(env.rma, me, 12, 12, 3, 3, grid);
    CyclicMatrix c(env.rma, me, 12, 12, 3, 3, grid);
    a.scatter_from(me, a_g.view());
    c.scatter_from(me, c_init.view());
    PdgemmCyclicOptions opt;
    opt.alpha = -2.0;
    opt.beta = 0.5;
    pdgemm_cyclic(me, comm, a, a, c, opt);
    c.gather_to(me, c_out.view());
  });
  EXPECT_LE(max_abs_diff(c_out.view(), c_ref.view()),
            testing::gemm_tolerance(12));
}

TEST(CyclicGemm, PhantomModelsSensibly) {
  // Cyclic pdgemm on the Altix model should land within ~2x of the
  // plain-block pdgemm model (they run the same algorithm; blocking
  // granularity differs) — sanity that the baseline simplification used in
  // the paper-figure benches is representative.
  CyEnv env(MachineModel::sgi_altix(16));
  const ProcGrid grid = ProcGrid::near_square(16);
  Comm comm(env.team);
  double t_cyclic = 0.0, t_block = 0.0;
  env.team.run([&](Rank& me) {
    CyclicMatrix a(env.rma, me, 2000, 2000, 64, 64, grid, true);
    CyclicMatrix b(env.rma, me, 2000, 2000, 64, 64, grid, true);
    CyclicMatrix c(env.rma, me, 2000, 2000, 64, 64, grid, true);
    MultiplyResult rc = pdgemm_cyclic(me, comm, a, b, c);
    if (me.id() == 0) t_cyclic = rc.elapsed;
  });
  env.team.reset();
  env.team.run([&](Rank& me) {
    DistMatrix a(env.rma, me, 2000, 2000, grid, true);
    DistMatrix b(env.rma, me, 2000, 2000, grid, true);
    DistMatrix c(env.rma, me, 2000, 2000, grid, true);
    MultiplyResult rb = pdgemm_model(me, comm, a, b, c, PdgemmOptions{});
    if (me.id() == 0) t_block = rb.elapsed;
  });
  EXPECT_LT(t_cyclic, t_block * 2.0);
  EXPECT_GT(t_cyclic, t_block * 0.5);
}

}  // namespace
}  // namespace srumma

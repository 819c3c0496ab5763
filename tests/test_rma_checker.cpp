// Shadow-state RMA checker: one deliberately-broken SPMD body per
// diagnostic class (the checker must catch each), the documented
// exemptions (origin-ordered ops, acc/acc), and clean full-pipeline runs
// with the checker in throw mode (no false positives).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "check/rma_checker.hpp"
#include "core/srumma.hpp"
#include "ga/global_array.hpp"
#include "tests/helpers.hpp"

namespace srumma {
namespace {

using check::Diag;

/// RmaRuntime with the checker recording (not throwing) regardless of the
/// environment.
RmaConfig recording_checker() {
  RmaConfig cfg;
  cfg.check = true;
  cfg.check_throw = false;
  return cfg;
}

RmaConfig throwing_checker() {
  RmaConfig cfg;
  cfg.check = true;
  cfg.check_throw = true;
  return cfg;
}

int count(const std::vector<check::CheckReport>& rs, Diag d) {
  return static_cast<int>(std::count_if(
      rs.begin(), rs.end(),
      [&](const check::CheckReport& r) { return r.diag == d; }));
}

// (1) Re-targeting the destination buffer of a get that has not been
// wait()ed is premature reuse.
TEST(CheckerEnv, SwitchIsZeroOrOne) {
  for (const char* off : {"", "0"}) {
    testing::ScopedEnv e("SRUMMA_RMA_CHECK", off);
    EXPECT_FALSE(check::RmaChecker::env_enabled()) << off;
  }
  {
    testing::ScopedEnv e("SRUMMA_RMA_CHECK", "1");
    EXPECT_TRUE(check::RmaChecker::env_enabled());
  }
  for (const char* bad : {"on", "true", "01"})
    testing::expect_env_rejected("SRUMMA_RMA_CHECK", bad, [] {
      (void)check::RmaChecker::env_enabled();
    });
}

TEST(CheckerDiag, UseBeforeWait) {
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team, recording_checker());
  team.run([&](Rank& me) {
    SymmetricRegion region = rma.malloc_symmetric(me, 16);
    const int peer = 1 - me.id();
    std::vector<double> buf(16, 0.0);
    RmaHandle h1 = rma.nbget(me, peer, region.base(peer), buf.data(), 16);
    RmaHandle h2 = rma.nbget(me, peer, region.base(peer), buf.data(), 16);
    rma.wait(me, h1);
    rma.wait(me, h2);
    me.barrier();
  });
  const auto rs = rma.checker()->reports();
  EXPECT_EQ(count(rs, Diag::UseBeforeWait), 2);  // one per rank
  EXPECT_EQ(static_cast<int>(rs.size()), 2);
}

// (1) Reading the buffer from compute before wait() is the same bug.
TEST(CheckerDiag, UseBeforeWaitFromCompute) {
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team, recording_checker());
  team.run([&](Rank& me) {
    SymmetricRegion region = rma.malloc_symmetric(me, 16);
    const int peer = 1 - me.id();
    std::vector<double> buf(16, 0.0);
    RmaHandle h =
        rma.nbget2d(me, peer, region.base(peer), 4, 4, 4, buf.data(), 4);
    rma.declare_compute_read(me, buf.data(), 4, 4, 4);  // dgemm would do this
    rma.wait(me, h);
    me.barrier();
  });
  EXPECT_EQ(count(rma.checker()->reports(), Diag::UseBeforeWait), 2);
}

// (2) A handle must not cross a barrier without wait().
TEST(CheckerDiag, UnwaitedAtBarrier) {
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team, recording_checker());
  team.run([&](Rank& me) {
    SymmetricRegion region = rma.malloc_symmetric(me, 8);
    const int peer = 1 - me.id();
    std::vector<double> buf(8, 0.0);
    RmaHandle h = rma.nbget(me, peer, region.base(peer), buf.data(), 8);
    me.barrier();  // h still pending: completion is now undefined
    (void)h;
  });
  const auto rs = rma.checker()->reports();
  EXPECT_EQ(count(rs, Diag::UnwaitedAtBarrier), 2);
  EXPECT_EQ(static_cast<int>(rs.size()), 2);
}

// (3) An unwaited put overlapping a get in the same epoch is a race.
TEST(CheckerDiag, EpochConflict) {
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team, recording_checker());
  team.run([&](Rank& me) {
    SymmetricRegion region = rma.malloc_symmetric(me, 16);
    if (me.id() == 0) {
      std::vector<double> src(4, 1.0);
      std::vector<double> dst(4, 0.0);
      RmaHandle hp =
          rma.nbput2d(me, 1, src.data(), 4, 4, 1, region.base(1), 4);
      RmaHandle hg =  // overlaps the put, same epoch, put not waited
          rma.nbget2d(me, 1, region.base(1), 4, 4, 1, dst.data(), 4);
      rma.wait(me, hp);
      rma.wait(me, hg);
    }
    me.barrier();
  });
  const auto rs = rma.checker()->reports();
  EXPECT_EQ(count(rs, Diag::EpochConflict), 1);
  EXPECT_EQ(static_cast<int>(rs.size()), 1);
}

// (3-exemption) The same pair ordered by wait() is legal: one origin's
// completed op happens-before its next op.
TEST(CheckerDiag, EpochConflictExemptsOriginOrderedOps) {
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team, recording_checker());
  team.run([&](Rank& me) {
    SymmetricRegion region = rma.malloc_symmetric(me, 16);
    if (me.id() == 0) {
      std::vector<double> src(4, 1.0);
      std::vector<double> dst(4, 0.0);
      RmaHandle hp =
          rma.nbput2d(me, 1, src.data(), 4, 4, 1, region.base(1), 4);
      rma.wait(me, hp);  // orders the put before the get
      RmaHandle hg =
          rma.nbget2d(me, 1, region.base(1), 4, 4, 1, dst.data(), 4);
      rma.wait(me, hg);
    }
    me.barrier();
  });
  EXPECT_EQ(rma.checker()->report_count(), 0u);
}

// (3-exemption) Concurrent accumulates are atomic by specification.
TEST(CheckerDiag, EpochConflictExemptsAccAcc) {
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team, recording_checker());
  team.run([&](Rank& me) {
    SymmetricRegion region = rma.malloc_symmetric(me, 16);
    std::vector<double> src(16, 1.0);
    // Both ranks accumulate into rank 0's whole segment concurrently.
    RmaHandle h =
        rma.nbacc2d(me, 0, 1.0, src.data(), 4, 4, 4, region.base(0), 4);
    rma.wait(me, h);
    me.barrier();
  });
  EXPECT_EQ(rma.checker()->report_count(), 0u);
}

// (3) Interleaved strided patches that do NOT overlap must not conflict:
// rank 0 puts the even columns, rank 1 the odd columns, concurrently.
TEST(CheckerDiag, EpochConflictExactStridesNoFalsePositive) {
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team, recording_checker());
  team.run([&](Rank& me) {
    SymmetricRegion region = rma.malloc_symmetric(me, 32);  // 4 x 8, ld 4
    std::vector<double> src(16, static_cast<double>(me.id()));
    // Columns me, me+2, me+4, me+6 of owner 0's block: stride 2 columns.
    RmaHandle h = rma.nbput2d(me, 0, src.data(), 4, 4, 4,
                              region.base(0) + 4 * me.id(), 8);
    rma.wait(me, h);
    me.barrier();
  });
  EXPECT_EQ(rma.checker()->report_count(), 0u);
}

// (4) Direct load/store is only legal within the caller's memory domain.
TEST(CheckerDiag, NonDomainDirect) {
  Team team(MachineModel::testing(2, 1));  // two single-rank nodes
  RmaRuntime rma(team, recording_checker());
  team.run([&](Rank& me) {
    SymmetricRegion region = rma.malloc_symmetric(me, 16);
    if (me.id() == 0) {
      // Rank 1 lives on the other node; reach-through is illegal.
      rma.declare_direct_access(me, region, 1, 0, 4, 4, 4);
    }
    me.barrier();
  });
  const auto rs = rma.checker()->reports();
  EXPECT_EQ(count(rs, Diag::NonDomainDirect), 1);
  EXPECT_EQ(static_cast<int>(rs.size()), 1);
}

// (5) free_symmetric while a transfer is still pending.
TEST(CheckerDiag, PendingAtFree) {
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team, recording_checker());
  team.run([&](Rank& me) {
    SymmetricRegion region = rma.malloc_symmetric(me, 8);
    const int peer = 1 - me.id();
    std::vector<double> buf(8, 0.0);
    RmaHandle h = rma.nbget(me, peer, region.base(peer), buf.data(), 8);
    rma.free_symmetric(me, region);  // h never waited
    (void)h;
  });
  const auto rs = rma.checker()->reports();
  EXPECT_EQ(count(rs, Diag::PendingAtFree), 2);
  EXPECT_EQ(static_cast<int>(rs.size()), 2);
}

// (5) A footprint that runs past the end of the owner's segment.
TEST(CheckerDiag, OutOfBounds) {
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team, recording_checker());
  team.run([&](Rank& me) {
    SymmetricRegion region = rma.malloc_symmetric(me, 8);  // 64 bytes
    const int peer = 1 - me.id();
    // 4 x 4 patch = 128 bytes from a 64-byte segment.  dst is null so the
    // runtime skips the (genuinely out-of-bounds) data copy; the checker
    // diagnoses from the owner-side footprint alone.
    RmaHandle h =
        rma.nbget2d(me, peer, region.base(peer), 4, 4, 4, nullptr, 4);
    rma.wait(me, h);
    me.barrier();
  });
  EXPECT_EQ(count(rma.checker()->reports(), Diag::OutOfBounds), 2);
}

// (6) wait() on a handle that already completed.
TEST(CheckerDiag, DoubleWait) {
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team, recording_checker());
  team.run([&](Rank& me) {
    SymmetricRegion region = rma.malloc_symmetric(me, 8);
    const int peer = 1 - me.id();
    std::vector<double> buf(8, 0.0);
    RmaHandle h = rma.nbget(me, peer, region.base(peer), buf.data(), 8);
    rma.wait(me, h);
    rma.wait(me, h);  // idempotent at runtime, diagnosed by the checker
    me.barrier();
  });
  const auto rs = rma.checker()->reports();
  EXPECT_EQ(count(rs, Diag::DoubleWait), 2);
  EXPECT_EQ(static_cast<int>(rs.size()), 2);
}

// RmaConfig::check = false keeps the checker off even when the environment
// asks for it (the zero-overhead disabled path).
TEST(CheckerConfig, ExplicitOffOverridesEnvironment) {
  Team team(MachineModel::testing(1, 2));
  RmaConfig cfg;
  cfg.check = false;
  RmaRuntime rma(team, cfg);
  EXPECT_EQ(rma.checker(), nullptr);
}

// Clean full-pipeline runs: with the checker in throw mode any diagnostic
// aborts the run, so completing is the assertion.
TEST(CheckerClean, SrummaMultiplyPassesUnderChecker) {
  for (const bool phantom : {false, true}) {
    Team team(MachineModel::testing(2, 2));
    RmaRuntime rma(team, throwing_checker());
    const index_t n = 24;
    team.run([&](Rank& me) {
      DistMatrix a(rma, me, n, n, ProcGrid{2, 2}, phantom);
      DistMatrix b(rma, me, n, n, ProcGrid{2, 2}, phantom);
      DistMatrix c(rma, me, n, n, ProcGrid{2, 2}, phantom);
      if (!phantom) {
        a.fill_coords_local(me);
        b.fill_coords_local(me);
        c.local_view(me).fill(0.0);
      }
      me.barrier();
      SrummaOptions opt;
      (void)srumma_multiply(me, a, b, c, opt);
      a.destroy(me);
      b.destroy(me);
      c.destroy(me);
    });
    ASSERT_NE(rma.checker(), nullptr);
    EXPECT_EQ(rma.checker()->report_count(), 0u) << "phantom=" << phantom;
  }
}

TEST(CheckerClean, GlobalArrayOpsPassUnderChecker) {
  Team team(MachineModel::testing(2, 2));
  RmaRuntime rma(team, throwing_checker());
  const index_t n = 16;
  team.run([&](Rank& me) {
    ga::GlobalArray a(rma, me, n, n);
    ga::GlobalArray b(rma, me, n, n);
    ga::GlobalArray c(rma, me, n, n);
    a.fill_pattern(me);
    b.fill(me, 0.5);
    c.fill(me, 0.0);
    if (me.id() == 0) {
      Matrix patch(4, 4);
      patch.view().fill(2.0);
      a.put(me, 0, 0, 4, 4, patch.view());
    }
    a.sync(me);
    Matrix out(4, 4);
    a.get(me, 0, 0, 4, 4, out.view());
    a.sync(me);
    Matrix inc(2, 2);
    inc.view().fill(1.0);
    b.acc(me, 0, 0, 2, 2, 1.0, inc.view());
    b.sync(me);
    (void)ga::dgemm(me, 'n', 'n', 1.0, a, b, 0.0, c);
    (void)ga::dot(me, a, b);
    ga::scale(me, c, 2.0);
    a.destroy(me);
    b.destroy(me);
    c.destroy(me);
  });
  ASSERT_NE(rma.checker(), nullptr);
  EXPECT_EQ(rma.checker()->report_count(), 0u);
}

}  // namespace
}  // namespace srumma

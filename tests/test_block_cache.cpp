// Domain-level cooperative block cache: single-flight fetch sharing,
// LRU eviction under capacity pressure, dirty-entry re-arm under fault
// injection, checker cleanliness, and the zero-byte RMA fast path.
//
// Determinism caveat baked into the assertions: WHICH domain mate becomes
// the fetcher for a key is a real-time race (an accepted design property,
// like resource booking order), so per-role counters (hits vs joins,
// which rank missed) are asserted as sums/inequalities — but the numerical
// result is always bitwise equal to the serial reference, because only
// bytes equal to the owner's are ever published.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>

#include "cache/block_cache.hpp"
#include "core/srumma.hpp"
#include "tests/helpers.hpp"

namespace srumma {
namespace {

// Small-integer fill: every partial product is exactly representable, so
// cache-on, cache-off, and faulty runs must all match the serial reference
// bitwise.
void fill_ints(MatrixView v, std::uint64_t seed) {
  Rng rng(seed);
  for (index_t j = 0; j < v.cols(); ++j)
    for (index_t i = 0; i < v.rows(); ++i)
      v(i, j) = static_cast<double>(static_cast<int>(rng.below(9))) - 4.0;
}

Matrix reference_product(index_t n, std::uint64_t fill_seed) {
  Matrix a(n, n), b(n, n), c(n, n);
  fill_ints(a.view(), fill_seed);
  fill_ints(b.view(), fill_seed + 1);
  c.view().fill(0.0);
  testing::reference_gemm(blas::Trans::No, blas::Trans::No, 1.0, a, b, 0.0, c);
  return c;
}

struct CacheRun {
  Matrix c;
  MultiplyResult result;
  std::size_t checker_reports = 0;
};

// testing(4, 2) with a 4x2 grid: each node's two ranks sit in one grid
// column (ranks 2n, 2n+1 = (pi, pj), (pi+1, pj)), so domain mates own the
// same C column range and request IDENTICAL remote B patches — the
// cooperative-sharing case — while remote A patches stay unique per rank.
CacheRun run_grid_multiply(const RmaConfig& cfg, const SrummaOptions& opt,
                           index_t n, std::uint64_t fill_seed) {
  Team team(MachineModel::testing(4, 2));
  RmaRuntime rma(team, cfg);
  const ProcGrid grid{4, 2};
  Matrix a_global(n, n), b_global(n, n);
  fill_ints(a_global.view(), fill_seed);
  fill_ints(b_global.view(), fill_seed + 1);

  CacheRun out{Matrix(n, n), {}, 0};
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, n, n, grid);
    DistMatrix b(rma, me, n, n, grid);
    DistMatrix c(rma, me, n, n, grid);
    a.scatter_from(me, a_global.view());
    b.scatter_from(me, b_global.view());
    c.local_view(me).fill(0.0);
    MultiplyResult r = srumma_multiply(me, a, b, c, opt);
    if (me.id() == 0) out.result = r;
    c.gather_to(me, out.c.view());
  });
  if (rma.checker() != nullptr) out.checker_reports = rma.checker()->report_count();
  return out;
}

// Copy flavor + small C tiles: every task goes through the fetch path and
// each remote B patch is requested Tci times per rank, so the cache sees
// both cooperative sharing and temporal reuse.
SrummaOptions tiled_copy_options() {
  SrummaOptions opt;
  opt.shm_flavor = ShmFlavor::Copy;
  opt.c_chunk = 16;
  return opt;
}

TEST(BlockCache, OffByDefaultAndExplicitlyDisabled) {
  // This test is about the *defaults*, so shield it from the cache-enabled
  // environment matrix (scripts/check.sh tier 1f exports SRUMMA_CACHE=1).
  testing::ScopedEnv no_cache("SRUMMA_CACHE", nullptr);
  Team team(MachineModel::testing(2, 2));
  RmaRuntime plain(team);
  EXPECT_EQ(plain.block_cache(), nullptr);
  RmaConfig off;
  off.cache = false;
  RmaRuntime disabled(team, off);
  EXPECT_EQ(disabled.block_cache(), nullptr);
  RmaConfig on;
  on.cache = true;
  RmaRuntime enabled(team, on);
  ASSERT_NE(enabled.block_cache(), nullptr);
  EXPECT_TRUE(enabled.block_cache()->config().enabled);
}

TEST(BlockCache, SingleFlightSharesRemoteBytesBitIdentically) {
  const index_t n = 128;
  SrummaOptions opt = tiled_copy_options();
  // Four row tiles per local C block: every remote patch is touched at
  // least four times by its rank, so intra-rank temporal reuse ALONE cuts
  // modeled NIC bytes >= 2x even if thread scheduling denies every
  // cross-mate share (the causality rule refetches a key published later
  // in virtual time than the requester's now — see src/cache).
  opt.c_chunk = 8;
  RmaConfig off_cfg;
  off_cfg.cache = false;
  const CacheRun off = run_grid_multiply(off_cfg, opt, n, 11);
  RmaConfig on_cfg;
  on_cfg.cache = true;
  on_cfg.cache_capacity = 1u << 20;  // hold the whole B working set
  const CacheRun on = run_grid_multiply(on_cfg, opt, n, 11);

  // Bitwise identical to each other and to the serial reference.
  const Matrix ref = reference_product(n, 11);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(off.c(i, j), ref(i, j)) << i << "," << j;
      ASSERT_EQ(on.c(i, j), ref(i, j)) << i << "," << j;
    }

  // The cache engaged: every duplicate inter-node get became a share, and
  // the modeled NIC byte reduction is exactly the bytes-saved gauge.
  const TraceCounters& t = on.result.trace;
  EXPECT_GT(t.cache_misses, 0u);
  EXPECT_GT(t.cache_hits + t.cache_joins, 0u);
  EXPECT_EQ(t.cache_rearms, 0u);  // no faults injected
  EXPECT_GT(t.cache_bytes_saved, 0u);
  EXPECT_EQ(t.bytes_remote + t.cache_bytes_saved,
            off.result.trace.bytes_remote);
  // Domain mates duplicate every remote B patch and C tiling re-requests
  // it per row tile: cooperative + temporal reuse cuts modeled inter-node
  // get bytes at least in half on this topology, with the intra-rank half
  // guaranteed regardless of OS scheduling (a rank's own repeat touch of a
  // key always shares).
  EXPECT_LE(2 * t.bytes_remote, off.result.trace.bytes_remote);
}

TEST(BlockCache, LruEvictionUnderCapacityPressureStaysCorrect) {
  const index_t n = 128;
  const SrummaOptions opt = tiled_copy_options();
  RmaConfig cfg;
  cfg.cache = true;
  // Room for only two 32x16 patches: constant eviction pressure.
  cfg.cache_capacity = 2 * 32 * 16 * sizeof(double);
  const CacheRun run = run_grid_multiply(cfg, opt, n, 23);

  const Matrix ref = reference_product(n, 23);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      ASSERT_EQ(run.c(i, j), ref(i, j)) << i << "," << j;
  EXPECT_GT(run.result.trace.cache_evictions, 0u);
}

TEST(BlockCache, FaultyFetchesRearmAndStillMatchReference) {
  const index_t n = 128;
  SrummaOptions opt = tiled_copy_options();
  opt.verify_checksums = true;  // corrupted payloads must never publish
  RmaConfig cfg;
  cfg.cache = true;
  cfg.cache_capacity = 1u << 20;
  fault::FaultConfig fc;
  fc.seed = 0xCAFE;
  fc.fail_rate = 0.15;
  fc.corrupt_rate = 0.10;
  cfg.faults = fc;
  RetryPolicy retry;
  retry.max_attempts = 20;
  cfg.retry = retry;
  const CacheRun run = run_grid_multiply(cfg, opt, n, 37);

  const Matrix ref = reference_product(n, 37);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      ASSERT_EQ(run.c(i, j), ref(i, j)) << i << "," << j;
  const TraceCounters& t = run.result.trace;
  EXPECT_GT(t.faults_injected + t.faults_corrupted, 0u);
  EXPECT_GT(t.cache_misses, 0u);
}

TEST(BlockCache, CheckerSeesNoDiagnosticsWithSharingActive) {
  const index_t n = 128;
  const SrummaOptions opt = tiled_copy_options();
  RmaConfig cfg;
  cfg.cache = true;
  cfg.cache_capacity = 1u << 20;
  cfg.check = true;
  cfg.check_throw = false;
  const CacheRun run = run_grid_multiply(cfg, opt, n, 41);
  EXPECT_EQ(run.checker_reports, 0u);
  EXPECT_GT(run.result.trace.cache_hits + run.result.trace.cache_joins, 0u);
}

// ---------------------------------------------------------------------------
// Protocol-level unit tests driving BlockCacheSet directly.

TEST(BlockCacheProtocol, DirtyEntryIsRearmedNotShared) {
  Team team(MachineModel::testing(1, 2));
  RmaConfig cfg;
  cfg.cache = true;
  cfg.cache_capacity = 1u << 16;
  RmaRuntime rma(team, cfg);
  cache::BlockCacheSet* cs = rma.block_cache();
  ASSERT_NE(cs, nullptr);

  Matrix payload(4, 4);
  fill_ints(payload.view(), 5);
  const cache::PatchKey key{1, 0, 0, 4, 4};

  team.run([&](Rank& me) {
    cs->begin_epoch(me, 0);
    me.barrier();
    if (me.id() == 0) {
      // First fetch draws a fault: dirty, never published.
      cache::Ref r1 = cs->acquire(
          me, key, 128,
          [&] { return cache::FetchOutcome{me.clock().now(), false}; },
          payload.view());
      ASSERT_EQ(r1.role, cache::Role::Fetch);
      EXPECT_FALSE(r1.rearmed);
      cs->finish_fetch(me, r1, /*publishable=*/false, payload.view());

      // Second request re-arms (fresh generation) instead of sharing, and
      // its clean outcome publishes.
      cache::Ref r2 = cs->acquire(
          me, key, 128,
          [&] { return cache::FetchOutcome{me.clock().now() + 1e-6, true}; },
          payload.view());
      ASSERT_EQ(r2.role, cache::Role::Fetch);
      EXPECT_TRUE(r2.rearmed);
      cs->finish_fetch(me, r2, /*publishable=*/true, payload.view());
      EXPECT_EQ(me.trace().cache_rearms, 1u);

      // Third request is a plain share of the published copy.
      Matrix dst(4, 4);
      cache::Ref r3 = cs->acquire(
          me, key, 128,
          [&] {
            ADD_FAILURE() << "ready entry must not refetch";
            return cache::FetchOutcome{};
          },
          ConstMatrixView{});
      ASSERT_EQ(r3.role, cache::Role::Shared);
      cs->consume_shared(me, r3, dst.view());
      for (index_t j = 0; j < 4; ++j)
        for (index_t i = 0; i < 4; ++i)
          ASSERT_EQ(dst(i, j), payload(i, j));
      EXPECT_EQ(me.trace().cache_bytes_saved, 128u);
    }
    me.barrier();
    cs->end_epoch(me);
  });
}

TEST(BlockCacheProtocol, LatePublishGuardedByGeneration) {
  Team team(MachineModel::testing(1, 2));
  RmaConfig cfg;
  cfg.cache = true;
  cfg.cache_capacity = 1u << 16;
  RmaRuntime rma(team, cfg);
  cache::BlockCacheSet* cs = rma.block_cache();
  Matrix stale(2, 2), fresh(2, 2);
  stale.view().fill(-1.0);
  fresh.view().fill(7.0);
  const cache::PatchKey key{9, 0, 0, 2, 2};

  team.run([&](Rank& me) {
    cs->begin_epoch(me, 0);
    me.barrier();
    if (me.id() == 0) {
      cache::Ref r1 = cs->acquire(
          me, key, 32,
          [&] { return cache::FetchOutcome{me.clock().now(), false}; },
          stale.view());
      // A re-arm races ahead of r1's recovery and publishes generation 2...
      cache::Ref r2 = cs->acquire(
          me, key, 32,
          [&] { return cache::FetchOutcome{me.clock().now(), true}; },
          fresh.view());
      ASSERT_EQ(r2.role, cache::Role::Fetch);
      cs->finish_fetch(me, r2, true, fresh.view());
      // ...so r1's stale late publish must be discarded by the generation
      // guard instead of overwriting the newer bytes.
      cs->finish_fetch(me, r1, true, stale.view());

      Matrix dst(2, 2);
      cache::Ref r3 =
          cs->acquire(me, key, 32, [] { return cache::FetchOutcome{}; },
                      ConstMatrixView{});
      ASSERT_EQ(r3.role, cache::Role::Shared);
      cs->consume_shared(me, r3, dst.view());
      for (index_t j = 0; j < 2; ++j)
        for (index_t i = 0; i < 2; ++i) ASSERT_EQ(dst(i, j), 7.0);
    }
    me.barrier();
    cs->end_epoch(me);
  });
}

// TSan stress: every rank of two 8-rank domains hammers the same small key
// set concurrently; shared payloads must always match what the key's
// fetcher published, under both ample capacity and eviction pressure.
TEST(BlockCacheProtocol, ConcurrentSameKeyStressDeliversExactBytes) {
  for (const std::uint64_t capacity : {std::uint64_t{1} << 20,
                                       std::uint64_t{3 * 6 * 6 * 8}}) {
    Team team(MachineModel::testing(2, 8));
    RmaConfig cfg;
    cfg.cache = true;
    cfg.cache_capacity = capacity;
    RmaRuntime rma(team, cfg);
    cache::BlockCacheSet* cs = rma.block_cache();
    constexpr int kKeys = 12;
    constexpr int kRounds = 40;
    std::atomic<std::uint64_t> shares{0};

    team.run([&](Rank& me) {
      cs->begin_epoch(me, 0);
      me.barrier();
      Matrix mine(6, 6), dst(6, 6);
      for (int round = 0; round < kRounds; ++round) {
        // Different visit orders per rank maximize interleaving.
        const int ki = (round * (1 + me.id() % 5) + me.id()) % kKeys;
        const cache::PatchKey key{7, index_t{6 * ki}, 0, 6, 6};
        const double expect = static_cast<double>(ki) + 0.5;
        mine.view().fill(expect);
        cache::Ref ref = cs->acquire(
            me, key, 6 * 6 * sizeof(double),
            [&] { return cache::FetchOutcome{me.clock().now(), true}; },
            mine.view());
        if (ref.role == cache::Role::Shared) {
          dst.view().fill(0.0);
          cs->consume_shared(me, ref, dst.view());
          for (index_t j = 0; j < 6; ++j)
            for (index_t i = 0; i < 6; ++i) ASSERT_EQ(dst(i, j), expect);
          shares.fetch_add(1, std::memory_order_relaxed);
        } else if (ref.role == cache::Role::Fetch) {
          cs->finish_fetch(me, ref, true, mine.view());
        }
      }
      me.barrier();
      cs->end_epoch(me);
    });
    EXPECT_GT(shares.load(), 0u);
    const TraceCounters total = team.total_trace();
    if (capacity < (std::uint64_t{1} << 20)) {
      EXPECT_GT(total.cache_evictions + total.cache_bypasses, 0u);
    }
    // All entries unpinned at the epoch boundary: both domains drained.
    EXPECT_EQ(cs->resident(0), 0u);
    EXPECT_EQ(cs->resident(1), 0u);
  }
}

// ---------------------------------------------------------------------------
// Satellite regressions.

TEST(RmaZeroByte, CompletesImmediatelyWithoutOverheadOrFaultDraw) {
  // A fault window covering ONLY the first drawn op: if a zero-byte get
  // consumed a decision-stream slot, the real get after it would escape
  // the window and complete cleanly.
  RmaConfig cfg;
  fault::FaultConfig fc;
  fc.fail_rate = 1.0;
  fc.first_op = 0;
  fc.last_op = 0;
  cfg.faults = fc;
  RetryPolicy retry;
  retry.max_attempts = 1;
  cfg.retry = retry;

  Team team(MachineModel::testing(2, 1));
  RmaRuntime rma(team, cfg);
  team.run([&](Rank& me) {
    SymmetricRegion region = rma.malloc_symmetric(me, 64);
    if (me.id() == 0) {
      Matrix dst(8, 8);
      const double t0 = me.clock().now();
      RmaHandle zr = rma.nbget2d(me, 1, region.base(1), 8, 0, 5,
                                 dst.data(), dst.ld());
      RmaHandle zc = rma.nbget2d(me, 1, region.base(1), 8, 5, 0,
                                 dst.data(), dst.ld());
      // No issue overhead charged, completion at the current clock, no
      // fault consulted (rate is 1.0 inside the window).
      EXPECT_EQ(me.clock().now(), t0);
      EXPECT_EQ(zr.completion, t0);
      EXPECT_EQ(zc.completion, t0);
      EXPECT_FALSE(zr.failed);
      EXPECT_FALSE(zc.failed);
      EXPECT_EQ(rma.try_wait(me, zr), RmaStatus::Ok);
      EXPECT_EQ(rma.try_wait(me, zc), RmaStatus::Ok);
      EXPECT_EQ(me.clock().now(), t0);

      // The first REAL op draws decision slot 0 and fails — proof the
      // zero-byte issues above did not advance the fault stream.
      RmaHandle real = rma.nbget2d(me, 1, region.base(1), 8, 4, 4,
                                   dst.data(), dst.ld());
      EXPECT_EQ(rma.try_wait(me, real), RmaStatus::Error);
      EXPECT_EQ(me.trace().faults_injected, 1u);
    }
    me.barrier();
    rma.free_symmetric(me, region);
  });
}

TEST(CacheConfig, EnvCapacityParsesStrictly) {
  cache::CacheConfig base;
  base.capacity_bytes = 77;
  {
    testing::ScopedEnv cap("SRUMMA_CACHE_CAP", nullptr);
    EXPECT_EQ(cache::CacheConfig::from_env(base).capacity_bytes, 77u);
  }
  {
    testing::ScopedEnv cap("SRUMMA_CACHE_CAP", "0");  // 0 = auto-size
    EXPECT_EQ(cache::CacheConfig::from_env(base).capacity_bytes, 0u);
  }
  {
    testing::ScopedEnv cap("SRUMMA_CACHE_CAP", "1048576");
    EXPECT_EQ(cache::CacheConfig::from_env(base).capacity_bytes, 1048576u);
  }
  for (const char* bad : {"abc", "-1", "1M", "18446744073709551615"}) {
    testing::ScopedEnv cap("SRUMMA_CACHE_CAP", bad);
    EXPECT_THROW((void)cache::CacheConfig::from_env(base), Error) << bad;
  }
}

TEST(CacheConfig, EnvSwitchIsZeroOrOne) {
  cache::CacheConfig base;
  {
    testing::ScopedEnv e("SRUMMA_CACHE", nullptr);
    EXPECT_FALSE(cache::CacheConfig::from_env(base).enabled);
  }
  for (const char* off : {"", "0"}) {
    testing::ScopedEnv e("SRUMMA_CACHE", off);
    EXPECT_FALSE(cache::CacheConfig::from_env(base).enabled) << off;
  }
  {
    testing::ScopedEnv e("SRUMMA_CACHE", "1");
    EXPECT_TRUE(cache::CacheConfig::from_env(base).enabled);
  }
  for (const char* bad : {"01", "true", "on", "2"})
    testing::expect_env_rejected("SRUMMA_CACHE", bad, [&] {
      (void)cache::CacheConfig::from_env(base);
    });
}

TEST(Lookahead, MalformedEnvThrows) {
  const SrummaOptions opt = tiled_copy_options();
  for (const char* bad : {"0", "65", "abc"}) {
    testing::ScopedEnv e("SRUMMA_LOOKAHEAD", bad);
    EXPECT_THROW((void)run_grid_multiply(RmaConfig{}, opt, 32, 53), Error)
        << bad;
  }
}

TEST(Lookahead, EnvOverrideAndHeuristicBothMatchReference) {
  const index_t n = 128;
  SrummaOptions opt = tiled_copy_options();
  ASSERT_EQ(opt.lookahead, 0);  // default = auto
  const Matrix ref = reference_product(n, 53);

  // Heuristic path (no env): clamp(ceil(latency*bw/patch_bytes), 1, 8).
  const CacheRun heur = run_grid_multiply(RmaConfig{}, opt, n, 53);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) ASSERT_EQ(heur.c(i, j), ref(i, j));

  // Env override path.
  const CacheRun env = [&] {
    testing::ScopedEnv e("SRUMMA_LOOKAHEAD", "3");
    return run_grid_multiply(RmaConfig{}, opt, n, 53);
  }();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) ASSERT_EQ(env.c(i, j), ref(i, j));

  // Explicit option still wins over auto.
  opt.lookahead = 2;
  const CacheRun expl = run_grid_multiply(RmaConfig{}, opt, n, 53);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) ASSERT_EQ(expl.c(i, j), ref(i, j));
}

}  // namespace
}  // namespace srumma

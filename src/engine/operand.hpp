#pragma once
// The per-task step shared by every SRUMMA task loop.
//
// One OperandState is one acquired patch of A or B: either a direct
// (in-place) view of a peer's block, or a copy fetched into a local buffer
// with a (possibly) nonblocking generalized get, optionally routed through
// the cooperative block cache.  The static pipeline (core/srumma.cpp) owns
// a rotating pool of these; the dependency-driven engine (engine/engine.cpp)
// hands each task-graph operand its own refcounted state.
//
// One task step (paper Section 3.1) is: acquire the A and B patches, land
// them (wait, verify, finish the cache), then block_product into a C tile.
// The four task loops — the Fig. 3 pipeline, the engine's owner and thief,
// and fail-stop adoption (engine/recovery.cpp) — only schedule steps, so
// their C results and fault behavior agree by construction.
//
// Accounting note: acquire() deliberately bumps no task-classification
// counters.  copy_tasks / direct_tasks count *block products* and are
// classified by block_product at execution time (both operands direct ->
// direct, else copy), so the identity
//     copy_tasks + direct_tasks == executed block products
// holds exactly even under fetch reissues and A-patch reuse.

#include <cstdint>

#include "cache/block_cache.hpp"
#include "core/options.hpp"
#include "core/task_plan.hpp"
#include "dist/dist_matrix.hpp"

namespace srumma::engine {

// One acquired operand patch: either a direct (in-place) view of a peer's
// block, or a copy fetched into a local buffer.
struct OperandState {
  Matrix buf;            // backing storage for the copy path
  PatchHandle handle;    // pending fetch (copy path only)
  ConstMatrixView view;  // what dgemm will read (empty in phantom mode)
  // Patch identity, for A-reuse matching.
  index_t i0 = -1, j0 = -1, m = -1, n = -1;
  bool valid = false;
  bool direct = false;
  // The fetch behind this state exhausted its RMA retries: the buffer
  // contents are unreliable.  Every task that reads it must be requeued
  // (pipeline) or re-armed (engine), including later A-reuse consumers —
  // the flag stays set until the state is re-acquired, and matches()
  // refuses to pair a new task with it.
  bool failed = false;
  // Cooperative-cache participation of the current acquire (inactive when
  // the cache is off, the patch is in-domain, or the path is direct).
  cache::Ref cache_ref;
  double rate_factor = 1.0;  // dgemm rate multiplier for direct access
  // Modeled buffer capacity this state has grown to via copy-path
  // acquires (tracked even in phantom mode, where nothing is allocated).
  std::uint64_t cap_bytes = 0;
  // Highest task index that reads this state (pipeline executor only).  A
  // state may only be evicted (refetched with a different patch) once that
  // task has been computed — reuse runs can keep a buffer live across many
  // pipeline slots.
  std::ptrdiff_t last_user = -1;

  [[nodiscard]] bool matches(index_t pi0, index_t pj0, index_t pm,
                             index_t pn) const {
    return valid && !failed && i0 == pi0 && j0 == pj0 && m == pm && n == pn;
  }
};

/// Acquire task `t`'s A patch (`is_a`) or B patch of `mat` into `st`
/// (direct view or nonblocking fetch).
void acquire(Rank& me, DistMatrix& mat, const Task& t, bool is_a,
             ShmFlavor flavor, OperandState& st);

/// Checksum stand-in for a freshly fetched copy-path patch: compare the
/// buffer against the owners' (quiescent) segments and refetch on mismatch.
/// Bounded — a refetch draws fresh fault decisions and can be corrupted
/// again, but 16 consecutive corruptions at any sane injection rate means
/// the configuration is broken, not unlucky.  A refetch that itself
/// exhausts its RMA retries marks the state failed so the consuming task
/// degrades through the executor's normal requeue / re-arm path.
void verify_operand(Rank& me, DistMatrix& mat, OperandState& st);

/// Cooperative-cache epilogue for one operand state, run after the executor
/// waited on (and possibly verified) its own fetch and before the task is
/// allowed to requeue / re-arm (so a failed fetcher always releases its
/// pin, leaving a dirty entry for the next requester to re-arm).  Sharers
/// pay the intra-domain copy here and register the read with the checker at
/// the true origin; fetchers publish when the final bytes are known good —
/// verified against the owner, or delivered with no piece corrupted — and a
/// late (post-recovery) publish otherwise stays dirty.
void finish_cache(Rank& me, DistMatrix& mat, OperandState& st, bool fetched,
                  bool verify);

/// Land an acquired operand pair: try_wait A then B, verify_operand A then
/// B (fresh fetches only, when `verify`), then finish_cache A then B.
/// Returns true when neither operand failed.
bool land_pair(Rank& me, DistMatrix& a, OperandState& sa, DistMatrix& b,
               OperandState& sb, bool verify);

/// land_pair until both operands land good, re-acquiring the failed ones
/// (one task_reissue each time).  `before_rearm()` runs first and may
/// abandon the task by returning false, which is then returned.
template <class BeforeRearm>
bool land_pair_retrying(Rank& me, DistMatrix& a, OperandState& sa,
                        DistMatrix& b, OperandState& sb, const Task& t,
                        const SrummaOptions& opt, BeforeRearm&& before_rearm) {
  while (!land_pair(me, a, sa, b, sb, opt.verify_checksums)) {
    if (!before_rearm()) return false;
    me.trace().task_reissues += 1;
    if (sa.failed) acquire(me, a, t, true, opt.shm_flavor, sa);
    if (sb.failed) acquire(me, b, t, false, opt.shm_flavor, sb);
  }
  return true;
}

/// The part of my own C block task `t` accumulates into (empty in phantom
/// mode).
[[nodiscard]] MatrixView own_c_tile(Rank& me, DistMatrix& c, const Task& t);

/// Task `t`'s block product  target += alpha * op(A) * op(B)  from landed
/// operands: declares the reads (and, when `target` is my tile of `own_c`,
/// the write) to the RMA checker, runs dgemm unless phantom, charges it at
/// the slower operand's rate and counts it as a direct or copy task.
void block_product(Rank& me, const SrummaOptions& opt, const Task& t,
                   DistMatrix& a, const OperandState& sa, DistMatrix& b,
                   const OperandState& sb, MatrixView target,
                   DistMatrix* own_c);

/// Zombie drain after a fail-stop: complete the state's in-flight fetch and
/// release its cache ref, discarding the data.
void drain(Rank& me, DistMatrix& mat, OperandState& st);

/// Default cache capacity for an executor epoch: every domain mate's
/// 2*lookahead + 3 largest patches, so single-flight sharing is never
/// starved by its own working set.
[[nodiscard]] std::uint64_t executor_cache_cap(const MachineModel& mm,
                                               int lookahead,
                                               const TaskPlan& plan);

/// Open (close) the cache epoch on each distinct block cache behind A and B;
/// `keep_warm` as in BlockCacheSet::begin_epoch / end_epoch.
void begin_cache_epoch(Rank& me, DistMatrix& a, DistMatrix& b,
                       std::uint64_t default_capacity_bytes,
                       bool keep_warm = false);
void end_cache_epoch(Rank& me, DistMatrix& a, DistMatrix& b, bool keep_warm);

}  // namespace srumma::engine

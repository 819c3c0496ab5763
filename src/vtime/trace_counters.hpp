#pragma once
// Per-rank instrumentation counters.
//
// Every rank accumulates these as it executes; the trace module aggregates
// them into the per-experiment reports (achieved overlap, bytes moved by
// protocol, host-CPU steal).  All fields are in seconds or bytes.
//
// Aggregation: every field is summed across ranks (operator+=) and
// differenced across run snapshots (trace_delta) EXCEPT buffer_bytes_peak,
// which is a per-run high-water mark — MAX across ranks, end value across
// snapshots.  for_each_counter below is the one field list: operator+=,
// trace_delta (trace/report.cpp) and counters_json (trace/metrics_json.cpp)
// all walk it, so a new field is added to the struct and to that list,
// nowhere else (docs/OBSERVABILITY.md documents the JSON schema).

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace srumma {

struct TraceCounters {
  // -- computation (SUM) ----------------------------------------------------
  double time_compute = 0.0;  ///< modeled dgemm time (SUM)
  std::uint64_t gemm_calls = 0;  ///< (SUM)
  double flops = 0.0;            ///< (SUM)

  // -- communication (SUM) --------------------------------------------------
  double time_comm = 0.0;  ///< modeled transfer durations issued (SUM)
  double time_wait = 0.0;  ///< clock actually lost blocking on completions
                           ///< (SUM); equals the traced Wait + RecoveryWait
                           ///< span totals (see trace/tracer.hpp)
  double time_noise = 0.0; ///< OS daemon-preemption time injected (SUM)
  std::uint64_t bytes_shm = 0;     ///< intra-domain copy traffic (SUM)
  std::uint64_t bytes_remote = 0;  ///< inter-node RMA traffic (SUM)
  std::uint64_t bytes_msg = 0;     ///< two-sided (MPI-model) traffic sent (SUM)
  std::uint64_t gets = 0;   ///< (SUM)
  std::uint64_t puts = 0;   ///< (SUM; includes accumulates)
  std::uint64_t sends = 0;  ///< (SUM)
  std::uint64_t recvs = 0;  ///< (SUM)
  std::uint64_t direct_tasks = 0;  ///< block products fed views in place (SUM)
  std::uint64_t copy_tasks = 0;    ///< block products fed copied buffers (SUM)
  /// Algorithm-internal buffer memory on one rank (communication panels,
  /// circulation temps, redistribution temporaries — not the matrices
  /// themselves).  A high-water mark: each top-level algorithm
  /// max-accumulates its own footprint, so a later smaller run never
  /// erases the peak (Team::reset clears it between experiments).  The one
  /// MAX-aggregated field: team totals report the worst rank's footprint,
  /// and trace_delta carries the end value instead of a difference.
  std::uint64_t buffer_bytes_peak = 0;

  // -- fault injection & recovery (SUM) (src/fault, RetryPolicy, pipeline) --
  std::uint64_t faults_injected = 0;   ///< transient failures injected (SUM)
  std::uint64_t faults_corrupted = 0;  ///< payload corruptions applied (SUM)
  std::uint64_t faults_delayed = 0;    ///< straggler-op delays applied (SUM)
  std::uint64_t rma_retries = 0;       ///< re-issues performed by waits (SUM)
  std::uint64_t rma_op_timeouts = 0;   ///< attempts hit op_timeout (SUM)
  /// Handles drained with the terminal RmaStatus::DomainDead after their
  /// target's shared-memory domain fail-stopped (SUM).  Counted separately
  /// from rma_op_timeouts: "peer gone" is not "peer slow".
  std::uint64_t rma_domain_dead = 0;
  std::uint64_t task_requeues = 0;     ///< tasks re-enqueued at tail (SUM)
  /// Operand fetches re-issued after a task's first acquire failed: the
  /// legacy pipeline counts the re-issue of each requeued tail copy, the
  /// task engine counts each fetch re-arm (SUM).  Keeps the classification
  /// identity exact under faults:
  ///   copy_tasks + direct_tasks == block products executed
  /// — re-acquires inflate task_reissues, never the class counters.
  std::uint64_t task_reissues = 0;
  std::uint64_t shm_fallbacks = 0;     ///< Direct -> Copy degradations (SUM)
  std::uint64_t checksum_redos = 0;    ///< patches refetched (corruption) (SUM)
  /// Virtual time sunk into recovery: waits on failed attempts, retry
  /// backoff, checksum verification refetches and redone block products
  /// (SUM); equals the traced RecoveryWait + Backoff + Redo span totals.
  double time_recovery = 0.0;

  // -- cooperative block cache (SUM) (src/cache, docs/CACHE.md) -------------
  std::uint64_t cache_hits = 0;       ///< entry ready at request time (SUM)
  std::uint64_t cache_joins = 0;      ///< joined an in-flight fetch (SUM)
  std::uint64_t cache_misses = 0;     ///< became the single-flight fetcher (SUM)
  std::uint64_t cache_bypasses = 0;   ///< capacity/epoch made caching impossible (SUM)
  std::uint64_t cache_evictions = 0;  ///< LRU evictions under pressure (SUM)
  std::uint64_t cache_rearms = 0;     ///< dirty entries re-armed by waiters (SUM)
  /// Ready entries whose publishing get was issued AFTER the requester's
  /// virtual now — on a real machine the requester would have fetched first,
  /// so sharing would time-travel; it fetches itself instead (SUM).
  std::uint64_t cache_refetches = 0;
  /// Modeled inter-node bytes NOT transferred because a domain mate's fetch
  /// was shared (SUM) — the cache's headline gauge.
  std::uint64_t cache_bytes_saved = 0;

  // -- dependency-driven task engine (SUM) (src/engine, docs/ENGINE.md) -----
  /// Block products a rank executed for its own C tiles through the engine
  /// (SUM).  Engine runs reconcile exactly:
  ///   engine_tasks + tasks_stolen == copy_tasks + direct_tasks.
  std::uint64_t engine_tasks = 0;
  /// Block products executed by an idle domain mate on the owner's behalf,
  /// counted on the thief at handback publish (SUM); the owner still
  /// commits the C tile, so every stolen task also appears in exactly one
  /// of copy_tasks/direct_tasks (again on the thief).
  std::uint64_t tasks_stolen = 0;
  /// Block products replayed by a survivor on behalf of a permanently dead
  /// domain's ranks, from the buddy replicas into scratch (SUM); each also
  /// appears in exactly one of copy_tasks/direct_tasks and in gemm_calls,
  /// so recovery runs reconcile as
  ///   engine_tasks + tasks_stolen + tasks_adopted
  ///     == copy_tasks + direct_tasks == gemm_calls.
  std::uint64_t tasks_adopted = 0;

  /// Fraction of issued communication hidden behind computation:
  /// 1 - time_wait/time_comm, clamped to [0, 1].  The paper reports >90%
  /// overlap for SRUMMA on the Linux cluster.
  [[nodiscard]] double overlap() const {
    if (time_comm <= 0.0) return 1.0;
    const double w = 1.0 - time_wait / time_comm;
    if (w < 0.0) return 0.0;
    if (w > 1.0) return 1.0;
    return w;
  }

  TraceCounters& operator+=(const TraceCounters& o);
};

/// How a counter combines across ranks: summed, or a high-water mark.
enum class CounterAgg : std::uint8_t { Sum, Max };

/// Call f(name, member pointer, aggregation) once per TraceCounters field,
/// in declaration order (the order of the "counters" JSON block).  Member
/// pointers are `double TraceCounters::*` or `std::uint64_t
/// TraceCounters::*`.
template <class F>
constexpr void for_each_counter(F&& f) {
  using T = TraceCounters;
  constexpr CounterAgg S = CounterAgg::Sum;
  f("time_compute", &T::time_compute, S);
  f("gemm_calls", &T::gemm_calls, S);
  f("flops", &T::flops, S);
  f("time_comm", &T::time_comm, S);
  f("time_wait", &T::time_wait, S);
  f("time_noise", &T::time_noise, S);
  f("bytes_shm", &T::bytes_shm, S);
  f("bytes_remote", &T::bytes_remote, S);
  f("bytes_msg", &T::bytes_msg, S);
  f("gets", &T::gets, S);
  f("puts", &T::puts, S);
  f("sends", &T::sends, S);
  f("recvs", &T::recvs, S);
  f("direct_tasks", &T::direct_tasks, S);
  f("copy_tasks", &T::copy_tasks, S);
  f("buffer_bytes_peak", &T::buffer_bytes_peak, CounterAgg::Max);
  f("faults_injected", &T::faults_injected, S);
  f("faults_corrupted", &T::faults_corrupted, S);
  f("faults_delayed", &T::faults_delayed, S);
  f("rma_retries", &T::rma_retries, S);
  f("rma_op_timeouts", &T::rma_op_timeouts, S);
  f("rma_domain_dead", &T::rma_domain_dead, S);
  f("task_requeues", &T::task_requeues, S);
  f("task_reissues", &T::task_reissues, S);
  f("shm_fallbacks", &T::shm_fallbacks, S);
  f("checksum_redos", &T::checksum_redos, S);
  f("time_recovery", &T::time_recovery, S);
  f("cache_hits", &T::cache_hits, S);
  f("cache_joins", &T::cache_joins, S);
  f("cache_misses", &T::cache_misses, S);
  f("cache_bypasses", &T::cache_bypasses, S);
  f("cache_evictions", &T::cache_evictions, S);
  f("cache_rearms", &T::cache_rearms, S);
  f("cache_refetches", &T::cache_refetches, S);
  f("cache_bytes_saved", &T::cache_bytes_saved, S);
  f("engine_tasks", &T::engine_tasks, S);
  f("tasks_stolen", &T::tasks_stolen, S);
  f("tasks_adopted", &T::tasks_adopted, S);
}

// Every field is 8 bytes, so the size pins the list to the struct: a field
// added to one but not the other trips this.
static_assert([] {
  std::size_t n = 0;
  for_each_counter([&](const char*, auto, CounterAgg) { ++n; });
  return n * 8 == sizeof(TraceCounters);
}(), "TraceCounters and for_each_counter list different fields");

inline TraceCounters& TraceCounters::operator+=(const TraceCounters& o) {
  for_each_counter([&](const char*, auto field, CounterAgg agg) {
    this->*field = agg == CounterAgg::Max ? std::max(this->*field, o.*field)
                                          : this->*field + o.*field;
  });
  return *this;
}

}  // namespace srumma

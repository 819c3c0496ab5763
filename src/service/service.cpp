#include "service/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "core/srumma.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/grid.hpp"
#include "trace/chrome_trace.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace srumma::service {

namespace {

/// One attempt of one job on a fresh sub-team of `lease.nodes` nodes —
/// the single execution path shared by the service and run_standalone, so
/// the bitwise-identity contract is by construction, not by replication.
/// `attempt` reseeds a config-installed fault plane so retries do not
/// deterministically replay the injected failure.  `*makespan` receives
/// the sub-team's modeled parallel time even when the run throws.
MultiplyResult attempt_job(const MachineModel& machine, NodeLease lease,
                           const JobSpec& spec, const ServiceConfig& cfg,
                           int attempt, double* makespan) {
  SubTeam st(machine, lease);
  RmaConfig rc = cfg.rma;
  if (rc.faults && attempt > 0) {
    rc.faults->seed += static_cast<std::uint64_t>(attempt);
  }
  RmaRuntime rma(st.team(), rc);
  SrummaOptions opt = cfg.multiply;
  opt.ta = spec.ta;
  opt.tb = spec.tb;
  opt.alpha = spec.alpha;
  opt.beta = spec.beta;
  const ProcGrid grid = ProcGrid::near_square(st.ranks());
  const bool tra = spec.ta == blas::Trans::Yes;
  const bool trb = spec.tb == blas::Trans::Yes;
  MultiplyResult out;
  try {
    st.team().run([&](Rank& me) {
      DistMatrix a(rma, me, tra ? spec.k : spec.m, tra ? spec.m : spec.k, grid,
                   spec.phantom);
      DistMatrix b(rma, me, trb ? spec.n : spec.k, trb ? spec.k : spec.n, grid,
                   spec.phantom);
      DistMatrix c(rma, me, spec.m, spec.n, grid, spec.phantom);
      if (!spec.phantom) {
        a.scatter_from(me, spec.a);
        b.scatter_from(me, spec.b);
        c.scatter_from(me, ConstMatrixView(spec.c));
      }
      const MultiplyResult r = srumma_multiply(me, a, b, c, opt);
      if (!spec.phantom) c.gather_to(me, spec.c);
      if (me.id() == 0) out = r;
    });
  } catch (...) {
    // A failed attempt still consumed the lease for its modeled duration.
    // Peers abort at their next cancellation point, so the failure-side
    // makespan (unlike every successful result) may vary run to run —
    // the same caveat the engine documents for steal timing.
    *makespan = st.team().max_clock();
    throw;
  }
  *makespan = st.team().max_clock();
  return out;
}

std::vector<trace::TrackInfo> node_tracks(const MachineModel& machine) {
  std::vector<trace::TrackInfo> tracks(
      static_cast<std::size_t>(machine.num_nodes));
  for (int i = 0; i < machine.num_nodes; ++i) {
    tracks[static_cast<std::size_t>(i)] = {i, machine.domain_of(
                                                  i * machine.ranks_per_node)};
  }
  return tracks;
}

trace::TracerConfig service_tracer_config(const ServiceConfig& cfg) {
  trace::TracerConfig tc;
  tc.path = cfg.trace_path;
  return tc;
}

}  // namespace

const char* priority_name(JobPriority p) {
  switch (p) {
    case JobPriority::Low: return "low";
    case JobPriority::Normal: return "normal";
    case JobPriority::High: return "high";
  }
  return "?";
}

const char* reject_name(RejectReason r) {
  switch (r) {
    case RejectReason::None: return "none";
    case RejectReason::QueueFull: return "queue full";
    case RejectReason::ShuttingDown: return "shutting down";
    case RejectReason::BadShape: return "bad shape";
  }
  return "?";
}

const char* state_name(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Rejected: return "rejected";
  }
  return "?";
}

ServiceConfig ServiceConfig::from_env() {
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  constexpr double kMax = std::numeric_limits<double>::max();
  ServiceConfig cfg;
  env_read("SRUMMA_SERVICE_QUEUE_CAP", cfg.queue_cap, 0, kMaxInt);
  env_read("SRUMMA_SERVICE_MAX_INFLIGHT", cfg.max_inflight, 0, kMaxInt);
  env_read("SRUMMA_SERVICE_FLOPS_PER_NODE", cfg.flops_per_node,
           std::numeric_limits<double>::min(), kMax);
  env_read("SRUMMA_SERVICE_BATCH_FLOPS", cfg.batch_flops, 0.0, kMax);
  env_read("SRUMMA_SERVICE_BATCH_MAX", cfg.batch_max, 1, kMaxInt);
  env_read("SRUMMA_SERVICE_RETRIES", cfg.retries, 0, kMaxInt);
  env_read("SRUMMA_SERVICE_AGE_BOOST", cfg.age_boost, 0.0, kMax);
  cfg.trace_path = env_str("SRUMMA_SERVICE_TRACE").value_or(cfg.trace_path);
  return cfg;
}

GemmService::GemmService(MachineModel machine, ServiceConfig cfg)
    : machine_(std::move(machine)),
      cfg_(std::move(cfg)),
      partition_(machine_.num_nodes),
      tracer_(node_tracks(machine_), service_tracer_config(cfg_)) {
  SRUMMA_REQUIRE(cfg_.flops_per_node > 0, "flops_per_node must be positive");
  SRUMMA_REQUIRE(cfg_.batch_max >= 1, "batch_max must be at least 1");
  SRUMMA_REQUIRE(cfg_.retries >= 0, "retries must be non-negative");
}

SubmitResult GemmService::submit(const JobSpec& spec, double arrival_vt) {
  SRUMMA_REQUIRE(arrival_vt >= last_arrival_,
                 "submit: arrival times must be non-decreasing");
  last_arrival_ = arrival_vt;
  advance_to(arrival_vt);

  Entry e;
  e.spec = spec;
  e.rep.id = jobs_.size() + 1;
  e.rep.label = spec.label;
  e.rep.priority = spec.priority;
  e.rep.arrival_vt = arrival_vt;

  SubmitResult res;
  res.id = e.rep.id;
  const bool shape_ok =
      spec.m >= 1 && spec.n >= 1 && spec.k >= 1 &&
      (spec.phantom ||
       (spec.a.rows() == (spec.ta == blas::Trans::Yes ? spec.k : spec.m) &&
        spec.a.cols() == (spec.ta == blas::Trans::Yes ? spec.m : spec.k) &&
        spec.b.rows() == (spec.tb == blas::Trans::Yes ? spec.n : spec.k) &&
        spec.b.cols() == (spec.tb == blas::Trans::Yes ? spec.k : spec.n) &&
        spec.c.rows() == spec.m && spec.c.cols() == spec.n));
  if (!shape_ok) {
    res.reject = RejectReason::BadShape;
  } else if (closed_) {
    res.reject = RejectReason::ShuttingDown;
  } else if (cfg_.queue_cap > 0 &&
             static_cast<int>(waiting_.size()) >= cfg_.queue_cap) {
    res.reject = RejectReason::QueueFull;
  }
  if (res.reject != RejectReason::None) {
    e.rep.state = JobState::Rejected;
    e.rep.reject = res.reject;
    e.rep.completion_vt = arrival_vt;
    tracer_.instant(0, trace::Phase::JobReject, arrival_vt, e.rep.id);
    jobs_.push_back(std::move(e));
    return res;
  }

  res.accepted = true;
  e.rep.state = JobState::Queued;
  tracer_.instant(0, trace::Phase::JobArrive, arrival_vt, e.rep.id);
  jobs_.push_back(std::move(e));
  waiting_.push_back(res.id);
  try_dispatch();
  return res;
}

void GemmService::drain() {
  try_dispatch();
  while (!inflight_.empty()) {
    const Dispatch d = inflight_.top();
    inflight_.pop();
    now_ = std::max(now_, d.end_vt);
    partition_.release(d.lease);
    try_dispatch();
  }
  SRUMMA_REQUIRE(waiting_.empty(), "drain: jobs stranded in the queue");
}

void GemmService::advance_to(double vt) {
  while (!inflight_.empty() && inflight_.top().end_vt <= vt) {
    const Dispatch d = inflight_.top();
    inflight_.pop();
    now_ = std::max(now_, d.end_vt);
    partition_.release(d.lease);
    try_dispatch();
  }
  now_ = std::max(now_, vt);
}

int GemmService::nodes_for(const JobSpec& spec) const {
  if (cfg_.serialize) return machine_.num_nodes;
  const double need = std::ceil(spec.flops() / cfg_.flops_per_node);
  return std::clamp(static_cast<int>(need), 1, machine_.num_nodes);
}

void GemmService::try_dispatch() {
  const int cap_inflight =
      cfg_.serialize
          ? 1
          : (cfg_.max_inflight > 0 ? cfg_.max_inflight
                                   : std::numeric_limits<int>::max());
  const bool batching = !cfg_.serialize && cfg_.batch_flops > 0;
  while (!waiting_.empty() &&
         static_cast<int>(inflight_.size()) < cap_inflight) {
    // Policy order at the current instant: effective priority (class +
    // aging) descending, then earliest deadline, then arrival, then id.
    std::vector<std::uint64_t> order = waiting_;
    auto eff = [&](std::uint64_t id) {
      const Entry& e = entry(id);
      int boost = 0;
      if (cfg_.age_boost > 0) {
        boost = static_cast<int>((now_ - e.rep.arrival_vt) / cfg_.age_boost);
      }
      return static_cast<int>(e.spec.priority) + boost;
    };
    auto deadline = [&](std::uint64_t id) {
      const Entry& e = entry(id);
      return e.spec.deadline_hint > 0
                 ? e.rep.arrival_vt + e.spec.deadline_hint
                 : std::numeric_limits<double>::infinity();
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint64_t x, std::uint64_t y) {
                       const int ex = eff(x);
                       const int ey = eff(y);
                       if (ex != ey) return ex > ey;
                       const double dx = deadline(x);
                       const double dy = deadline(y);
                       if (dx != dy) return dx < dy;
                       const double ax = entry(x).rep.arrival_vt;
                       const double ay = entry(y).rep.arrival_vt;
                       if (ax != ay) return ax < ay;
                       return x < y;
                     });
    // The head dispatches or blocks; no backfill past a blocked head.
    std::vector<std::uint64_t> members{order.front()};
    int needed = nodes_for(entry(order.front()).spec);
    if (batching && entry(order.front()).spec.flops() < cfg_.batch_flops) {
      // Batch a contiguous scan-order run of small jobs (stopping at the
      // first non-batchable one — picking past it would be backfill).
      for (std::size_t i = 1; i < order.size() &&
                              static_cast<int>(members.size()) < cfg_.batch_max;
           ++i) {
        if (entry(order[i]).spec.flops() >= cfg_.batch_flops) break;
        members.push_back(order[i]);
        needed = std::max(needed, nodes_for(entry(order[i]).spec));
      }
    }
    const std::optional<NodeLease> lease = partition_.acquire(needed);
    if (!lease) return;  // blocked: leave every lower-priority job queued
    for (std::uint64_t id : members) {
      waiting_.erase(std::find(waiting_.begin(), waiting_.end(), id));
    }
    const double end = execute(now_, *lease, members);
    Dispatch d;
    d.end_vt = end;
    d.seq = dispatch_seq_++;
    d.lease = *lease;
    inflight_.push(d);
    if (members.size() > 1) ++batches_;
  }
}

double GemmService::execute(double start_vt, const NodeLease& lease,
                            const std::vector<std::uint64_t>& members) {
  const int track = lease.first_node;
  double t = start_vt;
  for (std::uint64_t id : members) {
    Entry& e = entry(id);
    e.rep.state = JobState::Running;
    e.rep.nodes = lease.nodes;
    e.rep.ranks = lease.nodes * machine_.ranks_per_node;
    e.rep.batch_size = static_cast<int>(members.size());
    e.rep.start_vt = t;
    bool ok = false;
    int attempts = 0;
    MultiplyResult r;
    while (attempts <= cfg_.retries) {
      double makespan = 0.0;
      try {
        r = attempt_job(machine_, lease, e.spec, cfg_, attempts, &makespan);
        ok = true;
      } catch (const std::exception&) {
        ok = false;
      }
      t += makespan;
      ++attempts;
      if (ok) break;
      if (attempts <= cfg_.retries) {
        ++retries_;
        tracer_.instant(track, trace::Phase::JobRetry, t, id);
      }
    }
    e.rep.attempts = attempts;
    e.rep.completion_vt = t;
    e.rep.state = ok ? JobState::Done : JobState::Failed;
    if (ok) e.rep.result = r;
    e.rep.deadline_met =
        e.spec.deadline_hint <= 0 || e.rep.latency() <= e.spec.deadline_hint;
    tracer_.span(track, trace::Phase::JobWait, e.rep.arrival_vt,
                 e.rep.start_vt, id);
    tracer_.span(track, trace::Phase::Job, e.rep.start_vt, e.rep.completion_vt,
                 id);
  }
  leased_node_seconds_ += static_cast<double>(lease.nodes) * (t - start_vt);
  return t;
}

GemmService::Entry& GemmService::entry(std::uint64_t id) {
  SRUMMA_REQUIRE(id >= 1 && id <= jobs_.size(), "unknown job id");
  return jobs_[id - 1];
}

const GemmService::Entry& GemmService::entry(std::uint64_t id) const {
  SRUMMA_REQUIRE(id >= 1 && id <= jobs_.size(), "unknown job id");
  return jobs_[id - 1];
}

const JobReport& GemmService::report(std::uint64_t id) const {
  return entry(id).rep;
}

std::vector<JobReport> GemmService::reports() const {
  std::vector<JobReport> out;
  out.reserve(jobs_.size());
  for (const Entry& e : jobs_) out.push_back(e.rep);
  return out;
}

ServiceMetrics GemmService::metrics() const {
  ServiceMetrics m;
  m.submitted = jobs_.size();
  m.batches = batches_;
  m.retries = retries_;
  double first_arrival = std::numeric_limits<double>::infinity();
  double last_completion = 0.0;
  std::vector<double> latencies;
  double wait_sum = 0.0;
  for (const Entry& e : jobs_) {
    if (e.rep.state == JobState::Rejected) {
      ++m.rejected;
      continue;
    }
    ++m.accepted;
    first_arrival = std::min(first_arrival, e.rep.arrival_vt);
    if (e.rep.state == JobState::Done) {
      ++m.completed;
      latencies.push_back(e.rep.latency());
      wait_sum += e.rep.wait();
    } else if (e.rep.state == JobState::Failed) {
      ++m.failed;
    }
    if (e.rep.state == JobState::Done || e.rep.state == JobState::Failed) {
      last_completion = std::max(last_completion, e.rep.completion_vt);
      if (!e.rep.deadline_met) ++m.deadline_misses;
    }
  }
  if (m.completed + m.failed == 0) return m;
  m.window = last_completion - first_arrival;
  if (m.window > 0) {
    m.jobs_per_s = static_cast<double>(m.completed) / m.window;
    m.utilization = leased_node_seconds_ /
                    (m.window * static_cast<double>(machine_.num_nodes));
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    auto nearest_rank = [&](double q) {
      const auto n = static_cast<double>(latencies.size());
      const auto idx = static_cast<std::size_t>(std::ceil(q * n)) - 1;
      return latencies[std::min(idx, latencies.size() - 1)];
    };
    m.p50_latency = nearest_rank(0.50);
    m.p99_latency = nearest_rank(0.99);
    m.mean_wait = wait_sum / static_cast<double>(m.completed);
  }
  return m;
}

bool GemmService::flush_trace() {
  if (cfg_.trace_path.empty()) return true;
  return trace::write_chrome_trace_file(cfg_.trace_path, tracer_);
}

MultiplyResult run_standalone(const MachineModel& machine, int nodes,
                              const JobSpec& spec, const ServiceConfig& cfg) {
  double makespan = 0.0;
  return attempt_job(machine, NodeLease{0, nodes}, spec, cfg, 0, &makespan);
}

}  // namespace srumma::service

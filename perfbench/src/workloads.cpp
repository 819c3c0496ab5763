// The four benchmark workloads.  Each op calls the library's public API
// only, times the program calls (not the benchmark's own checks), and then
// checks every output the op produced.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/summa.hpp"
#include "blas/gemm.hpp"
#include "bench.hpp"
#include "core/srumma.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/grid.hpp"
#include "msg/comm.hpp"
#include "probes.hpp"
#include "rma/rma.hpp"
#include "runtime/team.hpp"
#include "service/service.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace srumma;

/// One machine with its runtime stack, as a user of the library builds it,
/// and a count of barrier entries that traced ops turn on.
struct Testbed {
  std::atomic<std::uint64_t> barriers{0};
  bool counting = false;
  Team team;
  RmaRuntime rma;
  Comm comm;

  explicit Testbed(const MachineModel& machine)
      : team(machine), rma(team), comm(team) {}

  /// Count barrier entries from now on, through the epoch-observer hook.
  void count_barriers() {
    if (counting) return;
    team.add_epoch_observer(
        [this](int) { barriers.fetch_add(1, std::memory_order_relaxed); });
    counting = true;
  }
  [[nodiscard]] std::uint64_t barriers_now() const {
    return barriers.load(std::memory_order_relaxed);
  }
};

double cube_flops(index_t n) {
  const auto d = static_cast<double>(n);
  return 2.0 * d * d * d;
}

/// Records the first failed check of an op, prefixed with its config.
void fail(OpOutcome& out, const std::string& config, int op_index,
          const std::string& what) {
  if (out.failure.empty()) {
    out.failure = config + " op " + std::to_string(op_index) + ": " + what;
  }
}

/// The checks every SRUMMA multiply must pass.
void check_multiply(OpOutcome& out, const std::string& config, int op_index,
                    const MultiplyResult& r, double buffer_bound) {
  const TraceCounters& t = r.trace;
  if (t.copy_tasks + t.direct_tasks != t.gemm_calls) {
    fail(out, config, op_index,
         "copy_tasks + direct_tasks = " +
             std::to_string(t.copy_tasks + t.direct_tasks) +
             " != gemm_calls = " + std::to_string(t.gemm_calls));
  }
  if (static_cast<double>(t.buffer_bytes_peak) > buffer_bound) {
    fail(out, config, op_index,
         "buffer_bytes_peak " + std::to_string(t.buffer_bytes_peak) +
             " exceeds the analyzer bound " +
             std::to_string(static_cast<std::uint64_t>(buffer_bound)));
  }
  if (!(r.elapsed > 0.0)) fail(out, config, op_index, "no modeled time");
}

// -- dense_real ---------------------------------------------------------------

/// Real-data C = A*B, N = 1024, on 8 dual nodes (16 ranks, so both
/// shared-memory-domain and remote gets run), one worker.  Kernel-bound:
/// dgemm, packing and copy2d dominate its host time.
class DenseReal final : public Workload {
 public:
  static constexpr index_t kN = 1024;

  explicit DenseReal(const Args& args)
      : Workload(args.seed),
        perturb_reference_(args.perturb_reference),
        machine_(MachineModel::linux_myrinet(8)) {}

  const char* name() const override { return "dense_real"; }
  const MachineModel& machine() const override { return machine_; }
  index_t plan_n() const override { return kN; }
  int workers() const override { return 1; }
  std::string sizes() const override {
    return "N=1024 machine=linux_myrinet(8) ranks=16 data=real";
  }
  double nominal_op_ms() const override { return 100.0; }
  bool real_data() const override { return true; }

  void prepare() override {
    a_ = Matrix(kN, kN);
    b_ = Matrix(kN, kN);
    fill_random(a_.view(), seed_);
    fill_random(b_.view(), seed_ ^ 0x9e3779b97f4a7c15ull);
    auto t0 = Clock::now();
    ref_ = Matrix(kN, kN);
    blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, a_.view(), b_.view(),
               0.0, ref_.view());
    serial_gemm_s_ = seconds_since(t0);
    // Elementwise error bound 2*k*eps*(|A||B|)_ij: both the distributed
    // and the serial product sum k terms, each within k*eps of exact.
    Matrix abs_a = a_;
    Matrix abs_b = b_;
    for (index_t i = 0; i < abs_a.size(); ++i) {
      abs_a.data()[i] = std::fabs(abs_a.data()[i]);
      abs_b.data()[i] = std::fabs(abs_b.data()[i]);
    }
    tol_ = Matrix(kN, kN);
    blas::gemm(blas::Trans::No, blas::Trans::No,
               2.0 * static_cast<double>(kN) *
                   std::numeric_limits<double>::epsilon(),
               abs_a.view(), abs_b.view(), 0.0, tol_.view());
    costs.reference_s += seconds_since(t0);
    if (perturb_reference_) ref_(kN / 2, kN / 3) += 1e-3;
    c_out_ = Matrix(kN, kN);

    t0 = Clock::now();
    bound_ = probes::buffer_bound(machine_, kN, opt_);
    costs.certify_s += seconds_since(t0);
  }

  void setup() override {
    tb_.reset();
    tb_ = std::make_unique<Testbed>(machine_);
  }

  OpOutcome op(SpanLog* spans, int op_index) override {
    if (spans != nullptr) tb_->count_barriers();
    c_out_.fill(std::numeric_limits<double>::quiet_NaN());
    const ProcGrid grid = ProcGrid::near_square(machine_.total_ranks());
    OpOutcome out;
    MultiplyResult r;
    std::uint64_t b0 = 0;
    std::uint64_t b1 = 0;
    const auto t0 = Clock::now();
    {
      SpanScope root(spans, "op", -1);
      tb_->team.reset();
      SpanScope run(spans, "runtime.run", root.id());
      tb_->team.run([&](Rank& me) {
        Phases ph(me.id() == 0 ? spans : nullptr, run.id());
        ph.next("dist.alloc");
        DistMatrix a(tb_->rma, me, kN, kN, grid);
        DistMatrix b(tb_->rma, me, kN, kN, grid);
        DistMatrix c(tb_->rma, me, kN, kN, grid);
        ph.next("dist.scatter");
        a.scatter_from(me, a_.view());
        b.scatter_from(me, b_.view());
        ph.next("core.multiply");
        if (me.id() == 0) b0 = tb_->barriers_now();
        const MultiplyResult mr = srumma_multiply(me, a, b, c, opt_);
        if (me.id() == 0) {
          b1 = tb_->barriers_now();
          r = mr;
        }
        ph.next("dist.gather");
        c.gather_to(me, c_out_.view());
        ph.next("dist.free");
        a.destroy(me);
        b.destroy(me);
        c.destroy(me);
      });
    }
    out.wall_s = seconds_since(t0);

    const auto tv = Clock::now();
    check_multiply(out, config(), op_index, r, bound_);
    verify(out, op_index);
    costs.verify_s += seconds_since(tv);

    out.modeled_s = r.elapsed;
    out.flops = cube_flops(kN);
    out.latencies_s = {r.elapsed};
    out.core = r.trace;
    out.rank_seconds = machine_.total_ranks() * r.elapsed;
    out.srumma_gflops = r.gflops;
    out.barriers_per_rank =
        static_cast<double>(b1 - b0) / machine_.total_ranks();
    sign(out.sig, r.elapsed);
    sign(out.sig, r.trace);
    return out;
  }

  void layer_metrics(const std::vector<OpOutcome>&,
                     std::map<std::string, double>& out) override {
    out["blas.serial_gemm_ms"] = serial_gemm_s_ * 1e3;
  }

 private:
  void verify(OpOutcome& out, int op_index) const {
    for (index_t j = 0; j < kN; ++j) {
      for (index_t i = 0; i < kN; ++i) {
        const double d = std::fabs(c_out_(i, j) - ref_(i, j));
        if (!(d <= tol_(i, j))) {
          std::ostringstream os;
          os.precision(17);
          os << "C(" << i << "," << j << ") = " << c_out_(i, j)
             << " differs from the serial reference " << ref_(i, j)
             << " by more than " << tol_(i, j);
          fail(out, config(), op_index, os.str());
          return;
        }
      }
    }
  }

  bool perturb_reference_;
  MachineModel machine_;
  SrummaOptions opt_;
  Matrix a_, b_, ref_, tol_, c_out_;
  double serial_gemm_s_ = 0.0;
  double bound_ = 0.0;
  std::unique_ptr<Testbed> tb_;
};

// -- fig10_phantom ------------------------------------------------------------

/// Fig. 10 at scale: phantom SRUMMA then phantom pdgemm (SUMMA over the
/// message layer) on one 1024-rank team, N = 8192, one worker.  No kernel
/// work: the host time is parking, booking, RMA, planning and matching.
class Fig10Phantom final : public Workload {
 public:
  static constexpr index_t kN = 8192;

  explicit Fig10Phantom(const Args& args)
      : Workload(args.seed), machine_(MachineModel::linux_myrinet(512)) {}

  const char* name() const override { return "fig10_phantom"; }
  const MachineModel& machine() const override { return machine_; }
  index_t plan_n() const override { return kN; }
  int workers() const override { return 1; }
  std::string sizes() const override {
    return "N=8192 machine=linux_myrinet(512) ranks=1024 data=phantom";
  }
  double nominal_op_ms() const override { return 900.0; }

  void prepare() override {
    const auto t0 = Clock::now();
    bound_ = probes::buffer_bound(machine_, kN, opt_);
    costs.certify_s += seconds_since(t0);
  }

  void setup() override {
    tb_.reset();
    tb_ = std::make_unique<Testbed>(machine_);
  }

  OpOutcome op(SpanLog* spans, int op_index) override {
    if (spans != nullptr) tb_->count_barriers();
    const ProcGrid grid = ProcGrid::near_square(machine_.total_ranks());
    OpOutcome out;
    MultiplyResult s;
    MultiplyResult d;
    std::uint64_t barriers = 0;
    const auto t0 = Clock::now();
    {
      SpanScope root(spans, "op", -1);
      // Both multiplies run the same body around a different kernel call.
      auto multiply = [&](const char* kernel_span, MultiplyResult& result,
                          auto&& kernel) {
        tb_->team.reset();
        SpanScope run(spans, "runtime.run", root.id());
        tb_->team.run([&](Rank& me) {
          Phases ph(me.id() == 0 ? spans : nullptr, run.id());
          ph.next("dist.alloc");
          DistMatrix a(tb_->rma, me, kN, kN, grid, true);
          DistMatrix b(tb_->rma, me, kN, kN, grid, true);
          DistMatrix c(tb_->rma, me, kN, kN, grid, true);
          ph.next(kernel_span);
          const std::uint64_t before = tb_->barriers_now();
          const MultiplyResult mr = kernel(me, a, b, c);
          if (me.id() == 0) {
            barriers += tb_->barriers_now() - before;
            result = mr;
          }
          ph.next("dist.free");
          a.destroy(me);
          b.destroy(me);
          c.destroy(me);
        });
      };
      multiply("core.multiply", s,
               [&](Rank& me, DistMatrix& a, DistMatrix& b, DistMatrix& c) {
                 return srumma_multiply(me, a, b, c, opt_);
               });
      multiply("baselines.pdgemm", d,
               [&](Rank& me, DistMatrix& a, DistMatrix& b, DistMatrix& c) {
                 return pdgemm_model(me, tb_->comm, a, b, c);
               });
    }
    out.wall_s = seconds_since(t0);

    check_multiply(out, config(), op_index, s, bound_);
    if (d.trace.bytes_msg == 0) {
      fail(out, config(), op_index, "pdgemm moved no message bytes");
    }
    if (!(d.elapsed > 0.0)) fail(out, config(), op_index, "pdgemm: no time");

    out.modeled_s = s.elapsed + d.elapsed;
    out.flops = 2.0 * cube_flops(kN);
    // Both multiplies arrive at op start; pdgemm completes after SRUMMA.
    out.latencies_s = {s.elapsed, s.elapsed + d.elapsed};
    out.core = s.trace;
    out.baseline = d.trace;
    out.rank_seconds = machine_.total_ranks() * (s.elapsed + d.elapsed);
    out.srumma_gflops = s.gflops;
    out.pdgemm_gflops = d.gflops;
    out.barriers_per_rank =
        static_cast<double>(barriers) / machine_.total_ranks();
    sign(out.sig, s.elapsed);
    sign(out.sig, s.trace);
    sign(out.sig, d.elapsed);
    sign(out.sig, d.trace);
    return out;
  }

 private:
  MachineModel machine_;
  SrummaOptions opt_;
  double bound_ = 0.0;
  std::unique_ptr<Testbed> tb_;
};

// -- ring_pooled --------------------------------------------------------------

/// The contention-free Fig. 3 ring at 4096 ranks, one rank per node: each
/// step gets a block from the right neighbour while computing the current
/// one, then barriers.  Every NIC and memory resource has one booking
/// rank, so the modeled results are the same at any worker count; this is
/// the one workload that runs the pool with more than one worker.  It uses
/// two workers, not one per vCPU: on a 4-vCPU host with three busy
/// processes beside it, the op time rose about 55% at four workers and
/// about 25% at two, so four workers measured the host's scheduler.
class RingPooled final : public Workload {
 public:
  static constexpr int kRanks = 4096;
  static constexpr index_t kBlock = 64;
  static constexpr int kSteps = 64;

  explicit RingPooled(const Args& args)
      : Workload(args.seed), machine_(ring()) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers_ = std::clamp(static_cast<int>(hw), 1, 2);
  }

  const char* name() const override { return "ring_pooled"; }
  const MachineModel& machine() const override { return machine_; }
  index_t plan_n() const override { return 0; }
  int workers() const override { return workers_; }
  std::string sizes() const override {
    return "ranks=4096 block=64 steps=64 machine=linux_myrinet(4096) "
           "ranks_per_node=1 data=phantom";
  }
  double nominal_op_ms() const override { return 510.0; }

  void setup() override {
    tb_.reset();
    tb_ = std::make_unique<Testbed>(machine_);
  }

  OpOutcome op(SpanLog* spans, int op_index) override {
    if (spans != nullptr) tb_->count_barriers();
    std::vector<double> final_clock(kRanks, 0.0);
    const double compute_s = machine_.dgemm.time(kBlock, kBlock, kBlock);
    constexpr std::size_t kElems = static_cast<std::size_t>(kBlock) * kBlock;
    OpOutcome out;
    double elapsed = 0.0;
    const std::uint64_t b0 = tb_->barriers_now();
    const auto t0 = Clock::now();
    {
      SpanScope root(spans, "op", -1);
      tb_->team.reset();
      SpanScope run(spans, "runtime.run", root.id());
      tb_->team.run([&](Rank& me) {
        const int src = (me.id() + 1) % kRanks;
        SpanScope steps(me.id() == 0 ? spans : nullptr, "ring.steps",
                        run.id());
        me.barrier();
        const double start = me.clock().now();
        RmaHandle next = tb_->rma.nbget(me, src, nullptr, nullptr, kElems);
        for (int s = 0; s < kSteps; ++s) {
          tb_->rma.wait(me, next);
          if (s + 1 < kSteps) {
            next = tb_->rma.nbget(me, src, nullptr, nullptr, kElems);
          }
          me.charge_seconds(compute_s);
          me.barrier();
        }
        if (me.id() == 0) elapsed = me.clock().now() - start;
        final_clock[static_cast<std::size_t>(me.id())] = me.clock().now();
      });
    }
    out.wall_s = seconds_since(t0);
    const std::uint64_t b1 = tb_->barriers_now();

    const TraceCounters total = tb_->team.total_trace();
    if (!(elapsed > 0.0)) fail(out, config(), op_index, "no modeled time");
    if (total.gets != static_cast<std::uint64_t>(kRanks) * kSteps) {
      fail(out, config(), op_index,
           "gets = " + std::to_string(total.gets) + ", expected " +
               std::to_string(kRanks * kSteps));
    }
    out.modeled_s = elapsed;
    out.flops = cube_flops(kBlock) * kSteps * kRanks;
    out.latencies_s = {elapsed};
    out.core = total;
    out.rank_seconds = kRanks * elapsed;
    out.barriers_per_rank = static_cast<double>(b1 - b0) / kRanks;
    sign(out.sig, elapsed);
    sign(out.sig, total);
    // Every rank's final clock, so one perturbed rank anywhere shows.
    for (double c : final_clock) sign(out.sig, c);
    return out;
  }

 private:
  static MachineModel ring() {
    MachineModel m = MachineModel::linux_myrinet(kRanks);
    m.ranks_per_node = 1;
    return m;
  }
  MachineModel machine_;
  int workers_ = 1;
  std::unique_ptr<Testbed> tb_;
};

// -- service_stream -----------------------------------------------------------

/// A seeded Poisson stream of phantom mixed-size jobs through GemmService
/// on 8 dual nodes, one worker.  Each op replays the whole stream through a
/// fresh service: thousands of short sub-teams (carve, Team and RmaRuntime
/// construction, fiber start-up, symmetric allocation, a small plan).
/// Arrivals are stamped in virtual time, so the generator is never late.
class ServiceStream final : public Workload {
 public:
  static constexpr index_t kSmall = 128;
  static constexpr int kJobs = 5000;
  /// Mean virtual inter-arrival gap: an offered load below capacity (see
  /// perfbench/README.md for the measured capacity).
  static constexpr double kMeanGap = 2.0e-3;
  /// Latency limit for the rate ladder (virtual seconds, p99).
  static constexpr double kP99Limit = 0.05;

  explicit ServiceStream(const Args& args)
      : Workload(args.seed), machine_(MachineModel::linux_myrinet(8)) {
    // bench_service's configuration: accept the whole stream, size leases
    // so a 2n job takes 3 nodes, batch up to four n jobs on one lease.
    cfg_.queue_cap = 4 * kJobs;
    service::JobSpec unit;
    unit.m = unit.n = unit.k = 2 * kSmall;
    cfg_.flops_per_node = unit.flops() / 3.0;
    cfg_.batch_flops = cube_flops(kSmall) + 1;
    cfg_.batch_max = 4;
  }

  const char* name() const override { return "service_stream"; }
  const MachineModel& machine() const override { return machine_; }
  index_t plan_n() const override { return kSmall; }
  int workers() const override { return 1; }
  std::string sizes() const override {
    return "jobs=5000 n={128,256} mix=70/30 mean_gap=2ms(virtual) "
           "machine=linux_myrinet(8) data=phantom";
  }
  double nominal_op_ms() const override { return 380.0; }

  void prepare() override {
    // The size and priority mixes are exact (30% n = 256; 20% High, 60%
    // Normal, 20% Low) and the seed shuffles them, so seeds differ in
    // order and arrival times but not in the amount of work.
    Rng rng(seed_);
    for (int i = 0; i < kJobs; ++i) {
      service::JobSpec job;
      const index_t n = 10 * i < 3 * kJobs ? 2 * kSmall : kSmall;
      job.m = job.n = job.k = n;
      job.priority = 5 * i < kJobs       ? service::JobPriority::High
                     : 5 * i < 4 * kJobs ? service::JobPriority::Normal
                                         : service::JobPriority::Low;
      job.deadline_hint = kMeanGap * (n == kSmall ? 8.0 : 32.0);
      jobs_.push_back(job);
    }
    for (int i = kJobs - 1; i > 0; --i) {
      std::swap(jobs_[static_cast<std::size_t>(i)],
                jobs_[rng.below(static_cast<std::uint64_t>(i) + 1)]);
    }
    for (int i = kJobs - 1; i > 0; --i) {
      std::swap(jobs_[static_cast<std::size_t>(i)].priority,
                jobs_[rng.below(static_cast<std::uint64_t>(i) + 1)].priority);
    }
    double t = 0.0;
    for (int i = 0; i < kJobs; ++i) {
      arrivals_.push_back(t);
      t += -std::log(1.0 - rng.uniform()) * kMeanGap;
    }
    const auto t0 = Clock::now();
    for (const index_t n : {kSmall, 2 * kSmall}) {
      for (int nodes = 1; nodes <= machine_.num_nodes; ++nodes) {
        bounds_[{n, nodes}] =
            probes::buffer_bound(machine_.carve(nodes), n, cfg_.multiply);
      }
    }
    costs.certify_s += seconds_since(t0);
  }

  void setup() override {}

  OpOutcome op(SpanLog* spans, int op_index) override {
    OpOutcome out;
    const auto t0 = Clock::now();
    service::ServiceMetrics m;
    std::vector<service::JobReport> reports;
    {
      SpanScope root(spans, "op", -1);
      service::GemmService svc(machine_, cfg_);
      {
        SpanScope submit(spans, "service.submit", root.id());
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
          (void)svc.submit(jobs_[i], arrivals_[i] * gap_scale_);
        }
      }
      {
        SpanScope drain(spans, "service.drain", root.id());
        svc.drain();
      }
      m = svc.metrics();
      reports = svc.reports();
    }
    out.wall_s = seconds_since(t0);

    const std::string cfg = config();
    if (m.accepted != jobs_.size() || m.completed != jobs_.size()) {
      fail(out, cfg, op_index,
           std::to_string(m.accepted) + " of " +
               std::to_string(jobs_.size()) + " jobs accepted, " +
               std::to_string(m.completed) + " done");
    }
    std::map<int, int> teams;
    double flops = 0.0;
    double makespans = 0.0;
    for (const service::JobReport& rep : reports) {
      const service::JobSpec& spec = jobs_[rep.id - 1];
      if (rep.state != service::JobState::Done) {
        fail(out, cfg, op_index,
             "job " + std::to_string(rep.id) + " ended " +
                 service::state_name(rep.state));
        continue;
      }
      check_multiply(out, cfg + " job " + std::to_string(rep.id), op_index,
                     rep.result, bounds_.at({spec.m, rep.nodes}));
      flops += spec.flops();
      out.core += rep.result.trace;
      out.rank_seconds += rep.ranks * rep.result.elapsed;
      makespans += rep.result.elapsed;
      out.latencies_s.push_back(rep.latency());
      ++teams[rep.ranks];
      sign(out.sig, rep.start_vt);
      sign(out.sig, rep.completion_vt);
      sign(out.sig, rep.nodes);
      sign(out.sig, rep.batch_size);
      sign(out.sig, rep.result.elapsed);
      sign(out.sig, rep.result.trace);
    }
    out.modeled_s = m.window;
    out.flops = flops;
    // The flops-weighted mean rate of one multiply on its sub-team.
    out.srumma_gflops = makespans > 0.0 ? flops / makespans * 1e-9 : 0.0;
    out.job_teams.assign(teams.begin(), teams.end());
    last_ = m;
    return out;
  }

  void layer_metrics(const std::vector<OpOutcome>& traced,
                     std::map<std::string, double>& out) override {
    std::vector<double> walls;
    for (const OpOutcome& o : traced) walls.push_back(o.wall_s);
    out["service.job_host_us"] = probes::median(walls) / kJobs * 1e6;
    out["service.batches"] = static_cast<double>(last_.batches);
    out["service.utilization"] = last_.utilization;
    out["service.mean_wait_ms"] = last_.mean_wait * 1e3;
    out["service.max_rate_jobs_per_s"] = max_rate();
  }

 private:
  /// Highest rate on a fixed ladder (multiples of the offered rate) whose
  /// stream meets the p99 limit with no growing backlog, i.e. completions
  /// keep up with at least 90% of the offered rate.
  double max_rate() {
    double best = 0.0;
    for (const double mult : {1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0}) {
      gap_scale_ = 1.0 / mult;
      const OpOutcome o = op(nullptr, -1);
      const double rate = mult / kMeanGap;
      if (o.failure.empty() && last_.p99_latency <= kP99Limit &&
          last_.jobs_per_s >= 0.9 * rate) {
        best = rate;
      }
    }
    gap_scale_ = 1.0;
    return best;
  }

  MachineModel machine_;
  service::ServiceConfig cfg_;
  std::vector<service::JobSpec> jobs_;
  std::vector<double> arrivals_;
  std::map<std::pair<index_t, int>, double> bounds_;
  double gap_scale_ = 1.0;
  service::ServiceMetrics last_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "dense_real") return std::make_unique<DenseReal>(args);
  if (args.workload == "fig10_phantom") {
    return std::make_unique<Fig10Phantom>(args);
  }
  if (args.workload == "ring_pooled") return std::make_unique<RingPooled>(args);
  if (args.workload == "service_stream") {
    return std::make_unique<ServiceStream>(args);
  }
  return nullptr;
}

}  // namespace perfbench

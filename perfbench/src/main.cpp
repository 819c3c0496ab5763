// perfbench: the SRUMMA repository benchmark program.
//
//   perfbench --workload <dense_real|fig10_phantom|ring_pooled|service_stream>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--max-ops <n>] [--perturb-reference]
//             [--commit <id>] [--src-digest <hex>] [--trace-dir <dir>]
//
// Prints a provenance line, one line per metric, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0
// reports the end-to-end metrics from untraced ops; --trace 1 reports the
// per-layer metrics from a separate traced pass plus probes.  The metric
// names, units and the layer map are documented in perfbench/README.md.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "blas/kernel.hpp"
#include "probes.hpp"

extern char** environ;

namespace perfbench {
namespace {

using srumma::MachineModel;
using srumma::SrummaOptions;
using srumma::TraceCounters;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

constexpr int kSetupReps = 3;
constexpr int kMinOps = 11;  // the tail needs ten ops beyond it

/// Environment variables that change what the library does.  The
/// benchmark pins its own worker count and must measure the defaults, so
/// any of these set from outside makes it refuse to run.
constexpr const char* kBehaviourPrefixes[] = {
    "SRUMMA_ENGINE",     "SRUMMA_CACHE",       "SRUMMA_LOOKAHEAD",
    "SRUMMA_FAULT_",     "SRUMMA_RMA_CHECK",   "SRUMMA_RMA_JOURNAL",
    "SRUMMA_TRACE",      "SRUMMA_GEMM_KERNEL", "SRUMMA_HARNESS",
    "SRUMMA_SERVICE_",
};

/// Per-layer metric names and units, in report order (BENCHMARK.json's
/// per_layer list; the self-test checks the two agree).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"runtime.team_setup_ms", "ms"},
    {"runtime.empty_run_ms", "ms"},
    {"runtime.barrier_us", "us"},
    {"vtime.book_append_ns", "ns"},
    {"vtime.book_gap_ns", "ns"},
    {"vtime.compute_frac", "frac"},
    {"vtime.comm_frac", "frac"},
    {"vtime.wait_frac", "frac"},
    {"rma.get_us", "us"},
    {"rma.copy_remote_gbps", "GB/s"},
    {"rma.copy_shm_gbps", "GB/s"},
    {"rma.gets", "count"},
    {"rma.bytes_remote", "B"},
    {"rma.bytes_shm", "B"},
    {"msg.sendrecv_us", "us"},
    {"msg.bcast_us", "us"},
    {"msg.sends", "count"},
    {"msg.bytes", "B"},
    {"blas.gemm_gflops", "GFLOP/s"},
    {"blas.serial_gemm_ms", "ms"},
    {"blas.gemm_calls", "count"},
    {"blas.flops", "FLOP"},
    {"dist.alloc_ms", "ms"},
    {"dist.scatter_ms", "ms"},
    {"dist.gather_ms", "ms"},
    {"dist.free_ms", "ms"},
    {"core.multiply_ms", "ms"},
    {"core.plan_us", "us"},
    {"core.modeled_gflops", "GFLOP/vs"},
    {"core.direct_tasks", "count"},
    {"core.copy_tasks", "count"},
    {"core.buffer_bytes_peak", "B"},
    {"baselines.pdgemm_ms", "ms"},
    {"baselines.modeled_gflops", "GFLOP/vs"},
    {"service.job_host_us", "us"},
    {"service.batches", "count"},
    {"service.utilization", "frac"},
    {"service.mean_wait_ms", "vms"},
    {"service.max_rate_jobs_per_s", "jobs/vs"},
    {"share.blas", "frac"},
    {"share.rma", "frac"},
    {"share.msg", "frac"},
    {"share.runtime", "frac"},
    {"share.dist", "frac"},
    {"share.residual", "frac"},
    {"trace_overhead_frac", "frac"},
    {"bench.reference_ms", "ms"},
    {"bench.verify_ms", "ms"},
    {"bench.certify_ms", "ms"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <dense_real|fig10_phantom|"
               "ring_pooled|service_stream> --seed <n> --seconds <s> "
               "--trace <0|1> [--max-ops <n>] [--perturb-reference] "
               "[--commit <id>] [--src-digest <hex>] [--trace-dir <dir>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--perturb-reference") {
      a.perturb_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        have[0] = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
        have[1] = true;
      } else if (k == "--seconds") {
        a.seconds = std::stoi(v);
        have[2] = true;
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
        have[3] = true;
      } else if (k == "--max-ops") {
        a.max_ops = std::stoi(v);
      } else if (k == "--commit") {
        a.commit = v;
      } else if (k == "--src-digest") {
        a.src_digest = v;
      } else if (k == "--trace-dir") {
        a.trace_dir = v;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::exception&) {
      usage("bad value '" + v + "' for " + k);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (a.seconds < 1 || a.seconds > 60) usage("--seconds must be in [1, 60]");
  if (a.max_ops < 0) usage("--max-ops must be >= 0");
  return a;
}

/// Names of behaviour-changing SRUMMA_* variables set in the environment.
std::vector<std::string> foreign_knobs() {
  std::vector<std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    for (const char* p : kBehaviourPrefixes) {
      if (kv.rfind(p, 0) == 0) out.push_back(kv.substr(0, kv.find('=')));
    }
  }
  return out;
}

double rss_now_mb() {
  std::ifstream f("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  f >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// The highest whole percentile, at most p90, with at least ten samples
/// above it (nearest rank), or the maximum when there are too few samples.
/// The cap keeps the tail off the few ops a busy host pre-empts: at 250
/// dense_real ops, p96 spread 21% of its median over ten runs.
struct Tail {
  int percentile = 100;
  double value = 0.0;
};
Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  Tail t;
  if (n == 0) return t;
  t.value = v.back();
  if (n < kMinOps) return t;
  t.percentile = std::min(90, static_cast<int>(100 * (n - 10) / n));
  const long rank = (static_cast<long>(t.percentile) * n + 99) / 100;
  t.value = v[static_cast<std::size_t>(std::max(1L, rank) - 1)];
  return t;
}

/// Nearest-rank p99.
double p99(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = (99 * v.size() + 99) / 100;
  return v[std::max<std::size_t>(rank, 1) - 1];
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Runs ops, checking each against the reference signature.
struct Loop {
  std::vector<OpOutcome> outcomes;
  int failed = 0;
  std::string first_failure;
  double rss_first_mb = 0.0;
  double rss_last_mb = 0.0;
};

void run_ops(Workload& w, const Signature& ref, int ops, double budget_s,
             SpanLog* spans, Loop& loop) {
  const auto t0 = Clock::now();
  for (int i = 0; i < ops; ++i) {
    if (spans != nullptr) spans->set_op(i);
    OpOutcome o = w.op(spans, static_cast<int>(loop.outcomes.size()));
    if (o.failure.empty() && o.sig != ref) {
      o.failure = w.config() + " op " +
                  std::to_string(loop.outcomes.size()) +
                  ": modeled makespan, counters or clocks differ bit for "
                  "bit from the first op";
    }
    if (loop.outcomes.empty()) loop.rss_first_mb = rss_now_mb();
    loop.rss_last_mb = rss_now_mb();
    // Compared; keeping these would grow memory with the op count.
    o.sig = Signature{};
    if (!loop.outcomes.empty()) o.latencies_s = {};
    loop.outcomes.push_back(std::move(o));
    if (seconds_since(t0) > budget_s && i + 1 < ops) {
      std::cout << "perfbench: op loop stopped after " << i + 1 << " of "
                << ops << " ops (over the " << budget_s << " s budget)\n";
      break;
    }
  }
  // Memory must not grow with the op count: each op frees its matrices.
  OpOutcome& last = loop.outcomes.back();
  const double growth = loop.rss_last_mb - loop.rss_first_mb;
  if (loop.outcomes.size() > 1 && last.failure.empty() &&
      growth > std::max(32.0, 0.1 * loop.rss_first_mb)) {
    last.failure = w.config() + ": resident memory grew from " +
                   num(loop.rss_first_mb) + " MiB after the first op to " +
                   num(loop.rss_last_mb) + " MiB after the last";
  }
  for (const OpOutcome& o : loop.outcomes) {
    if (o.failure.empty()) continue;
    ++loop.failed;
    if (loop.first_failure.empty()) loop.first_failure = o.failure;
  }
}

double median_wall(const std::vector<OpOutcome>& v) {
  std::vector<double> w;
  for (const OpOutcome& o : v) w.push_back(o.wall_s);
  return probes::median(std::move(w));
}

Metrics end_to_end(const std::vector<double>& setup_s, const Loop& loop) {
  std::vector<double> walls;
  int ok = 0;
  for (const OpOutcome& o : loop.outcomes) {
    walls.push_back(o.wall_s * 1e3);
    if (o.failure.empty()) ++ok;
  }
  const Tail tail = tail_of(walls);
  std::cout << "perfbench: op_ms_tail is p" << tail.percentile << " of "
            << walls.size() << " ops\n";
  // The modeled metrics of every passing op equal the first op's.
  const OpOutcome& first = loop.outcomes.front();
  return {
      {"setup_s", probes::median(setup_s), "s"},
      {"op_ms_p50", probes::median(walls), "ms"},
      {"op_ms_tail", tail.value, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"ok_frac", static_cast<double>(ok) / loop.outcomes.size(), "frac"},
      {"modeled_gflops",
       first.modeled_s > 0.0 ? first.flops / first.modeled_s * 1e-9 : 0.0,
       "GFLOP/vs"},
      {"modeled_latency_ms_p99", p99(first.latencies_s) * 1e3, "vms"},
  };
}

/// Per-layer probe results.
struct Probes {
  double team_setup_ms = 0.0;
  double empty_run_ms = 0.0;
  double barrier_us = 0.0;
  double book_append_ns = 0.0;
  double book_gap_ns = 0.0;
  double get_us = 0.0;
  double copy_remote_gbps = 0.0;
  double copy_shm_gbps = 0.0;
  double sendrecv_us = 0.0;
  double bcast_us = 0.0;
  double gemm_gflops = 0.0;
  double plan_us = 0.0;
};

/// Per-layer metrics from the traced pass, the probes and the counters.
Metrics per_layer(Workload& w, const Loop& untraced, const Loop& traced,
                  const SpanLog& spans) {
  const MachineModel& mm = w.machine();
  Probes p;
  p.team_setup_ms = probes::team_setup_ms(mm);
  p.empty_run_ms = probes::empty_run_ms(mm);
  p.barrier_us = probes::barrier_us(mm);
  p.book_append_ns = probes::book_append_ns();
  p.book_gap_ns = probes::book_gap_ns();
  p.get_us = probes::get_us(mm);
  p.copy_remote_gbps = probes::copy_gbps(mm, true, 256, 256);
  p.copy_shm_gbps = probes::copy_gbps(mm, false, 256, 256);
  p.sendrecv_us = probes::sendrecv_us(mm);
  p.bcast_us = probes::bcast_us(mm);
  if (w.plan_n() > 0) {
    const probes::PlanProbe plan =
        probes::plan(mm, w.plan_n(), SrummaOptions{});
    p.plan_us = plan.us_per_rank;
    p.gemm_gflops = probes::gemm_gflops(plan.tile_m, plan.tile_n, plan.tile_k);
  } else {
    p.gemm_gflops = probes::gemm_gflops(64, 64, 64);
  }

  const auto& ops = traced.outcomes;
  const double nops = static_cast<double>(ops.size());
  const OpOutcome& o = ops.front();
  TraceCounters all = o.core;
  all += o.baseline;
  auto frac = [&](double t) {
    return o.rank_seconds > 0.0 ? t / o.rank_seconds : 0.0;
  };

  // Self time per span name, per traced op.
  const std::vector<double> self = spans.self_us();
  std::map<std::string, double> self_ms;
  std::map<std::string, double> dur_ms;
  for (const Span& s : spans.spans()) {
    self_ms[s.name] += self[static_cast<std::size_t>(s.id)] * 1e-3 / nops;
    dur_ms[s.name] += (s.end_us - s.start_us) * 1e-3 / nops;
  }
  double dist_ms = 0.0;
  double runtime_ms = self_ms["op"];
  for (const auto& [name, ms] : self_ms) {
    if (name.rfind("dist.", 0) == 0) dist_ms += ms;
    if (name.rfind("runtime.", 0) == 0) runtime_ms += ms;
  }
  // Estimates for the time inside kernel and service spans: probe cost x
  // count.  Each service job builds and runs one Team of its lease's size.
  for (const auto& [ranks, jobs] : o.job_teams) {
    const MachineModel lease = mm.carve(ranks / mm.ranks_per_node);
    runtime_ms += jobs * (probes::team_setup_ms(lease) +
                          probes::empty_run_ms(lease));
  }
  runtime_ms += o.barriers_per_rank * p.barrier_us * 1e-3;
  const double blas_ms =
      w.real_data() && p.gemm_gflops > 0.0 ? all.flops / p.gemm_gflops * 1e-6
                                           : 0.0;
  double rma_ms = static_cast<double>(all.gets) * p.get_us * 1e-3;
  if (w.real_data()) {
    rma_ms += static_cast<double>(all.bytes_remote) / p.copy_remote_gbps * 1e-6 +
              static_cast<double>(all.bytes_shm) / p.copy_shm_gbps * 1e-6;
  }
  const double msg_ms =
      static_cast<double>(all.sends) * p.sendrecv_us / 2.0 * 1e-3;
  double wall_ms = 0.0;
  for (const OpOutcome& t : ops) wall_ms += t.wall_s * 1e3 / nops;
  auto share = [&](double ms) { return wall_ms > 0.0 ? ms / wall_ms : 0.0; };

  const double untraced_p50 = median_wall(untraced.outcomes);
  std::map<std::string, double> m = {
      {"runtime.team_setup_ms", p.team_setup_ms},
      {"runtime.empty_run_ms", p.empty_run_ms},
      {"runtime.barrier_us", p.barrier_us},
      {"vtime.book_append_ns", p.book_append_ns},
      {"vtime.book_gap_ns", p.book_gap_ns},
      {"vtime.compute_frac", frac(all.time_compute)},
      {"vtime.comm_frac", frac(all.time_comm)},
      {"vtime.wait_frac", frac(all.time_wait)},
      {"rma.get_us", p.get_us},
      {"rma.copy_remote_gbps", p.copy_remote_gbps},
      {"rma.copy_shm_gbps", p.copy_shm_gbps},
      {"rma.gets", static_cast<double>(all.gets)},
      {"rma.bytes_remote", static_cast<double>(all.bytes_remote)},
      {"rma.bytes_shm", static_cast<double>(all.bytes_shm)},
      {"msg.sendrecv_us", p.sendrecv_us},
      {"msg.bcast_us", p.bcast_us},
      {"msg.sends", static_cast<double>(all.sends)},
      {"msg.bytes", static_cast<double>(all.bytes_msg)},
      {"blas.gemm_gflops", p.gemm_gflops},
      {"blas.gemm_calls", static_cast<double>(all.gemm_calls)},
      {"blas.flops", all.flops},
      {"dist.alloc_ms", self_ms["dist.alloc"]},
      {"dist.scatter_ms", self_ms["dist.scatter"]},
      {"dist.gather_ms", self_ms["dist.gather"]},
      {"dist.free_ms", self_ms["dist.free"]},
      {"core.multiply_ms", dur_ms["core.multiply"]},
      {"core.plan_us", p.plan_us},
      {"core.modeled_gflops", o.srumma_gflops},
      {"core.direct_tasks", static_cast<double>(o.core.direct_tasks)},
      {"core.copy_tasks", static_cast<double>(o.core.copy_tasks)},
      {"core.buffer_bytes_peak", static_cast<double>(o.core.buffer_bytes_peak)},
      {"baselines.pdgemm_ms", dur_ms["baselines.pdgemm"]},
      {"baselines.modeled_gflops", o.pdgemm_gflops},
      {"share.blas", share(blas_ms)},
      {"share.rma", share(rma_ms)},
      {"share.msg", share(msg_ms)},
      {"share.runtime", share(runtime_ms)},
      {"share.dist", share(dist_ms)},
      {"share.residual",
       share(wall_ms - blas_ms - rma_ms - msg_ms - runtime_ms - dist_ms)},
      {"trace_overhead_frac",
       untraced_p50 > 0.0 ? median_wall(ops) / untraced_p50 - 1.0 : 0.0},
      {"bench.reference_ms", w.costs.reference_s * 1e3},
      {"bench.verify_ms", w.costs.verify_s * 1e3},
      {"bench.certify_ms", w.costs.certify_s * 1e3},
  };
  w.layer_metrics(ops, m);
  // Report every name in the fixed order with its unit; a layer this
  // workload does not exercise reads 0.
  Metrics out;
  for (const auto& [name, unit] : kLayerMetrics) {
    out.push_back({name, m[name], unit});
  }
  return out;
}

int run(const Args& args) {
  // Fixed allocator thresholds.  By default glibc raises its mmap threshold
  // the first time a large block is freed, so large allocations switch
  // from mmap to the heap partway through a run, at a point that varies
  // between runs; peak RSS then lands on one of two levels.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  const std::vector<std::string> foreign = foreign_knobs();
  if (!foreign.empty()) {
    std::cerr << "perfbench: refusing to run with behaviour-changing "
                 "variables set:";
    for (const std::string& k : foreign) std::cerr << ' ' << k;
    std::cerr << "\n";
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: built as " << PERFBENCH_BUILD_TYPE
              << "; timings need a Release build\n";
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(args);
  if (!w) usage("unknown workload '" + args.workload + "'");
  // Pin the pool size for every Team this process builds, including the
  // service's sub-teams.
  setenv("SRUMMA_HARNESS_THREADS", std::to_string(w->workers()).c_str(), 1);

  const int ops = args.max_ops > 0
                      ? args.max_ops
                      : std::max(kMinOps, static_cast<int>(std::lround(
                                              args.seconds * 1e3 /
                                              w->nominal_op_ms())));
  std::ostringstream prov;
  prov << "{\"workload\":\"" << w->name() << "\",\"commit\":\""
       << json_escape(args.commit) << "\",\"src_digest\":\""
       << json_escape(args.src_digest) << "\",\"build_type\":\""
       << PERFBENCH_BUILD_TYPE << "\",\"gemm_kernel\":\""
       << srumma::blas::active_kernel().name << "\",\"workers\":"
       << w->workers() << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"seed\":" << args.seed << ",\"sizes\":\""
       << json_escape(w->sizes()) << "\",\"ops\":" << ops
       << ",\"trace\":" << (args.trace ? 1 : 0) << "}";
  std::cout << "perfbench: provenance " << prov.str() << "\n";

  w->prepare();

  // Set-up, repeated: build the runtime stack and run one untimed warm-up
  // op (pack buffers and allocator caches only ever grow).
  std::vector<double> setup_s;
  Signature ref;
  std::string setup_failure;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    w->setup();
    const double build_s = seconds_since(t0);
    const OpOutcome warm = w->op(nullptr, -1 - i);
    setup_s.push_back(build_s + warm.wall_s);
    if (i == 0) ref = warm.sig;
    if (setup_failure.empty() && !warm.failure.empty()) {
      setup_failure = warm.failure;
    } else if (setup_failure.empty() && warm.sig != ref) {
      setup_failure =
          w->config() + ": warm-up ops differ bit for bit between set-ups";
    }
  }

  const double budget_s = 3.0 * args.seconds + 20.0;
  Loop untraced;
  Loop traced;
  SpanLog spans;
  Metrics metrics;
  if (!args.trace) {
    run_ops(*w, ref, ops, budget_s, nullptr, untraced);
    metrics = end_to_end(setup_s, untraced);
  } else {
    const int half = std::max(1, ops / 2);
    run_ops(*w, ref, half, budget_s / 2, nullptr, untraced);
    run_ops(*w, ref, half, budget_s / 2, &spans, traced);
    metrics = per_layer(*w, untraced, traced, spans);
    if (!args.trace_dir.empty()) {
      std::filesystem::create_directories(args.trace_dir);
      const std::string path = args.trace_dir + "/" + w->name() + "-seed" +
                               std::to_string(args.seed) + ".json";
      if (!spans.write_chrome_trace(path, prov.str())) {
        std::cerr << "perfbench: could not write " << path << "\n";
        return 2;
      }
      std::cout << "perfbench: spans written to " << path << "\n";
    }
  }

  const int attempted = static_cast<int>(untraced.outcomes.size() +
                                         traced.outcomes.size());
  const int failed = untraced.failed + traced.failed;
  const bool correct = failed == 0 && setup_failure.empty();
  for (const std::string& f :
       {setup_failure, untraced.first_failure, traced.first_failure}) {
    if (!f.empty()) std::cout << "perfbench: FAIL first failing op: " << f << "\n";
  }
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << "metric " << m.name << " = " << num(m.value) << " " << m.unit
              << "\n";
    js << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 2;
  }
}

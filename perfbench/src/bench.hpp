#pragma once
// Shared vocabulary of the perfbench program: arguments, spans, op
// outcomes and the Workload interface.  The program calls only the
// SRUMMA library's public API; every timing here is taken from outside
// the library, around the benchmark's own calls into it.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "vtime/trace_counters.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Fixed op count for short runs (self-test); 0 = derive from seconds.
  int max_ops = 0;
  /// Negative self-test: corrupt the dense_real reference so every op's
  /// output check must fail.
  bool perturb_reference = false;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
  /// Where the traced run writes its Chrome-trace JSON ("" = not written).
  std::string trace_dir;
};

// -- spans --------------------------------------------------------------------

/// One timed interval around a benchmark call into a library module.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "dist.alloc"
  double start_us = 0.0;
  double end_us = 0.0;
  int id = 0;
  int parent = -1;  ///< id of the enclosing span, -1 for an op root
  int op = 0;       ///< which traced op the span belongs to
};

/// In-memory span recorder.  Spans are recorded by the main thread and by
/// rank 0 only; Team::run joins every worker before it returns, so the two
/// never write concurrently.
class SpanLog {
 public:
  SpanLog();
  int begin(const char* name, int parent);
  void end(int id);
  void set_op(int op) { op_ = op; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the union of its children's intervals, per span id.
  [[nodiscard]] std::vector<double> self_us() const;
  /// Write {"traceEvents": [...], "otherData": <other_json>}.
  bool write_chrome_trace(const std::string& path,
                          const std::string& other_json) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int op_ = 0;
};

/// RAII span; a null log makes it a no-op (the untraced path).
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, int parent)
      : log_(log), id_(log != nullptr ? log->begin(name, parent) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Back-to-back spans under one parent: next() ends the current span and
/// starts another; a null log makes every call a no-op.
class Phases {
 public:
  Phases(SpanLog* log, int parent) : log_(log), parent_(parent) {}
  ~Phases() { stop(); }
  Phases(const Phases&) = delete;
  Phases& operator=(const Phases&) = delete;
  void next(const char* name) {
    stop();
    if (log_ != nullptr) cur_ = log_->begin(name, parent_);
  }
  void stop() {
    if (log_ != nullptr && cur_ >= 0) log_->end(cur_);
    cur_ = -1;
  }

 private:
  SpanLog* log_;
  int parent_;
  int cur_ = -1;
};

// -- op outcomes --------------------------------------------------------------

/// Raw bytes of every modeled value an op produced.  Ops with equal inputs
/// must produce byte-identical signatures.
using Signature = std::vector<unsigned char>;

template <typename T>
void sign(Signature& sig, const T& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(&v);
  sig.insert(sig.end(), p, p + sizeof(T));
}

struct OpOutcome {
  double wall_s = 0.0;     ///< host time of the program calls in the op
  double modeled_s = 0.0;  ///< modeled time the op's FLOPs are divided by
  double flops = 0.0;
  std::vector<double> latencies_s;  ///< modeled per-job latency
  srumma::TraceCounters core;       ///< summed over SRUMMA multiplies
  srumma::TraceCounters baseline;   ///< summed over pdgemm multiplies
  double rank_seconds = 0.0;        ///< sum of ranks x makespan
  double srumma_gflops = 0.0;       ///< modeled, SRUMMA multiplies
  double pdgemm_gflops = 0.0;       ///< modeled, pdgemm multiplies
  double barriers_per_rank = 0.0;   ///< traced ops: barriers in the kernel
  /// Service jobs by sub-team rank count (each built its own Team).
  std::vector<std::pair<int, int>> job_teams;
  Signature sig;
  std::string failure;  ///< empty when every output check passed
};

/// Host-time costs of the benchmark's own work, kept out of every op and
/// out of setup_s.
struct BenchCosts {
  double reference_s = 0.0;
  double verify_s = 0.0;
  double certify_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual const srumma::MachineModel& machine() const = 0;
  /// Edge of the square multiply the plan and gemm probes use; 0 when the
  /// workload runs no multiply.
  [[nodiscard]] virtual srumma::index_t plan_n() const = 0;
  [[nodiscard]] virtual int workers() const = 0;
  /// Human-readable problem sizes for the provenance stamp.
  [[nodiscard]] virtual std::string sizes() const = 0;
  /// Host ms one op takes on the reference host; fixes the op count.
  [[nodiscard]] virtual double nominal_op_ms() const = 0;
  /// Whether operands carry data (the blas and copy shares apply).
  [[nodiscard]] virtual bool real_data() const { return false; }

  /// The benchmark's own preparation: inputs from the seed, reference
  /// results and analyzer certification.  Not part of setup_s.
  virtual void prepare() {}
  /// Program set-up: (re)build the Team, RmaRuntime and Comm.
  virtual void setup() = 0;
  /// One op.  `spans` is null on untraced ops; traced ops also count the
  /// barriers inside the multiply.  Checks the op's outputs and sets
  /// `failure` to the first failed check with the op's configuration.
  virtual OpOutcome op(SpanLog* spans, int op_index) = 0;
  /// Workload-specific per-layer metrics, by name.
  virtual void layer_metrics(const std::vector<OpOutcome>& traced,
                             std::map<std::string, double>& out) {
    (void)traced;
    (void)out;
  }

  /// Everything needed to rerun an op: workload, seed, sizes and workers.
  [[nodiscard]] std::string config() const {
    return std::string(name()) + " seed=" + std::to_string(seed_) + " " +
           sizes() + " workers=" + std::to_string(workers());
  }

  BenchCosts costs;

 protected:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t seed_;
};

std::unique_ptr<Workload> make_workload(const Args& args);

}  // namespace perfbench

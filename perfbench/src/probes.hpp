#pragma once
// Probes: each times one public unit operation of one library module in
// isolation, so a per-layer cost can be multiplied by the op's counts.

#include <vector>

#include "core/options.hpp"
#include "machine/machine.hpp"

namespace perfbench::probes {

[[nodiscard]] double median(std::vector<double> v);

/// Host ms to construct a Team, RmaRuntime and Comm for `machine`.
[[nodiscard]] double team_setup_ms(const srumma::MachineModel& machine);
/// Host ms of an empty Team::run at the machine's rank count.
[[nodiscard]] double empty_run_ms(const srumma::MachineModel& machine);
/// Host us per team-wide Rank::barrier, net of the empty run.
[[nodiscard]] double barrier_us(const srumma::MachineModel& machine);
/// Host ns per Resource::book that appends past the horizon.
[[nodiscard]] double book_append_ns();
/// Host ns per Resource::book that first-fits into an interior gap.
[[nodiscard]] double book_gap_ns();
/// Host us per phantom nbget + wait between ranks on different nodes.
[[nodiscard]] double get_us(const srumma::MachineModel& machine);
/// Real-data nbget2d + wait rate in GB/s for a rows x cols patch, from a
/// rank on another node (`remote`) or in the same shared-memory domain.
[[nodiscard]] double copy_gbps(const srumma::MachineModel& machine,
                               bool remote, srumma::index_t rows,
                               srumma::index_t cols);
/// Host us per one-double Comm::sendrecv exchange between two nodes.
[[nodiscard]] double sendrecv_us(const srumma::MachineModel& machine);
/// Host us per one-double Comm::bcast over every rank of `machine`.
[[nodiscard]] double bcast_us(const srumma::MachineModel& machine);
/// blas::gemm rate in GFLOP/s at one block shape.
[[nodiscard]] double gemm_gflops(srumma::index_t m, srumma::index_t n,
                                 srumma::index_t k);

/// Host us per rank to tune options and build one rank's task plan for an
/// n x n x n multiply, and the block shape (m, n, k) of rank 0's first
/// task.
struct PlanProbe {
  double us_per_rank = 0.0;
  srumma::index_t tile_m = 0;
  srumma::index_t tile_n = 0;
  srumma::index_t tile_k = 0;
};
[[nodiscard]] PlanProbe plan(const srumma::MachineModel& machine,
                             srumma::index_t n,
                             const srumma::SrummaOptions& opt);

/// The static analyzer's per-rank buffer ceiling for an n x n x n
/// multiply; throws when the analyzer does not certify the configuration.
[[nodiscard]] double buffer_bound(const srumma::MachineModel& machine,
                                  srumma::index_t n,
                                  const srumma::SrummaOptions& opt);

}  // namespace perfbench::probes

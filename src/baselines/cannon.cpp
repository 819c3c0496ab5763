#include "baselines/cannon.hpp"

#include <cmath>
#include <cstring>

#include "blas/gemm.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace srumma {

namespace {
// Tags for the two circulating operands.
constexpr int kTagA = 101;
constexpr int kTagB = 102;

int square_grid_edge(int nranks) {
  const int p = static_cast<int>(std::lround(std::sqrt(nranks)));
  SRUMMA_REQUIRE(p * p == nranks,
                 "Cannon's algorithm requires a square process grid");
  return p;
}
}  // namespace

MultiplyResult cannon_multiply(Rank& me, Comm& comm, MatrixView a_block,
                               MatrixView b_block, MatrixView c_block,
                               const CannonOptions& opt) {
  Team& team = me.team();
  const int p = square_grid_edge(team.size());
  const int pi = me.id() % p;
  const int pj = me.id() / p;
  auto rank_of = [&](int i, int j) { return ((i + p) % p) + ((j + p) % p) * p; };

  const index_t bm = cannon_block(opt.m, p);
  const index_t bn = cannon_block(opt.n, p);
  const index_t bk = cannon_block(opt.k, p);
  const std::size_t a_elems = static_cast<std::size_t>(bm * bk);
  const std::size_t b_elems = static_cast<std::size_t>(bk * bn);
  if (!opt.phantom) {
    SRUMMA_REQUIRE(a_block.rows() == bm && a_block.cols() == bk,
                   "cannon: A block must be ceil(m/p) x ceil(k/p)");
    SRUMMA_REQUIRE(b_block.rows() == bk && b_block.cols() == bn,
                   "cannon: B block must be ceil(k/p) x ceil(n/p)");
    SRUMMA_REQUIRE(c_block.rows() == bm && c_block.cols() == bn,
                   "cannon: C block must be ceil(m/p) x ceil(n/p)");
    SRUMMA_REQUIRE(a_block.ld() == bm && b_block.ld() == bk,
                   "cannon: circulating blocks must be packed (ld == rows)");
  }

  me.barrier();
  const double start_vt = me.clock().now();
  const TraceCounters my_start = me.trace();

  if (!opt.phantom && opt.beta != 1.0) c_block.scale(opt.beta);

  Matrix a_tmp;
  Matrix b_tmp;
  if (!opt.phantom) {
    a_tmp = Matrix(bm, bk);
    b_tmp = Matrix(bk, bn);
  }
  me.trace().buffer_bytes_peak = std::max(
      me.trace().buffer_bytes_peak,
      static_cast<std::uint64_t>(bm * bk + bk * bn) * sizeof(double));
  double* a_cur = opt.phantom ? nullptr : a_block.data();
  double* a_alt = opt.phantom ? nullptr : a_tmp.data();
  double* b_cur = opt.phantom ? nullptr : b_block.data();
  double* b_alt = opt.phantom ? nullptr : b_tmp.data();

  // Exchange a circulating block `dist` hops along a grid dimension.
  auto shift = [&](double*& cur, double*& alt, std::size_t elems, int tag,
                   int dst, int src) {
    if (dst == me.id()) return;  // distance 0
    comm.sendrecv(me, dst, tag, cur, elems, src, tag, alt, elems);
    std::swap(cur, alt);
  };

  // 1. Skew: A row i shifts left by i, B column j shifts up by j.
  shift(a_cur, a_alt, a_elems, kTagA, rank_of(pi, pj - pi), rank_of(pi, pj + pi));
  shift(b_cur, b_alt, b_elems, kTagB, rank_of(pi - pj, pj), rank_of(pi + pj, pj));

  // 2. Multiply-and-shift steps.
  for (int step = 0; step < p; ++step) {
    if (!opt.phantom) {
      blas::gemm(blas::Trans::No, blas::Trans::No, bm, bn, bk, opt.alpha,
                 a_cur, bm, b_cur, bk, 1.0, c_block.data(), c_block.ld());
    }
    me.charge_gemm(bm, bn, bk);
    if (step + 1 < p) {
      shift(a_cur, a_alt, a_elems, kTagA, rank_of(pi, pj - 1),
            rank_of(pi, pj + 1));
      shift(b_cur, b_alt, b_elems, kTagB, rank_of(pi - 1, pj),
            rank_of(pi + 1, pj));
    }
  }
  // Leave the caller's block storage holding the final circulated data.
  if (!opt.phantom && a_cur != a_block.data()) {
    std::memcpy(a_block.data(), a_cur, a_elems * sizeof(double));
  }
  if (!opt.phantom && b_cur != b_block.data()) {
    std::memcpy(b_block.data(), b_cur, b_elems * sizeof(double));
  }

  return collect_result(me, start_vt, my_start,
                        gemm_flops(static_cast<double>(opt.m),
                                   static_cast<double>(opt.n),
                                   static_cast<double>(opt.k)));
}

}  // namespace srumma

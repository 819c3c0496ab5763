#include "cyclic/pdgemm_cyclic.hpp"

#include <algorithm>

#include "baselines/summa.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace srumma {

MultiplyResult pdgemm_cyclic(Rank& me, Comm& comm, CyclicMatrix& a,
                             CyclicMatrix& b, CyclicMatrix& c,
                             const PdgemmCyclicOptions& opt) {
  const ProcGrid grid = c.grid();
  SRUMMA_REQUIRE(a.grid().p == grid.p && a.grid().q == grid.q &&
                     b.grid().p == grid.p && b.grid().q == grid.q,
                 "pdgemm_cyclic: matrices must share one grid");
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = a.cols();
  SRUMMA_REQUIRE(a.rows() == m && b.rows() == k && b.cols() == n,
                 "pdgemm_cyclic: dimensions do not conform");
  const index_t kb = a.col_dist().block();
  SRUMMA_REQUIRE(b.row_dist().block() == kb,
                 "pdgemm_cyclic: A's KB must equal B's MB");
  SRUMMA_REQUIRE(a.row_dist().block() == c.row_dist().block() &&
                     b.col_dist().block() == c.col_dist().block(),
                 "pdgemm_cyclic: row/col blocking of C must match A/B");
  SRUMMA_REQUIRE(a.phantom() == c.phantom() && b.phantom() == c.phantom(),
                 "pdgemm_cyclic: phantom flags must agree");

  // Panel t is column block t of A (grid column t mod q) and row block t of
  // B (grid row t mod p); panel buffers are one full block wide.
  SummaLoop loop;
  loop.grid = grid;
  loop.phantom = c.phantom();
  if (!loop.phantom) {
    loop.a = a.local_view(me);
    loop.b = b.local_view(me);
    loop.c = c.local_view(me);
  }
  loop.rows = c.local_rows(me.id());
  loop.cols = c.local_cols(me.id());
  for (index_t k0 = 0; k0 < k; k0 += kb) {
    const index_t t = k0 / kb;
    loop.panels.push_back({std::min(kb, k - k0), static_cast<int>(t % grid.q),
                           static_cast<int>(t % grid.p),
                           a.col_dist().to_local(k0),
                           b.row_dist().to_local(k0)});
  }
  loop.capacity = kb;
  loop.alpha = opt.alpha;
  loop.beta = opt.beta;
  loop.flops = gemm_flops(static_cast<double>(m), static_cast<double>(n),
                          static_cast<double>(k));
  return summa_panel_loop(me, comm, loop);
}

}  // namespace srumma

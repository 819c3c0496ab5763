#pragma once
// SUMMA (van de Geijn & Watts, 1997) and the ScaLAPACK pdgemm stand-in.
//
// SUMMA is the algorithm inside PBLAS pdgemm, the baseline the paper
// compares against on every platform.  For each K panel, the owning grid
// column broadcasts its A panel along grid rows and the owning grid row
// broadcasts its B panel along grid columns (binomial trees over the
// message-passing layer); every rank then accumulates
// C_local += A_panel * B_panel.
//
// pdgemm_model extends SUMMA to op(A)/op(B) by an explicit transposed
// redistribution before the multiply — modelling why pdgemm loses so much
// more on the transposed cases of the paper's Table 1.

#include <vector>

#include "blas/gemm.hpp"
#include "dist/dist_matrix.hpp"
#include "msg/comm.hpp"
#include "trace/report.hpp"

namespace srumma {

/// One K panel of the SUMMA loop: `width` columns of A, owned by grid
/// column `a_col` at local column `a_off` of each owner's block, times the
/// matching rows of B, owned by grid row `b_row` at local row `b_off`.
struct SummaPanel {
  index_t width = 0;
  int a_col = 0;
  int b_row = 0;
  index_t a_off = 0;
  index_t b_off = 0;
};

/// One rank's inputs to the SUMMA panel loop.  The layout only decides the
/// panel list: the loop needs that each local product is the local part of
/// the global one, which holds for the block and block-cyclic layouts.
struct SummaLoop {
  ProcGrid grid;
  MatrixView a, b, c;  ///< local blocks; unused when phantom
  index_t rows = 0;    ///< local rows of C (and of A)
  index_t cols = 0;    ///< local columns of C (and of B)
  bool phantom = false;
  std::vector<SummaPanel> panels;
  index_t capacity = 0;  ///< panel-buffer width in K, >= every panel width
  double alpha = 1.0, beta = 0.0;
  double flops = 0.0;  ///< of the whole product, for MultiplyResult::gflops
};

/// SPMD collective SUMMA panel loop: C := beta*C, then for each panel the
/// owning grid column packs its A panel and broadcasts it along grid rows,
/// the owning grid row packs its B panel and broadcasts it down grid
/// columns, and every rank accumulates C_local += alpha*A_panel*B_panel.
/// buffer_bytes_peak records panel buffers of `capacity` K columns.
MultiplyResult summa_panel_loop(Rank& me, Comm& comm, const SummaLoop& loop);

struct SummaOptions {
  double alpha = 1.0, beta = 0.0;
  /// Maximum K-panel width; 0 = cut only at block-owner boundaries.
  index_t panel = 128;
};

/// SPMD collective SUMMA: C := alpha*A*B + beta*C (no transposes).
/// A, B, C must share one grid; A is m x k, B is k x n, C is m x n.
MultiplyResult summa_multiply(Rank& me, Comm& comm, DistMatrix& a,
                              DistMatrix& b, DistMatrix& c,
                              const SummaOptions& opt = SummaOptions{});

/// Redistribute src into a transposed DistMatrix (dst must be cols x rows
/// of src, same grid).  Ring-scheduled sendrecv exchange; O(P) steps.
void transpose_redistribute(Rank& me, Comm& comm, DistMatrix& src,
                            DistMatrix& dst);

struct PdgemmOptions {
  blas::Trans ta = blas::Trans::No;
  blas::Trans tb = blas::Trans::No;
  double alpha = 1.0, beta = 0.0;
  index_t panel = 64;  ///< typical ScaLAPACK distribution block size
};

/// The pdgemm model: transposed operands are first redistributed (cost
/// included in the result), then SUMMA runs.  C := alpha*op(A)*op(B)+beta*C.
MultiplyResult pdgemm_model(Rank& me, Comm& comm, DistMatrix& a, DistMatrix& b,
                            DistMatrix& c,
                            const PdgemmOptions& opt = PdgemmOptions{});

}  // namespace srumma

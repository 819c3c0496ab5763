#pragma once
// Shared fixtures and reference implementations for the test suite.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>

#include "blas/gemm.hpp"
#include "dist/dist_matrix.hpp"
#include "machine/machine.hpp"
#include "rma/rma.hpp"
#include "runtime/team.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace srumma::testing {

/// Dense reference: C := alpha*op(A)*op(B) + beta*C via the naive kernel.
inline void reference_gemm(blas::Trans ta, blas::Trans tb, double alpha,
                           const Matrix& a, const Matrix& b, double beta,
                           Matrix& c) {
  const index_t m = ta == blas::Trans::No ? a.rows() : a.cols();
  const index_t k = ta == blas::Trans::No ? a.cols() : a.rows();
  blas::gemm_naive(ta, tb, m, c.cols(), k, alpha, a.data(), a.ld(), b.data(),
                   b.ld(), beta, c.data(), c.ld());
}

/// Build the global matrix the distributed fill_coords_local produces.
inline Matrix coords_matrix(index_t m, index_t n) {
  Matrix x(m, n);
  fill_coords(x.view(), 0, 0);
  return x;
}

/// Tolerance scaled to the accumulation depth.
inline double gemm_tolerance(index_t k) {
  return 1e-12 * static_cast<double>(std::max<index_t>(k, 1)) * 16.0;
}

/// Sets (or, for nullptr, unsets) an environment variable for one scope and
/// restores its previous state on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    set(value);
  }
  ~ScopedEnv() { set(old_ ? old_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void set(const char* value) {
    if (value != nullptr) {
      setenv(name_.c_str(), value, 1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  std::string name_;
  std::optional<std::string> old_;
};

/// Runs `fn` with `name` set to `value` and expects an Error whose message
/// names the variable.
template <class F>
void expect_env_rejected(const char* name, const char* value, F&& fn) {
  ScopedEnv e(name, value);
  try {
    fn();
    ADD_FAILURE() << name << "='" << value << "' was accepted";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find(name), std::string::npos)
        << err.what();
  }
}

}  // namespace srumma::testing

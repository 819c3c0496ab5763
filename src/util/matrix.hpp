#pragma once
// Dense column-major matrix container and non-owning views.
//
// The library follows BLAS conventions: storage is column-major with an
// explicit leading dimension, so any rectangular sub-block of a matrix is
// itself addressable as a view (pointer + leading dimension) with no copy.
// This is what lets the SRUMMA shared-memory "direct access" flavor hand a
// peer's block straight to dgemm.

#include <cstddef>
#include <utility>

#include "util/aligned.hpp"
#include "util/error.hpp"

namespace srumma {

using index_t = std::ptrdiff_t;

/// Non-owning mutable view of a column-major matrix block.
class MatrixView {
 public:
  MatrixView() noexcept = default;
  MatrixView(double* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    SRUMMA_REQUIRE(rows >= 0 && cols >= 0, "view dims must be non-negative");
    SRUMMA_REQUIRE(ld >= rows, "leading dimension must be >= rows");
  }

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t ld() const noexcept { return ld_; }
  [[nodiscard]] double* data() const noexcept { return data_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  [[nodiscard]] double& operator()(index_t i, index_t j) const {
    return data_[i + j * ld_];
  }

  /// View of the block with upper-left corner (i0, j0) and extent (m, n).
  [[nodiscard]] MatrixView block(index_t i0, index_t j0, index_t m,
                                 index_t n) const {
    SRUMMA_REQUIRE(i0 >= 0 && j0 >= 0 && i0 + m <= rows_ && j0 + n <= cols_,
                   "sub-block out of range");
    return MatrixView(data_ + i0 + j0 * ld_, m, n, ld_);
  }

  void fill(double v) const {
    for (index_t j = 0; j < cols_; ++j)
      for (index_t i = 0; i < rows_; ++i) (*this)(i, j) = v;
  }

  /// X := beta*X with the BLAS convention that beta == 0 overwrites, so
  /// NaN or Inf already in X does not survive.
  void scale(double beta) const {
    if (beta == 0.0) {
      fill(0.0);
      return;
    }
    for (index_t j = 0; j < cols_; ++j)
      for (index_t i = 0; i < rows_; ++i) (*this)(i, j) *= beta;
  }

 private:
  double* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 0;
};

/// Non-owning read-only view of a column-major matrix block.
class ConstMatrixView {
 public:
  ConstMatrixView() noexcept = default;
  ConstMatrixView(const double* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    SRUMMA_REQUIRE(rows >= 0 && cols >= 0, "view dims must be non-negative");
    SRUMMA_REQUIRE(ld >= rows, "leading dimension must be >= rows");
  }
  ConstMatrixView(MatrixView v) noexcept  // NOLINT: implicit by design
      : data_(v.data()), rows_(v.rows()), cols_(v.cols()), ld_(v.ld()) {}

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t ld() const noexcept { return ld_; }
  [[nodiscard]] const double* data() const noexcept { return data_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  [[nodiscard]] const double& operator()(index_t i, index_t j) const {
    return data_[i + j * ld_];
  }

  [[nodiscard]] ConstMatrixView block(index_t i0, index_t j0, index_t m,
                                      index_t n) const {
    SRUMMA_REQUIRE(i0 >= 0 && j0 >= 0 && i0 + m <= rows_ && j0 + n <= cols_,
                   "sub-block out of range");
    return ConstMatrixView(data_ + i0 + j0 * ld_, m, n, ld_);
  }

 private:
  const double* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 0;
};

/// Owning column-major matrix with cache-line aligned, packed storage
/// (leading dimension == rows).
class Matrix {
 public:
  Matrix() = default;
  Matrix(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
    SRUMMA_REQUIRE(rows >= 0 && cols >= 0, "matrix dims must be non-negative");
    data_.assign(static_cast<std::size_t>(rows * cols), 0.0);
  }

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t ld() const noexcept { return rows_; }
  [[nodiscard]] index_t size() const noexcept { return rows_ * cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }

  [[nodiscard]] double& operator()(index_t i, index_t j) {
    return data_[static_cast<std::size_t>(i + j * rows_)];
  }
  [[nodiscard]] const double& operator()(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i + j * rows_)];
  }

  [[nodiscard]] MatrixView view() {
    return MatrixView(data(), rows_, cols_, rows_);
  }
  [[nodiscard]] ConstMatrixView view() const {
    return ConstMatrixView(data(), rows_, cols_, rows_);
  }
  [[nodiscard]] MatrixView block(index_t i0, index_t j0, index_t m, index_t n) {
    return view().block(i0, j0, m, n);
  }
  [[nodiscard]] ConstMatrixView block(index_t i0, index_t j0, index_t m,
                                      index_t n) const {
    return view().block(i0, j0, m, n);
  }

  void fill(double v) { data_.assign(data_.size(), v); }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  AlignedVector<double> data_;
};

/// Copy src into dst (dims must match). Views may alias only if identical.
void copy(ConstMatrixView src, MatrixView dst);

/// Maximum absolute element-wise difference between two equally-sized views.
[[nodiscard]] double max_abs_diff(ConstMatrixView a, ConstMatrixView b);

/// Frobenius norm.
[[nodiscard]] double frobenius_norm(ConstMatrixView a);

/// Transpose src into dst (dst must be cols x rows of src).
void transpose(ConstMatrixView src, MatrixView dst);

}  // namespace srumma

// Dense row-major matrix and vector helpers used by the thermal RC solver.
//
// The thermal networks built in src/thermal are small (a few thousand
// nodes), so a cache-friendly dense representation with an LU
// factorization (see lu.hpp) is both simpler and faster than a sparse
// iterative stack at this scale.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/aligned.hpp"

namespace ds::util {

/// Dense row-major matrix of doubles. The backing store is 64-byte
/// aligned (util/aligned.hpp) so the panel/GEMM kernels and the
/// multi-RHS triangular solves stream split-free cache lines.
///
/// Invariant: data_.size() == rows_ * cols_ at all times.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Creates a square n x n matrix, zero-initialized.
  static Matrix Square(std::size_t n) { return Matrix(n, n); }

  /// Creates an n x n identity matrix.
  static Matrix Identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Contiguous view of row r.
  std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  std::span<const double> data() const { return data_; }
  std::span<double> data() { return data_; }

  /// y = A * x. Requires x.size() == cols().
  std::vector<double> Multiply(std::span<const double> x) const;

  /// Returns A + B elementwise. Requires identical dimensions.
  Matrix Add(const Matrix& other) const;

  /// Returns A scaled by s.
  Matrix Scaled(double s) const;

  /// Maximum absolute elementwise difference against another matrix.
  double MaxAbsDiff(const Matrix& other) const;

  /// True if the matrix is symmetric to within `tol` (absolute).
  bool IsSymmetric(double tol = 1e-9) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double, AlignedAllocator<double>> data_;
};

/// Elementwise vector helpers (kept free so they read like math).
double Dot(std::span<const double> a, std::span<const double> b);
std::vector<double> Scale(std::span<const double> v, double s);
std::vector<double> AddVec(std::span<const double> a,
                           std::span<const double> b);
std::vector<double> SubVec(std::span<const double> a,
                           std::span<const double> b);
double MaxElement(std::span<const double> v);
double MinElement(std::span<const double> v);
double Norm2(std::span<const double> v);
double MaxAbsDiffVec(std::span<const double> a, std::span<const double> b);

}  // namespace ds::util

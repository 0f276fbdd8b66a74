#include "la/dense_lu.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace vstack::la {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {
  VS_REQUIRE(rows > 0 && cols > 0, "dense matrix dimensions must be positive");
}

DenseMatrix DenseMatrix::from_csr(const CsrMatrix& a) {
  DenseMatrix d(a.size(), a.size(), 0.0);
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      d(r, a.col_idx()[k]) = a.values()[k];
    }
  }
  return d;
}

double& DenseMatrix::operator()(std::size_t r, std::size_t c) {
  VS_REQUIRE(r < rows_ && c < cols_, "dense index out of range");
  return data_[r * cols_ + c];
}

double DenseMatrix::operator()(std::size_t r, std::size_t c) const {
  VS_REQUIRE(r < rows_ && c < cols_, "dense index out of range");
  return data_[r * cols_ + c];
}

Vector DenseMatrix::multiply(const Vector& x) const {
  VS_REQUIRE(x.size() == cols_, "dense multiply: dimension mismatch");
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += data_[r * cols_ + c] * x[c];
    y[r] = s;
  }
  return y;
}

DenseLu::DenseLu(DenseMatrix a, const Deadline& deadline)
    : lu_(std::move(a)) {
  factor(deadline);
}

void DenseLu::refactor(const DenseMatrix& a, const Deadline& deadline) {
  lu_ = a;  // copy-assignment reuses the factor storage once it is sized
  factor(deadline);
}

void DenseLu::factor(const Deadline& deadline) {
  factored_ = false;
  VS_REQUIRE(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  // Bounds are fixed by the square check above; the elimination walks raw
  // rows of the row-major factor.
  double* const a = lu_.data();
  for (std::size_t k = 0; k < n; ++k) {
    // One elimination step is O((n-k)^2); poll every 16 to keep the clock
    // read off the critical path for the tiny switched-cap matrices.
    VS_REQUIRE((k & 15u) != 0u || !deadline.expired(),
               "LU: deadline expired during factorization");
    double* const row_k = a + k * n;
    // Partial pivoting.
    std::size_t pivot_row = k;
    double pivot_val = std::abs(row_k[k]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(a[r * n + k]);
      if (v > pivot_val) {
        pivot_val = v;
        pivot_row = r;
      }
    }
    VS_REQUIRE(pivot_val > 1e-300, "LU: numerically singular matrix");
    if (pivot_row != k) {
      std::swap_ranges(row_k, row_k + n, a + pivot_row * n);
      std::swap(perm_[k], perm_[pivot_row]);
    }
    const double pivot = row_k[k];
    for (std::size_t r = k + 1; r < n; ++r) {
      double* const row_r = a + r * n;
      const double m = row_r[k] / pivot;
      row_r[k] = m;
      for (std::size_t c = k + 1; c < n; ++c) {
        row_r[c] -= m * row_k[c];
      }
    }
  }
  factored_ = true;
}

Vector DenseLu::solve(const Vector& b) const {
  Vector x;
  solve_into(b, x);
  return x;
}

void DenseLu::solve_into(const Vector& b, Vector& x) const {
  VS_REQUIRE(factored_, "LU solve: no factorization");
  const std::size_t n = lu_.rows();
  VS_REQUIRE(b.size() == n, "LU solve: rhs size mismatch");
  VS_REQUIRE(&b != &x, "LU solve: rhs and solution must be distinct");
  x.resize(n);
  const double* const a = lu_.data();
  // Apply permutation, forward solve (unit lower).
  for (std::size_t i = 0; i < n; ++i) {
    const double* const row = a + i * n;
    double s = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) s -= row[j] * x[j];
    x[i] = s;
  }
  // Backward solve (upper).
  for (std::size_t ii = n; ii-- > 0;) {
    const double* const row = a + ii * n;
    double s = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= row[j] * x[j];
    x[ii] = s / row[ii];
  }
}

}  // namespace vstack::la

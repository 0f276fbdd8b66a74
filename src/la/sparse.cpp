#include "la/sparse.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace vstack::la {

CooBuilder::CooBuilder(std::size_t n) : n_(n) {
  VS_REQUIRE(n > 0, "matrix dimension must be positive");
}

void CooBuilder::add(std::size_t row, std::size_t col, double value) {
  VS_REQUIRE(row < n_ && col < n_, "stamp index out of range");
  rows_.push_back(row);
  cols_.push_back(col);
  values_.push_back(value);
}

CsrMatrix CooBuilder::build() const {
  CooPattern p = pattern();
  std::vector<double> values(p.nnz());
  p.merge(values_, values.data());
  return CsrMatrix(n_, std::move(p.row_ptr_), std::move(p.col_idx_),
                   std::move(values));
}

CooPattern CooBuilder::pattern() const {
  CooPattern p;
  p.n_ = n_;
  // Sort entry indices by (row, col); duplicates form contiguous runs.
  p.order_.resize(rows_.size());
  std::iota(p.order_.begin(), p.order_.end(), 0);
  std::sort(p.order_.begin(), p.order_.end(),
            [&](std::size_t a, std::size_t b) {
              if (rows_[a] != rows_[b]) return rows_[a] < rows_[b];
              return cols_[a] < cols_[b];
            });

  // row_ptr holds per-row entry counts during the pass and is turned into
  // cumulative offsets afterwards.
  p.row_ptr_.assign(n_ + 1, 0);
  p.col_idx_.reserve(p.order_.size());
  p.run_ptr_.reserve(p.order_.size() + 1);
  std::size_t prev_row = n_;  // sentinel: no previous entry
  std::size_t prev_col = n_;
  for (std::size_t s = 0; s < p.order_.size(); ++s) {
    const std::size_t e = p.order_[s];
    if (rows_[e] == prev_row && cols_[e] == prev_col) continue;
    p.col_idx_.push_back(cols_[e]);
    p.run_ptr_.push_back(s);
    p.row_ptr_[rows_[e] + 1]++;
    prev_row = rows_[e];
    prev_col = cols_[e];
  }
  p.run_ptr_.push_back(p.order_.size());
  for (std::size_t r = 0; r < n_; ++r) p.row_ptr_[r + 1] += p.row_ptr_[r];
  return p;
}

void CooPattern::merge(const std::vector<double>& values, double* out) const {
  VS_REQUIRE(values.size() == order_.size(),
             "scatter: one value per triplet required");
  for (std::size_t k = 0; k + 1 < run_ptr_.size(); ++k) {
    double sum = values[order_[run_ptr_[k]]];
    for (std::size_t s = run_ptr_[k] + 1; s < run_ptr_[k + 1]; ++s) {
      sum += values[order_[s]];
    }
    out[k] = sum;
  }
}

CsrMatrix CooPattern::scatter(const std::vector<double>& values) const {
  std::vector<double> merged(nnz());
  merge(values, merged.data());
  return CsrMatrix(n_, row_ptr_, col_idx_, std::move(merged));
}

void CooPattern::scatter(const std::vector<double>& values,
                         CsrMatrix& into) const {
  VS_REQUIRE(into.size() == n_ && into.nnz() == nnz(),
             "scatter: matrix does not carry this pattern");
  into.refresh_values([&](double* out) { merge(values, out); });
}

CsrMatrix::CsrMatrix(std::size_t n, std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx,
                     std::vector<double> values)
    : n_(n),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  VS_REQUIRE(row_ptr_.size() == n_ + 1, "row_ptr size must be n + 1");
  VS_REQUIRE(col_idx_.size() == values_.size(),
             "col_idx and values must have equal length");
  VS_REQUIRE(row_ptr_.back() == values_.size(),
             "row_ptr must end at nnz");
}

void CsrMatrix::multiply(const Vector& x, Vector& y) const {
  VS_REQUIRE(x.size() == n_, "multiply: dimension mismatch");
  y.assign(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    double s = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      s += values_[k] * x[col_idx_[k]];
    }
    y[r] = s;
  }
}

Vector CsrMatrix::multiply(const Vector& x) const {
  Vector y;
  multiply(x, y);
  return y;
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  VS_REQUIRE(row < n_ && col < n_, "at: index out of range");
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

Vector CsrMatrix::diagonal() const {
  Vector d(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) d[r] = at(r, r);
  return d;
}

bool CsrMatrix::is_symmetric(double tol) const {
  constexpr double kDefaultTol = 1e-12;
  if (tol == kDefaultTol) {
    const signed char memo = symmetry_memo_.load(std::memory_order_relaxed);
    if (memo >= 0) return memo != 0;
    const bool sym = symmetry_scan(tol);
    symmetry_memo_.store(sym ? 1 : 0, std::memory_order_relaxed);
    return sym;
  }
  return symmetry_scan(tol);
}

bool CsrMatrix::symmetry_scan(double tol) const {
  double max_abs = 0.0;
  for (double v : values_) max_abs = std::max(max_abs, std::abs(v));
  const double threshold = tol * std::max(max_abs, 1.0);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t c = col_idx_[k];
      if (std::abs(values_[k] - at(c, r)) > threshold) return false;
    }
  }
  return true;
}

}  // namespace vstack::la

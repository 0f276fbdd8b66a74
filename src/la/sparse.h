// Sparse matrix storage.
//
// Matrices are assembled through CooBuilder (duplicate entries are summed,
// which is exactly the "stamping" discipline of modified nodal analysis) and
// then frozen into compressed-sparse-row form for the solvers.  A caller
// that re-stamps the same positions with new values (the transient step
// matrix across dt values) keeps the CooPattern of the first assembly and
// scatters each new value set through it instead of sorting again.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "la/vector_ops.h"

namespace vstack::la {

class CsrMatrix;
class CooPattern;

/// Coordinate-format assembly buffer.  add(i, j, v) may be called any number
/// of times for the same (i, j); values accumulate, matching MNA stamping.
class CooBuilder {
 public:
  explicit CooBuilder(std::size_t n);

  /// Accumulate `value` at (row, col).  Indices must be < n.
  void add(std::size_t row, std::size_t col, double value);

  std::size_t size() const { return n_; }
  std::size_t entry_count() const { return rows_.size(); }

  /// Sort, merge duplicates, and produce the CSR matrix.  Equivalent to
  /// pattern() followed by a scatter of the added values.
  CsrMatrix build() const;

  /// The symbolic half of build(): the CSR pattern of the added (row, col)
  /// sequence.  Values are ignored.
  CooPattern pattern() const;

 private:
  std::size_t n_;
  std::vector<std::size_t> rows_;
  std::vector<std::size_t> cols_;
  std::vector<double> values_;
};

/// Symbolic assembly of one triplet (row, col) sequence: the CSR pattern
/// build() produces for it plus, per stored entry, the run of triplets (in
/// sorted order) that merge into that entry.  scatter() turns one value per
/// triplet, in add() order, into exactly the matrix build() would return --
/// bit for bit, duplicates summed in the same order -- without re-sorting.
class CooPattern {
 public:
  std::size_t nnz() const { return col_idx_.size(); }

  /// New matrix carrying `values` (one per triplet).
  CsrMatrix scatter(const std::vector<double>& values) const;

  /// Overwrite `into`'s values in place (CsrMatrix::refresh_values); `into`
  /// must have been scattered from this pattern.
  void scatter(const std::vector<double>& values, CsrMatrix& into) const;

 private:
  friend class CooBuilder;

  /// The one duplicate-merge routine: out[k] = sum of the triplet values of
  /// run k, accumulated left to right in sorted order.
  void merge(const std::vector<double>& values, double* out) const;

  std::size_t n_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  /// Triplet indices sorted by (row, col).
  std::vector<std::size_t> order_;
  /// Entry k sums triplets order_[run_ptr_[k]] .. order_[run_ptr_[k+1] - 1].
  std::vector<std::size_t> run_ptr_;
};

/// Square compressed-sparse-row matrix with sorted, unique column indices
/// per row.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::size_t n, std::vector<std::size_t> row_ptr,
            std::vector<std::size_t> col_idx, std::vector<double> values);

  // The symmetry memo (an atomic) is not copyable/movable by default; carry
  // its value across copies and moves explicitly -- the answer depends only
  // on the (immutable) payload being copied.
  CsrMatrix(const CsrMatrix& other)
      : n_(other.n_),
        row_ptr_(other.row_ptr_),
        col_idx_(other.col_idx_),
        values_(other.values_),
        symmetry_memo_(other.symmetry_memo_.load(std::memory_order_relaxed)) {}
  CsrMatrix(CsrMatrix&& other) noexcept
      : n_(other.n_),
        row_ptr_(std::move(other.row_ptr_)),
        col_idx_(std::move(other.col_idx_)),
        values_(std::move(other.values_)),
        symmetry_memo_(other.symmetry_memo_.load(std::memory_order_relaxed)) {}
  CsrMatrix& operator=(const CsrMatrix& other) {
    n_ = other.n_;
    row_ptr_ = other.row_ptr_;
    col_idx_ = other.col_idx_;
    values_ = other.values_;
    symmetry_memo_.store(other.symmetry_memo_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    return *this;
  }
  CsrMatrix& operator=(CsrMatrix&& other) noexcept {
    n_ = other.n_;
    row_ptr_ = std::move(other.row_ptr_);
    col_idx_ = std::move(other.col_idx_);
    values_ = std::move(other.values_);
    symmetry_memo_.store(other.symmetry_memo_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    return *this;
  }

  std::size_t size() const { return n_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// y = A * x
  void multiply(const Vector& x, Vector& y) const;
  Vector multiply(const Vector& x) const;

  /// Entry lookup (binary search within the row); 0 if not stored.
  double at(std::size_t row, std::size_t col) const;

  /// Extract the diagonal; absent diagonal entries read as 0.
  Vector diagonal() const;

  /// Structural + numerical symmetry check within `tol` (relative to the
  /// largest absolute entry).  Used to pick CG vs BiCGSTAB.
  ///
  /// The answer for the default tolerance is memoized: the scan costs
  /// O(nnz log row-width) and SolverKind::Auto asks on every bind, so a
  /// cached matrix pays it once instead of per solve.  refresh_values() is
  /// the only way to change values, and it clears the memo.
  bool is_symmetric(double tol = 1e-12) const;

  /// In-place value refresh on the fixed sparsity pattern: `write` receives
  /// the value array (nnz() entries) to overwrite, then the symmetry memo is
  /// reset.  A la::Solver bound to this matrix must be refresh()ed before
  /// its next solve.
  template <class Write>
  void refresh_values(Write&& write) {
    write(values_.data());
    symmetry_memo_.store(-1, std::memory_order_relaxed);
  }

 private:
  bool symmetry_scan(double tol) const;

  std::size_t n_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
  /// Memo for is_symmetric at the default tolerance: -1 unknown, 0 no,
  /// 1 yes.  Atomic so concurrent readers (campaign workers sharing a
  /// const model) race benignly on the same answer.
  mutable std::atomic<signed char> symmetry_memo_{-1};
};

}  // namespace vstack::la

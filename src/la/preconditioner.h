// Preconditioners for the Krylov solvers.
#pragma once

#include <memory>

#include "la/sparse.h"
#include "la/vector_ops.h"

namespace vstack::la {

/// Approximate inverse applied as z = M^{-1} r.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(const Vector& r, Vector& z) const = 0;

  /// Numeric refactorization in the existing storage for `a`, which must
  /// carry the sparsity pattern this preconditioner was built on (new
  /// values only).  Same arithmetic as construction, so the result is
  /// bit-identical to a freshly built preconditioner of `a`; throws
  /// vstack::Error exactly where construction would.
  virtual void refactor(const CsrMatrix& a) = 0;
};

/// Identity (no preconditioning).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(const Vector& r, Vector& z) const override { z = r; }
  void refactor(const CsrMatrix&) override {}
};

/// Diagonal (Jacobi) preconditioner.  Rows with zero diagonal pass through.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a);
  void apply(const Vector& r, Vector& z) const override;
  void refactor(const CsrMatrix& a) override;

 private:
  Vector inv_diag_;
};

/// Zero-fill incomplete LU factorization.  Works on any matrix whose
/// sparsity pattern admits the factorization (the MNA matrices here always
/// have nonzero diagonals after grounding).
class Ilu0Preconditioner final : public Preconditioner {
 public:
  explicit Ilu0Preconditioner(const CsrMatrix& a);
  void apply(const Vector& r, Vector& z) const override;
  void refactor(const CsrMatrix& a) override;

 private:
  // LU factors share A's sparsity pattern: strictly-lower entries hold L
  // (unit diagonal implied), diagonal and upper hold U.
  std::size_t n_;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> lu_;
  std::vector<std::size_t> diag_pos_;  // index of the diagonal entry per row
};

/// Zero-fill incomplete Cholesky factorization A ~= L L^T for symmetric
/// positive-definite matrices (the regular-PDN and thermal grids).  Stores
/// only the lower triangle, so it halves the factor memory and the
/// triangular-solve work relative to ILU(0) on the same pattern.  Throws
/// vstack::Error when a pivot goes non-positive (matrix not SPD, or too
/// indefinite after fault damage); la::Solver catches that and falls back
/// to ILU(0) -- see the preconditioner ladder in docs/linear_algebra.md.
class Ic0Preconditioner final : public Preconditioner {
 public:
  explicit Ic0Preconditioner(const CsrMatrix& a);
  void apply(const Vector& r, Vector& z) const override;
  void refactor(const CsrMatrix& a) override;

 private:
  // CSR of the lower triangle of A (diagonal included); after factorization
  // the values hold L with its non-unit diagonal at diag_pos_.
  std::size_t n_;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> val_;
  std::vector<std::size_t> diag_pos_;  // index of the diagonal entry per row
};

/// Factory helpers returning owning pointers.
std::unique_ptr<Preconditioner> make_jacobi(const CsrMatrix& a);
std::unique_ptr<Preconditioner> make_ilu0(const CsrMatrix& a);
std::unique_ptr<Preconditioner> make_ic0(const CsrMatrix& a);

}  // namespace vstack::la

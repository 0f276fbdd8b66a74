#include "la/preconditioner.h"

#include <cmath>
#include <string>

#include "common/error.h"

namespace vstack::la {

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& a) {
  refactor(a);
}

void JacobiPreconditioner::refactor(const CsrMatrix& a) {
  inv_diag_ = a.diagonal();
  for (double& d : inv_diag_) {
    d = (std::abs(d) > 0.0) ? 1.0 / d : 1.0;
  }
}

void JacobiPreconditioner::apply(const Vector& r, Vector& z) const {
  VS_REQUIRE(r.size() == inv_diag_.size(), "jacobi apply: size mismatch");
  z.resize(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i] * inv_diag_[i];
}

Ilu0Preconditioner::Ilu0Preconditioner(const CsrMatrix& a)
    : n_(a.size()),
      row_ptr_(a.row_ptr()),
      col_idx_(a.col_idx()),
      diag_pos_(a.size()) {
  // Locate diagonal entries.
  for (std::size_t r = 0; r < n_; ++r) {
    bool found = false;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (col_idx_[k] == r) {
        diag_pos_[r] = k;
        found = true;
        break;
      }
    }
    VS_REQUIRE(found, "ILU(0) requires a structurally nonzero diagonal");
  }
  refactor(a);
}

void Ilu0Preconditioner::refactor(const CsrMatrix& a) {
  VS_REQUIRE(a.size() == n_ && a.nnz() == col_idx_.size(),
             "ILU(0) refactor: matrix does not carry the bound pattern");
  lu_ = a.values();

  // IKJ-variant ILU(0): for each row i, eliminate using previous rows that
  // appear in row i's pattern.
  std::vector<std::ptrdiff_t> pos_in_row(n_, -1);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      pos_in_row[col_idx_[k]] = static_cast<std::ptrdiff_t>(k);
    }
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const std::size_t j = col_idx_[k];
      if (j >= i) break;  // columns are sorted; strictly-lower part first
      const double pivot = lu_[diag_pos_[j]];
      VS_REQUIRE(std::abs(pivot) > 0.0, "ILU(0) zero pivot");
      const double lij = lu_[k] / pivot;
      lu_[k] = lij;
      // Subtract lij * U(j, j+1:) restricted to row i's pattern.
      for (std::size_t kk = diag_pos_[j] + 1; kk < row_ptr_[j + 1]; ++kk) {
        const std::ptrdiff_t p = pos_in_row[col_idx_[kk]];
        if (p >= 0) lu_[static_cast<std::size_t>(p)] -= lij * lu_[kk];
      }
    }
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      pos_in_row[col_idx_[k]] = -1;
    }
  }
}

void Ilu0Preconditioner::apply(const Vector& r, Vector& z) const {
  VS_REQUIRE(r.size() == n_, "ilu0 apply: size mismatch");
  z.resize(n_);
  // Forward solve L y = r (unit diagonal).
  for (std::size_t i = 0; i < n_; ++i) {
    double s = r[i];
    for (std::size_t k = row_ptr_[i]; k < diag_pos_[i]; ++k) {
      s -= lu_[k] * z[col_idx_[k]];
    }
    z[i] = s;
  }
  // Backward solve U z = y.
  for (std::size_t ii = n_; ii-- > 0;) {
    double s = z[ii];
    for (std::size_t k = diag_pos_[ii] + 1; k < row_ptr_[ii + 1]; ++k) {
      s -= lu_[k] * z[col_idx_[k]];
    }
    z[ii] = s / lu_[diag_pos_[ii]];
  }
}

Ic0Preconditioner::Ic0Preconditioner(const CsrMatrix& a) : n_(a.size()) {
  // Pattern of the lower triangle (diagonal included) of A.
  const auto& arp = a.row_ptr();
  const auto& aci = a.col_idx();
  row_ptr_.assign(n_ + 1, 0);
  diag_pos_.resize(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    std::size_t count = 0;
    for (std::size_t k = arp[r]; k < arp[r + 1]; ++k) {
      if (aci[k] <= r) ++count;
    }
    row_ptr_[r + 1] = row_ptr_[r] + count;
  }
  col_idx_.resize(row_ptr_[n_]);
  for (std::size_t r = 0; r < n_; ++r) {
    std::size_t out = row_ptr_[r];
    bool found = false;
    for (std::size_t k = arp[r]; k < arp[r + 1]; ++k) {
      if (aci[k] > r) break;  // columns are sorted
      col_idx_[out] = aci[k];
      if (aci[k] == r) {
        diag_pos_[r] = out;
        found = true;
      }
      ++out;
    }
    VS_REQUIRE(found, "IC(0) requires a structurally nonzero diagonal");
  }
  refactor(a);
}

void Ic0Preconditioner::refactor(const CsrMatrix& a) {
  VS_REQUIRE(a.size() == n_,
             "IC(0) refactor: matrix does not carry the bound pattern");
  // Columns are sorted, so row r's lower entries are the first
  // (row_ptr_[r+1] - row_ptr_[r]) entries of A's row r.
  const auto& arp = a.row_ptr();
  const auto& av = a.values();
  val_.resize(row_ptr_[n_]);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      val_[k] = av[arp[r] + (k - row_ptr_[r])];
    }
  }

  // Row-oriented IC(0): L(i,j) = (A(i,j) - sum_m L(i,m) L(j,m)) / L(j,j)
  // with the sum restricted to the shared lower pattern, then
  // L(i,i) = sqrt(A(i,i) - sum_m L(i,m)^2).  A non-positive pivot means the
  // matrix is not (numerically) SPD on this pattern; throw so the caller's
  // ladder can fall back to ILU(0).
  std::vector<std::ptrdiff_t> pos_in_row(n_, -1);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      pos_in_row[col_idx_[k]] = static_cast<std::ptrdiff_t>(k);
    }
    for (std::size_t k = row_ptr_[i]; k < diag_pos_[i]; ++k) {
      const std::size_t j = col_idx_[k];
      double s = val_[k];
      for (std::size_t kk = row_ptr_[j]; kk < diag_pos_[j]; ++kk) {
        const std::ptrdiff_t p = pos_in_row[col_idx_[kk]];
        if (p >= 0) s -= val_[static_cast<std::size_t>(p)] * val_[kk];
      }
      val_[k] = s / val_[diag_pos_[j]];
    }
    double d = val_[diag_pos_[i]];
    for (std::size_t k = row_ptr_[i]; k < diag_pos_[i]; ++k) {
      d -= val_[k] * val_[k];
    }
    VS_REQUIRE(d > 0.0, "IC(0) breakdown: non-positive pivot at row " +
                            std::to_string(i));
    val_[diag_pos_[i]] = std::sqrt(d);
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      pos_in_row[col_idx_[k]] = -1;
    }
  }
}

void Ic0Preconditioner::apply(const Vector& r, Vector& z) const {
  VS_REQUIRE(r.size() == n_, "ic0 apply: size mismatch");
  z.resize(n_);
  // Forward solve L y = r (non-unit diagonal).
  for (std::size_t i = 0; i < n_; ++i) {
    double s = r[i];
    for (std::size_t k = row_ptr_[i]; k < diag_pos_[i]; ++k) {
      s -= val_[k] * z[col_idx_[k]];
    }
    z[i] = s / val_[diag_pos_[i]];
  }
  // Backward solve L^T z = y, sweeping L's rows bottom-up and scattering
  // each solved z[i] into the rows above it.
  for (std::size_t ii = n_; ii-- > 0;) {
    const double zi = z[ii] / val_[diag_pos_[ii]];
    z[ii] = zi;
    for (std::size_t k = row_ptr_[ii]; k < diag_pos_[ii]; ++k) {
      z[col_idx_[k]] -= val_[k] * zi;
    }
  }
}

std::unique_ptr<Preconditioner> make_jacobi(const CsrMatrix& a) {
  return std::make_unique<JacobiPreconditioner>(a);
}

std::unique_ptr<Preconditioner> make_ilu0(const CsrMatrix& a) {
  return std::make_unique<Ilu0Preconditioner>(a);
}

std::unique_ptr<Preconditioner> make_ic0(const CsrMatrix& a) {
  return std::make_unique<Ic0Preconditioner>(a);
}

}  // namespace vstack::la

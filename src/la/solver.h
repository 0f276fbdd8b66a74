// la::Solver -- the stateful front door of the linear-algebra layer.
//
// A Solver binds one CsrMatrix to one kernel Backend and owns everything a
// repeated solve against that matrix can reuse:
//
//   * the backend's prepared matrix form (32-bit-index CSR for the
//     optimized backend), built once at bind time;
//   * the solver kind: CG for a symmetric matrix, BiCGSTAB otherwise (the
//     symmetry probe runs once, not per call);
//   * the preconditioner (IC(0) / ILU(0) / Jacobi per PrecondKind, with
//     the factorization-failure fallback chain applied at bind time);
//   * a KrylovWorkspace, so the CG/BiCGSTAB loops allocate nothing after
//     the first solve.
//
// solve() runs the graceful-degradation ladder:
//
//   CG -> BiCGSTAB -> BiCGSTAB with a rebuilt, diagonally-shifted ILU ->
//   dense LU (systems up to dense_fallback_max_size unknowns)
//
// Every rung restarts from the caller's initial guess, runs under a
// per-attempt iteration budget with stagnation detection, and is recorded
// in SolveReport::attempts.  The bound matrix must outlive the Solver and
// must not move while bound.  Callers that rebuild their matrix (topology
// epoch bumps) rebuild the Solver with it; callers that only refill its
// values on the same pattern (CsrMatrix::refresh_values) call refresh(),
// which redoes every value-dependent bind step in the existing storage.
// A one-shot solve is Solver(a, options).solve(b, x); a single attempt of
// the primary method, with no ladder behind it, is iterate_once().  See
// docs/linear_algebra.md.
#pragma once

#include <memory>
#include <string>

#include "la/backend.h"
#include "la/bicgstab.h"
#include "la/cg.h"

namespace vstack::la {

/// The primary method a bind resolved to from the matrix's symmetry.
enum class SolverKind { Cg, BiCgStab };

/// Preconditioner ladder position.  Auto means ILU(0), the historic
/// default.  Ic0 sits one tier above ILU(0) for symmetric systems: half the
/// factor memory and triangular-solve work, but it requires a (numerically)
/// SPD matrix -- on breakdown, or on a non-symmetric system, it degrades to
/// ILU(0) with a warning, then to Jacobi, exactly like the historic
/// factorization-failure chain.
enum class PrecondKind { Auto, Ic0, Ilu0, Jacobi };

struct SolveOptions {
  IterativeOptions iterative;
  /// Which preconditioner tier to start from (degrades on failure).
  PrecondKind preconditioner = PrecondKind::Auto;
  /// Kernel backend; Auto defers to default_backend() (--la-backend /
  /// $VSTACK_LA_BACKEND / reference).
  BackendChoice backend = BackendChoice::Auto;
  /// Largest system the final dense-LU rung will factorize; anything bigger
  /// skips that rung (a dense factorization would not fit in memory).
  std::size_t dense_fallback_max_size = 4000;
  /// Relative diagonal shift applied to the rebuilt-preconditioner rung
  /// (stabilizes ILU on near-singular matrices; the system solved is still
  /// the original A).
  double ilu_rebuild_shift = 1e-6;
};

class Solver {
 public:
  /// Bind `a` (which must outlive the Solver, at a stable address) and pay
  /// all per-matrix costs up front: backend preparation, the Auto symmetry
  /// probe, and the preconditioner factorization.
  explicit Solver(const CsrMatrix& a, SolveOptions options = {});

  Solver(Solver&&) = default;
  Solver& operator=(Solver&&) = default;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Solve A x = b through the full escalation ladder; x is the initial
  /// guess and receives the solution.
  ///
  /// NON-THROWING on solver failure: check report.converged.  On failure,
  /// report.diagnostic names the reason, report.attempts holds the full
  /// trail, and x is restored to the caller's initial guess -- never NaN.
  /// (Size mismatches and other precondition violations still throw
  /// vstack::Error.)
  SolveReport solve(const Vector& b, Vector& x);

  /// Same ladder with per-call iteration limits/tolerance/deadline.
  SolveReport solve(const Vector& b, Vector& x,
                    const IterativeOptions& iterative);

  /// One attempt of the primary method (CG for symmetric binds, BiCGSTAB
  /// otherwise) with the bound preconditioner -- no escalation ladder, no
  /// guess restore on failure.  This is the warm-start fast path used by
  /// the PDN and transient caches; on a stall they follow up with solve()
  /// from a cold start and keep the full attempt trail.
  SolveReport iterate_once(const Vector& b, Vector& x,
                           const IterativeOptions& iterative);

  /// Re-bind after the bound matrix's values changed in place on the same
  /// sparsity pattern: re-runs the symmetry probe, re-prepares the
  /// backend form, and refactors the bound preconditioner numerically in
  /// its existing storage.  A failing refactor degrades down the same
  /// IC(0) -> ILU(0) -> Jacobi chain as construction, so afterwards every
  /// solve is bit-identical to one on a freshly constructed Solver.
  void refresh();

  const CsrMatrix& matrix() const { return *a_; }
  const Backend& backend() const { return *backend_; }
  const SolveOptions& options() const { return options_; }
  /// Primary method resolved at bind time from the matrix's symmetry.
  SolverKind kind() const { return kind_; }
  /// Label of the preconditioner actually built after fallbacks, e.g.
  /// "ic0", "ilu0", "jacobi" -- attempt names embed it.
  const std::string& preconditioner_label() const { return precond_label_; }

 private:
  /// The value-dependent half of binding, shared by construction and
  /// refresh().
  void bind();

  const CsrMatrix* a_;
  SolveOptions options_;
  const Backend* backend_;
  SolverKind kind_ = SolverKind::Cg;
  std::unique_ptr<BackendMatrix> prepared_;
  std::unique_ptr<Preconditioner> precond_;
  std::string precond_label_;
  KrylovWorkspace workspace_;
};

}  // namespace vstack::la

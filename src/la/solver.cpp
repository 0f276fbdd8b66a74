#include "la/solver.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "common/log.h"
#include "la/dense_lu.h"
#include "telemetry/telemetry.h"

namespace vstack::la {

namespace {

// Escalation-ladder telemetry: one attempt == one rung executed, so
// attempts - calls counts how often the first rung was not enough.
const telemetry::Counter t_calls("la.solve.calls");
const telemetry::Counter t_attempts("la.solve.attempts");
const telemetry::Counter t_attempts_failed("la.solve.attempts_failed");
const telemetry::Counter t_iterations("la.solve.iterations");
const telemetry::Counter t_converged("la.solve.converged");
const telemetry::Counter t_failed("la.solve.failed");
const telemetry::Gauge t_last_residual("la.solve.last_residual");
const telemetry::Histogram t_attempt_iters(
    "la.solve.attempt_iterations",
    {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0});

// Handle-lifecycle telemetry: binds counts Solver constructions, refreshes
// the in-place re-binds after a value refill; the per-backend solve counters
// (solve() and iterate_once() alike) show which kernel set actually ran.
const telemetry::Counter t_binds("la.solver.binds");
const telemetry::Counter t_refreshes("la.solver.refreshes");
const telemetry::Counter t_solves_reference("la.solver.solves.reference");
const telemetry::Counter t_solves_optimized("la.solver.solves.optimized");

void count_solve(const Backend& backend) {
  (&backend == &optimized_backend() ? t_solves_optimized : t_solves_reference)
      .add();
}

bool all_finite(const Vector& v) {
  for (const double d : v) {
    if (!std::isfinite(d)) return false;
  }
  return true;
}

double relative_residual(const CsrMatrix& a, const Vector& b,
                         const Vector& x) {
  const double b_norm = norm2(b);
  if (b_norm == 0.0) return norm2(a.multiply(x));
  return norm2(subtract(b, a.multiply(x))) / b_norm;
}

/// Build the requested preconditioner tier into `precond`, degrading down
/// the ladder (IC(0) -> ILU(0) -> Jacobi) when a factorization
/// is impossible -- e.g. IC(0) on an indefinite fault-damaged matrix, or
/// ILU(0) on a structurally zero diagonal.  A tier that `precond` already
/// holds (per `label`, from an earlier build on the same pattern) is
/// refactored in place instead of rebuilt.
void build_precond(const CsrMatrix& a, PrecondKind kind, bool symmetric,
                   std::unique_ptr<Preconditioner>& precond,
                   std::string& label) {
  const auto take = [&](const char* tier, auto make) {
    if (precond && label == tier) {
      precond->refactor(a);
    } else {
      precond = make(a);
      label = tier;
    }
  };
  if (kind == PrecondKind::Ic0) {
    if (symmetric) {
      try {
        take("ic0", make_ic0);
        return;
      } catch (const Error&) {
        VS_LOG_WARN("IC(0) factorization broke down; falling back to ILU(0)");
      }
    } else {
      VS_LOG_WARN("IC(0) requested for a non-symmetric system; using ILU(0)");
    }
  }
  if (kind != PrecondKind::Jacobi) {
    try {
      take("ilu0", make_ilu0);
      return;
    } catch (const Error&) {
      VS_LOG_WARN("ILU(0) factorization unavailable; using Jacobi");
    }
  }
  take("jacobi", make_jacobi);
}

/// Copy of `a` with `shift * max|diag|` added to every diagonal entry; used
/// only to REBUILD a better-conditioned preconditioner, never as the system.
CsrMatrix diagonally_shifted(const CsrMatrix& a, double shift) {
  const Vector diag = a.diagonal();
  double max_diag = 0.0;
  for (const double d : diag) max_diag = std::max(max_diag, std::abs(d));
  if (max_diag == 0.0) max_diag = 1.0;
  CooBuilder builder(a.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      builder.add(r, a.col_idx()[k], a.values()[k]);
    }
    builder.add(r, r, shift * max_diag);
  }
  return builder.build();
}

/// Escalation state: runs one rung, records the attempt, restores the
/// initial guess between rungs so a diverged attempt never pollutes the
/// next one (or the caller's output).
class EscalationChain {
 public:
  EscalationChain(const CsrMatrix& a, const Vector& b, Vector& x,
                  const KrylovContext& ctx)
      : a_(a), b_(b), x_(x), x0_(x), ctx_(ctx) {}

  bool run_iterative(const std::string& method, SolverKind kind,
                     const Preconditioner& precond,
                     const IterativeOptions& options) {
    x_ = x0_;
    const SolveReport r =
        kind == SolverKind::Cg
            ? conjugate_gradient(a_, b_, x_, precond, options, ctx_)
            : bicgstab(a_, b_, x_, precond, options, ctx_);
    if (r.deadline_expired) report_.deadline_expired = true;
    return record(method, r.converged && all_finite(x_), r.iterations,
                  r.residual_norm);
  }

  bool run_dense(double accept_tolerance, const Deadline& deadline) {
    try {
      const DenseLu lu(DenseMatrix::from_csr(a_), deadline);
      Vector sol = lu.solve(b_);
      const double res = relative_residual(a_, b_, sol);
      const bool ok =
          all_finite(sol) && std::isfinite(res) && res < accept_tolerance;
      if (ok) x_ = std::move(sol);
      return record("dense-lu", ok, 1, res);
    } catch (const Error&) {
      // A deadline firing mid-factorization also surfaces as Error; tell the
      // two apart so TIMEOUT is never misreported as a singular system.
      const bool aborted = deadline.expired();
      if (aborted) report_.deadline_expired = true;
      return record(aborted ? "dense-lu(aborted)" : "dense-lu(singular)",
                    false, 0, std::numeric_limits<double>::infinity());
    }
  }

  SolveReport finish(const std::string& failure_diagnostic) {
    if (report_.converged) {
      t_converged.add();
    } else {
      t_failed.add();
      x_ = x0_;  // never hand back a diverged/NaN iterate
      report_.diagnostic = failure_diagnostic;
    }
    return std::move(report_);
  }

  const SolveReport& report() const { return report_; }

 private:
  bool record(const std::string& method, bool ok, std::size_t iterations,
              double residual) {
    t_attempts.add();
    if (!ok) t_attempts_failed.add();
    t_iterations.add(static_cast<double>(iterations));
    t_attempt_iters.record(static_cast<double>(iterations));
    t_last_residual.set(residual);
    report_.attempts.push_back({method, ok, iterations, residual});
    report_.iterations = iterations;
    report_.residual_norm = residual;
    if (ok) report_.converged = true;
    return ok;
  }

  const CsrMatrix& a_;
  const Vector& b_;
  Vector& x_;
  Vector x0_;
  const KrylovContext& ctx_;
  SolveReport report_;
};

}  // namespace

Solver::Solver(const CsrMatrix& a, SolveOptions options)
    : a_(&a),
      options_(options),
      backend_(&resolve_backend(options.backend)) {
  t_binds.add();
  bind();
}

void Solver::refresh() {
  VS_SPAN("la.solver.refresh");
  t_refreshes.add();
  bind();
}

void Solver::bind() {
  const bool symmetric = a_->is_symmetric(1e-12);
  kind_ = symmetric ? SolverKind::Cg : SolverKind::BiCgStab;
  prepared_ = backend_->prepare(*a_);
  build_precond(*a_, options_.preconditioner, symmetric, precond_,
                precond_label_);
}

SolveReport Solver::solve(const Vector& b, Vector& x) {
  return solve(b, x, options_.iterative);
}

SolveReport Solver::solve(const Vector& b, Vector& x,
                          const IterativeOptions& iterative) {
  VS_SPAN("la.solve");
  t_calls.add();
  count_solve(*backend_);
  VS_REQUIRE(b.size() == a_->size(), "solve: rhs size mismatch");
  if (x.size() != a_->size()) x.assign(a_->size(), 0.0);

  // Per-attempt budget: enable stagnation detection so a hopeless Krylov run
  // hands over to the next rung instead of burning its whole budget.
  IterativeOptions per_attempt = iterative;
  if (per_attempt.stagnation_window == 0) {
    per_attempt.stagnation_window =
        std::max<std::size_t>(100, per_attempt.max_iterations / 20);
  }
  const double dense_accept =
      std::max(1e-8, 100.0 * iterative.relative_tolerance);

  const Deadline& deadline = iterative.deadline;
  const KrylovContext ctx{backend_, prepared_.get(), &workspace_};
  EscalationChain chain(*a_, b, x, ctx);

  bool done = false;
  if (kind_ == SolverKind::Cg) {
    done = chain.run_iterative("cg+" + precond_label_, SolverKind::Cg,
                               *precond_, per_attempt);
    if (done) return chain.finish("");
  }

  // Between rungs: an expired deadline means the caller wants out, not a
  // harder solver.  Skip the rest of the ladder and report the truncation.
  if (!done && deadline.expired()) {
    return chain.finish("solve aborted: deadline expired");
  }

  if (!done) {
    done = chain.run_iterative("bicgstab+" + precond_label_,
                               SolverKind::BiCgStab, *precond_, per_attempt);
  }

  if (!done && deadline.expired()) {
    return chain.finish("solve aborted: deadline expired");
  }

  if (!done) {
    // Rebuilt preconditioner: ILU(0) of a diagonally shifted copy is far
    // more robust on near-singular matrices than ILU(0) of A itself.  The
    // system solved is still the bound matrix, so the prepared form and
    // workspace keep serving this rung.
    VS_LOG_WARN("iterative solve stalled; rebuilding preconditioner");
    try {
      const CsrMatrix shifted =
          diagonally_shifted(*a_, options_.ilu_rebuild_shift);
      const auto rebuilt = make_ilu0(shifted);
      done = chain.run_iterative("bicgstab+shifted-ilu0", SolverKind::BiCgStab,
                                 *rebuilt, per_attempt);
    } catch (const Error&) {
      VS_LOG_WARN("shifted ILU rebuild unavailable; skipping rung");
    }
  }

  if (!done && deadline.expired()) {
    return chain.finish("solve aborted: deadline expired");
  }

  if (!done && a_->size() <= options_.dense_fallback_max_size) {
    VS_LOG_WARN("iterative ladder exhausted; retrying with dense LU");
    done = chain.run_dense(dense_accept, deadline);
  }

  std::ostringstream diag;
  if (!done) {
    if (chain.report().deadline_expired) {
      diag << "solve aborted: deadline expired after "
           << chain.report().attempts.size() << " attempt(s)";
    } else {
      diag << "no solver converged after " << chain.report().attempts.size()
           << " attempt(s) (last residual " << chain.report().residual_norm
           << "); system is likely singular or structurally infeasible";
      if (a_->size() > options_.dense_fallback_max_size) {
        diag << " (dense fallback skipped: " << a_->size() << " unknowns)";
      }
    }
  }
  return chain.finish(diag.str());
}

SolveReport Solver::iterate_once(const Vector& b, Vector& x,
                                 const IterativeOptions& iterative) {
  count_solve(*backend_);
  const KrylovContext ctx{backend_, prepared_.get(), &workspace_};
  if (kind_ == SolverKind::Cg) {
    return conjugate_gradient(*a_, b, x, *precond_, iterative, ctx);
  }
  return bicgstab(*a_, b, x, *precond_, iterative, ctx);
}

}  // namespace vstack::la

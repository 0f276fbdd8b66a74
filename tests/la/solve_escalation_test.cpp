// The la::Solver graceful-degradation ladder: fault-damaged PDNs hand the
// solver indefinite, non-symmetric, and outright singular systems, and the
// contract is that solve() NEVER throws and NEVER returns NaN -- it either
// converges (with the attempt trail showing which rung succeeded) or comes
// back with a structured diagnostic and the caller's initial guess intact.
#include <gtest/gtest.h>

#include <cmath>

#include "la/solver.h"

namespace vstack::la {
namespace {

CsrMatrix from_dense(const std::vector<std::vector<double>>& rows) {
  CooBuilder b(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < rows[i].size(); ++j) {
      if (rows[i][j] != 0.0) b.add(i, j, rows[i][j]);
    }
  }
  return b.build();
}

double residual(const CsrMatrix& a, const Vector& x, const Vector& b) {
  return norm2(subtract(b, a.multiply(x))) / norm2(b);
}

bool all_finite(const Vector& x) {
  for (const double v : x) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

TEST(SolveEscalationTest, HealthySpdSolvesOnFirstAttempt) {
  CooBuilder builder(10);
  for (std::size_t i = 0; i < 10; ++i) {
    builder.add(i, i, 2.0);
    if (i > 0) builder.add(i, i - 1, -1.0);
    if (i + 1 < 10) builder.add(i, i + 1, -1.0);
  }
  const CsrMatrix a = builder.build();
  const Vector b(10, 1.0);
  Vector x;
  const auto report = Solver(a).solve(b, x);
  EXPECT_TRUE(report.converged);
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_TRUE(report.attempts[0].converged);
  EXPECT_EQ(report.attempts[0].method.substr(0, 2), "cg");
  EXPECT_TRUE(report.diagnostic.empty());
  EXPECT_LT(residual(a, x, b), 1e-8);
}

TEST(SolveEscalationTest, SymmetricIndefiniteEscalatesPastCg) {
  // Eigenvalues 3 and -1; b = (1, 0) mixes both eigenvectors, so CG's very
  // first search direction has negative curvature (b^T A^-1 b = -1/3) and
  // the curvature check rejects it.  A later rung must still deliver.
  const CsrMatrix a = from_dense({{1.0, 2.0}, {2.0, 1.0}});
  ASSERT_TRUE(a.is_symmetric());
  const Vector b{1.0, 0.0};
  Vector x;
  const auto report = Solver(a).solve(b, x);
  EXPECT_TRUE(report.converged);
  ASSERT_GE(report.attempts.size(), 2u);
  EXPECT_FALSE(report.attempts.front().converged);  // CG rejected it
  EXPECT_TRUE(report.attempts.back().converged);
  EXPECT_NEAR(x[0], -1.0 / 3.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0 / 3.0, 1e-9);
}

TEST(SolveEscalationTest, SkewSystemRecoversThroughTheLadder) {
  // [[0,1],[-1,0]]: structurally zero diagonal (ILU(0) unavailable, Jacobi
  // useless), p^T A p = 0 everywhere -- the primary Krylov rungs break
  // down, and a deeper rung (shifted-ILU rebuild or dense LU) recovers.
  const CsrMatrix a = from_dense({{0.0, 1.0}, {-1.0, 0.0}});
  const Vector b{1.0, 1.0};
  Vector x;
  const auto report = Solver(a).solve(b, x);
  EXPECT_TRUE(report.converged);
  ASSERT_GE(report.attempts.size(), 2u);
  EXPECT_FALSE(report.attempts.front().converged);
  EXPECT_TRUE(report.attempts.back().converged);
  EXPECT_NEAR(x[0], -1.0, 1e-9);
  EXPECT_NEAR(x[1], 1.0, 1e-9);
}

TEST(SolveEscalationTest, SkewSystemReachesDenseLuWhenRebuildNeutered) {
  // With a zero rebuild shift the third rung sees the same zero-diagonal
  // matrix (Jacobi again, same breakdown), so only dense LU can finish.
  const CsrMatrix a = from_dense({{0.0, 1.0}, {-1.0, 0.0}});
  const Vector b{1.0, 1.0};
  Vector x;
  SolveOptions opts;
  opts.ilu_rebuild_shift = 0.0;
  const auto report = Solver(a, opts).solve(b, x);
  EXPECT_TRUE(report.converged);
  ASSERT_FALSE(report.attempts.empty());
  EXPECT_EQ(report.attempts.back().method, "dense-lu");
  EXPECT_TRUE(report.attempts.back().converged);
  EXPECT_NEAR(x[0], -1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(SolveEscalationTest, SingularSystemFailsCleanlyWithoutNan) {
  // Rank-1 matrix with an inconsistent RHS: every rung must fail, the
  // report must carry a diagnostic, and x must come back as the caller's
  // initial guess -- finite, untouched.
  const CsrMatrix a = from_dense({{1.0, 1.0}, {1.0, 1.0}});
  const Vector b{1.0, 0.0};
  Vector x{7.0, -7.0};
  const auto report = Solver(a).solve(b, x);
  EXPECT_FALSE(report.converged);
  EXPECT_FALSE(report.diagnostic.empty());
  EXPECT_GE(report.attempts.size(), 2u);  // the whole ladder ran
  for (const auto& attempt : report.attempts) {
    EXPECT_FALSE(attempt.converged) << attempt.method;
  }
  EXPECT_TRUE(all_finite(x));
  EXPECT_DOUBLE_EQ(x[0], 7.0);
  EXPECT_DOUBLE_EQ(x[1], -7.0);
}

TEST(SolveEscalationTest, DenseFallbackRespectsSizeCap) {
  // With the dense rung capped below the system size, the singular system
  // has no recovery path at all -- still no throw, still finite.
  const CsrMatrix a = from_dense({{1.0, 1.0}, {1.0, 1.0}});
  const Vector b{1.0, 0.0};
  Vector x;
  SolveOptions opts;
  opts.dense_fallback_max_size = 1;
  const auto report = Solver(a, opts).solve(b, x);
  EXPECT_FALSE(report.converged);
  for (const auto& attempt : report.attempts) {
    EXPECT_NE(attempt.method, "dense-lu");
  }
  EXPECT_TRUE(all_finite(x));
}

TEST(SolveEscalationTest, StagnationDetectionTerminatesEarly) {
  // A stagnation factor no iteration can meet makes every step count as
  // "no progress": CG on a grid that normally needs dozens of iterations
  // must give up after the one-iteration window instead of burning the
  // full budget.
  CooBuilder builder(400);
  for (std::size_t r = 0; r < 20; ++r) {
    for (std::size_t c = 0; c < 20; ++c) {
      const std::size_t i = r * 20 + c;
      builder.add(i, i, 4.0);
      if (r > 0) builder.add(i, i - 20, -1.0);
      if (r + 1 < 20) builder.add(i, i + 20, -1.0);
      if (c > 0) builder.add(i, i - 1, -1.0);
      if (c + 1 < 20) builder.add(i, i + 1, -1.0);
    }
  }
  const CsrMatrix a = builder.build();
  const Vector b(400, 1.0);
  Solver solver(a);
  ASSERT_EQ(solver.kind(), SolverKind::Cg);

  Vector x_ok(a.size(), 0.0);
  ASSERT_TRUE(solver.iterate_once(b, x_ok, IterativeOptions{}).converged);

  Vector x(a.size(), 0.0);
  IterativeOptions stalling;
  stalling.stagnation_window = 1;
  stalling.stagnation_factor = 1e-30;  // unreachable improvement
  const auto report = solver.iterate_once(b, x, stalling);
  EXPECT_FALSE(report.converged);
  EXPECT_LE(report.iterations, 3u);
  EXPECT_TRUE(all_finite(x));
}

TEST(SolveEscalationTest, IllConditionedSystemStillConverges) {
  // Diagonal spread of 1e12: brutal for unpreconditioned Krylov, routine
  // for the ladder.  The final answer must be accurate, whatever rung wins.
  const std::size_t n = 6;
  CooBuilder builder(n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, std::pow(10.0, 2.0 * static_cast<double>(i)));
  }
  const CsrMatrix a = builder.build();
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = std::pow(10.0, 2.0 * static_cast<double>(i));
  }
  Vector x;
  const auto report = Solver(a).solve(b, x);
  EXPECT_TRUE(report.converged);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], 1.0, 1e-6);
  }
}

}  // namespace
}  // namespace vstack::la

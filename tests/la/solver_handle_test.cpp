// la::Solver handle semantics: one-shot equivalence, workspace reuse,
// warm and cold starts, iterate_once, per-call option overrides, and
// refresh() after an in-place value refill.
#include "la/solver.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace vstack::la {
namespace {

CsrMatrix grid_laplacian(std::size_t m) {
  CooBuilder b(m * m);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t i = r * m + c;
      b.add(i, i, 4.0);
      if (r > 0) b.add(i, i - m, -1.0);
      if (r + 1 < m) b.add(i, i + m, -1.0);
      if (c > 0) b.add(i, i - 1, -1.0);
      if (c + 1 < m) b.add(i, i + 1, -1.0);
    }
  }
  return b.build();
}

CsrMatrix asymmetric_system() {
  CooBuilder b(4);
  for (std::size_t i = 0; i < 4; ++i) b.add(i, i, 4.0);
  b.add(0, 1, -1.0);
  b.add(1, 0, -0.5);  // breaks symmetry
  b.add(1, 2, -1.0);
  b.add(2, 1, -1.0);
  b.add(2, 3, -1.0);
  b.add(3, 2, -1.0);
  return b.build();
}

/// MNA-style stamps of an m x m grid: every edge stamps four triplets
/// (conductance g, with `skew` added to the upper coupling to break
/// symmetry) and every node a shunt to ground, so the diagonal entries
/// merge several duplicates.  The (row, col) sequence does not depend on
/// the values, so all value sets share one CooPattern.
struct GridStamps {
  std::vector<std::size_t> rows, cols;
  std::vector<double> values;

  GridStamps(std::size_t m, double g, double skew, double shunt) {
    const auto stamp = [&](std::size_t i, std::size_t j, double v) {
      rows.push_back(i);
      cols.push_back(j);
      values.push_back(v);
    };
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < m; ++c) {
        const std::size_t i = r * m + c;
        stamp(i, i, shunt);
        if (c + 1 < m) {
          stamp(i, i, g);
          stamp(i + 1, i + 1, g);
          stamp(i, i + 1, -g - skew);
          stamp(i + 1, i, -g);
        }
        if (r + 1 < m) {
          stamp(i, i, g);
          stamp(i + m, i + m, g);
          stamp(i, i + m, -g);
          stamp(i + m, i, -g);
        }
      }
    }
  }

  CooPattern pattern(std::size_t n) const {
    CooBuilder b(n);
    for (std::size_t k = 0; k < values.size(); ++k) {
      b.add(rows[k], cols[k], 0.0);
    }
    return b.pattern();
  }
};

struct ValueSet {
  double g, skew, shunt;
};

/// Refill one bound matrix through every value set and refresh its Solver;
/// each refreshed solve must equal, bit for bit, the solve of a Solver
/// freshly bound to a separately scattered copy of the same values.
void expect_refresh_matches_fresh_bind(const SolveOptions& options,
                                       const std::vector<ValueSet>& sets) {
  constexpr std::size_t m = 10;
  const CooPattern pattern = GridStamps(m, 1.0, 0.0, 0.5).pattern(m * m);
  CsrMatrix bound = pattern.scatter(GridStamps(m, 1.0, 0.0, 0.5).values);
  Solver refreshed(bound, options);

  Vector b(m * m);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0 + 0.03 * double(i % 7);
  for (const ValueSet& set : sets) {
    const GridStamps stamps(m, set.g, set.skew, set.shunt);
    pattern.scatter(stamps.values, bound);
    refreshed.refresh();
    const CsrMatrix fresh_matrix = pattern.scatter(stamps.values);
    Solver fresh(fresh_matrix, options);

    EXPECT_EQ(refreshed.kind(), fresh.kind());
    EXPECT_EQ(refreshed.preconditioner_label(), fresh.preconditioner_label());
    Vector x_refreshed, x_fresh;
    const auto r_refreshed = refreshed.solve(b, x_refreshed);
    const auto r_fresh = fresh.solve(b, x_fresh);
    ASSERT_EQ(r_refreshed.converged, r_fresh.converged);
    ASSERT_EQ(r_refreshed.iterations, r_fresh.iterations);
    ASSERT_EQ(x_refreshed, x_fresh);

    // The warm-start fast path sees the same refactored preconditioner.
    Vector w_refreshed(b.size(), 0.1), w_fresh(b.size(), 0.1);
    const auto once_refreshed = refreshed.iterate_once(b, w_refreshed, {});
    const auto once_fresh = fresh.iterate_once(b, w_fresh, {});
    ASSERT_EQ(once_refreshed.iterations, once_fresh.iterations);
    ASSERT_EQ(w_refreshed, w_fresh);
  }
}

const std::vector<ValueSet> kSpdSets = {
    {2.0, 0.0, 0.1}, {0.25, 0.0, 3.0}, {1.0, 0.0, 1e-6}, {7.5, 0.0, 0.5}};

TEST(SolverRefreshTest, Ilu0RefreshEqualsFreshBind) {
  SolveOptions options;
  options.preconditioner = PrecondKind::Ilu0;
  std::vector<ValueSet> sets = kSpdSets;
  sets.push_back({1.0, 0.4, 0.5});  // non-symmetric: Auto flips to BiCGSTAB
  sets.push_back({1.5, 0.0, 0.2});  // and back to CG
  expect_refresh_matches_fresh_bind(options, sets);
}

TEST(SolverRefreshTest, Ic0RefreshEqualsFreshBind) {
  SolveOptions options;
  options.preconditioner = PrecondKind::Ic0;
  expect_refresh_matches_fresh_bind(options, kSpdSets);
}

TEST(SolverRefreshTest, JacobiRefreshEqualsFreshBind) {
  SolveOptions options;
  options.preconditioner = PrecondKind::Jacobi;
  std::vector<ValueSet> sets = kSpdSets;
  sets.push_back({1.0, 0.4, 0.5});
  expect_refresh_matches_fresh_bind(options, sets);
}

TEST(SolverRefreshTest, Ic0BreakdownOnRefreshDegradesLikeAFreshBind) {
  // A negative shunt makes the grid symmetric indefinite: the in-place
  // IC(0) refactor breaks down and the refresh must land on ILU(0) (shunt
  // -1.5) or, when ILU(0) hits a zero pivot too, on Jacobi (-2), as a fresh
  // bind does; the next SPD refresh climbs back to IC(0).  A non-symmetric
  // refill skips IC(0) altogether.
  SolveOptions options;
  options.preconditioner = PrecondKind::Ic0;
  expect_refresh_matches_fresh_bind(
      options, {{1.0, 0.0, -1.5}, {1.0, 0.0, 0.5}, {1.0, 0.3, 0.5},
                {1.0, 0.0, -1.5}, {1.0, 0.0, -2.0}, {2.0, 0.0, 0.1}});

  constexpr std::size_t m = 10;
  const CooPattern pattern = GridStamps(m, 1.0, 0.0, 0.5).pattern(m * m);
  CsrMatrix a = pattern.scatter(GridStamps(m, 1.0, 0.0, 0.5).values);
  Solver solver(a, options);
  EXPECT_EQ(solver.preconditioner_label(), "ic0");
  pattern.scatter(GridStamps(m, 1.0, 0.0, -1.5).values, a);
  solver.refresh();
  EXPECT_EQ(solver.preconditioner_label(), "ilu0");
  pattern.scatter(GridStamps(m, 1.0, 0.0, 0.5).values, a);
  solver.refresh();
  EXPECT_EQ(solver.preconditioner_label(), "ic0");
}

#if VSTACK_TELEMETRY_ENABLED
double counter(const std::string& name) {
  return telemetry::snapshot().counter_value(name);
}

TEST(SolverRefreshTest, RefreshIsCountedApartFromBinds) {
  const CsrMatrix a0 = grid_laplacian(6);
  CsrMatrix a = a0;
  Solver solver(a);
  const double binds = counter("la.solver.binds");
  const double refreshes = counter("la.solver.refreshes");
  a.refresh_values([&](double* v) {
    for (std::size_t k = 0; k < a.nnz(); ++k) v[k] = 2.0 * a0.values()[k];
  });
  solver.refresh();
  EXPECT_EQ(counter("la.solver.binds"), binds);
  EXPECT_EQ(counter("la.solver.refreshes"), refreshes + 1.0);
}

TEST(SolverHandleTest, IterateOnceCountsTheBackendSolve) {
  const CsrMatrix a = grid_laplacian(8);
  Solver solver(a);
  const std::string name =
      std::string("la.solver.solves.") + solver.backend().name();
  const double before = counter(name);
  Vector x(a.size(), 0.0);
  ASSERT_TRUE(solver.iterate_once(Vector(a.size(), 1.0), x, {}).converged);
  EXPECT_EQ(counter(name), before + 1.0);
}
#endif

TEST(SolverHandleTest, OneShotHandleIsBehaviorallyIdentical) {
  // A temporary Solver used for a single solve (the one-shot idiom) matches
  // a named handle: identical solution bits, iterations, and attempt labels.
  const CsrMatrix a = grid_laplacian(12);
  Vector b(a.size());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0 + 0.01 * double(i);

  Vector x_once, x_handle;
  const auto r_once = Solver(a).solve(b, x_once);
  Solver solver(a);
  const auto r_handle = solver.solve(b, x_handle);

  ASSERT_TRUE(r_once.converged);
  ASSERT_TRUE(r_handle.converged);
  EXPECT_EQ(x_once, x_handle);
  EXPECT_EQ(r_once.iterations, r_handle.iterations);
  ASSERT_EQ(r_once.attempts.size(), r_handle.attempts.size());
  for (std::size_t i = 0; i < r_once.attempts.size(); ++i) {
    EXPECT_EQ(r_once.attempts[i].method, r_handle.attempts[i].method);
  }
}

TEST(SolverHandleTest, AutoResolvesKindAtBind) {
  Solver sym(grid_laplacian(4));
  EXPECT_EQ(sym.kind(), SolverKind::Cg);
  EXPECT_EQ(sym.preconditioner_label(), "ilu0");  // PrecondKind::Auto

  const CsrMatrix asym = asymmetric_system();
  Solver gen(asym);
  EXPECT_EQ(gen.kind(), SolverKind::BiCgStab);
}

TEST(SolverHandleTest, RepeatedSolvesAreIdentical) {
  // The reused workspace must not leak state between solves: solving the
  // same system twice from the same guess gives bitwise-equal results,
  // and an interleaved different RHS does not perturb that.
  const CsrMatrix a = grid_laplacian(10);
  const Vector b1(a.size(), 1.0);
  Vector b2(a.size(), 0.0);
  b2[0] = 5.0;
  b2[a.size() - 1] = -3.0;

  Solver solver(a);
  Vector x_first;
  const auto r_first = solver.solve(b1, x_first);

  Vector x_other;
  solver.solve(b2, x_other);  // dirty the workspace

  Vector x_second;
  const auto r_second = solver.solve(b1, x_second);

  ASSERT_TRUE(r_first.converged);
  ASSERT_TRUE(r_second.converged);
  EXPECT_EQ(x_first, x_second);
  EXPECT_EQ(r_first.iterations, r_second.iterations);
}

TEST(SolverHandleTest, SolveUsesGuessAndResizesMissing) {
  const CsrMatrix a = grid_laplacian(6);
  const Vector b(a.size(), 1.0);

  Solver solver(a);
  Vector reference_x;
  const auto cold = solver.solve(b, reference_x);
  ASSERT_TRUE(cold.converged);

  // Warm-started at the solution.
  Vector warm_x = reference_x;
  const auto warm = solver.solve(b, warm_x);
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, 1u);

  // An absent guess is resized to zeros: a cold start again.
  Vector missing_x;
  const auto again = solver.solve(b, missing_x);
  EXPECT_TRUE(again.converged);
  EXPECT_EQ(again.iterations, cold.iterations);
}

TEST(SolverHandleTest, PerCallIterativeOverride) {
  const CsrMatrix a = grid_laplacian(16);
  const Vector b(a.size(), 1.0);
  Solver solver(a);

  IterativeOptions starved;
  starved.max_iterations = 1;
  starved.relative_tolerance = 1e-12;
  Vector x_starved(a.size(), 0.0);
  EXPECT_FALSE(solver.iterate_once(b, x_starved, starved).converged);

  // The bind-time options are untouched: an attempt under them converges.
  Vector x(a.size(), 0.0);
  EXPECT_TRUE(solver.iterate_once(b, x, solver.options().iterative).converged);
}

TEST(SolverHandleTest, IterateOnceIsSingleAttempt) {
  const CsrMatrix a = grid_laplacian(12);
  const Vector b(a.size(), 1.0);
  Solver solver(a);

  IterativeOptions iterative;
  Vector x(a.size(), 0.0);
  const auto warm = solver.iterate_once(b, x, iterative);
  ASSERT_TRUE(warm.converged);
  // Raw primary-method report: no escalation trail is recorded.
  EXPECT_TRUE(warm.attempts.empty());

  // Starved iterate_once just fails -- no ladder behind it.
  IterativeOptions starved;
  starved.max_iterations = 1;
  starved.relative_tolerance = 1e-12;
  Vector x2(a.size(), 0.0);
  const auto stalled = solver.iterate_once(b, x2, starved);
  EXPECT_FALSE(stalled.converged);
  EXPECT_TRUE(stalled.attempts.empty());
}

TEST(SolverHandleTest, EscalationLadderStillRunsThroughHandle) {
  // A starved per-call budget with escalation enabled must walk past the
  // primary CG attempt, matching the historic la::solve ladder.
  const CsrMatrix a = grid_laplacian(16);
  const Vector b(a.size(), 1.0);
  Solver solver(a);

  IterativeOptions starved;
  starved.max_iterations = 2;
  starved.relative_tolerance = 1e-12;
  Vector x;
  const auto report = solver.solve(b, x, starved);
  // The dense-LU rung catches it (256 unknowns < dense_fallback_max_size).
  ASSERT_TRUE(report.converged);
  EXPECT_GT(report.attempts.size(), 1u);
  EXPECT_EQ(report.attempts.back().method, "dense-lu");
}

TEST(SolverHandleTest, RejectsSizeMismatch) {
  const CsrMatrix a = grid_laplacian(4);
  Solver solver(a);
  Vector x;
  EXPECT_THROW(solver.solve(Vector(3, 1.0), x), Error);
}

TEST(SolverHandleTest, MoveTransfersBinding) {
  const CsrMatrix a = grid_laplacian(8);
  Solver first(a);
  const Vector b(a.size(), 1.0);
  Vector x_before;
  const auto r_before = first.solve(b, x_before);

  Solver second = std::move(first);
  EXPECT_EQ(&second.matrix(), &a);
  Vector x_after;
  const auto r_after = second.solve(b, x_after);
  ASSERT_TRUE(r_before.converged);
  ASSERT_TRUE(r_after.converged);
  EXPECT_EQ(x_before, x_after);
}

TEST(SolverHandleTest, ExplicitBackendChoiceSticks) {
  const CsrMatrix a = grid_laplacian(6);
  SolveOptions opts;
  opts.backend = BackendChoice::Optimized;
  Solver solver(a, opts);
  EXPECT_STREQ(solver.backend().name(), "optimized");

  const Vector b(a.size(), 1.0);
  Vector x;
  EXPECT_TRUE(solver.solve(b, x).converged);
}

}  // namespace
}  // namespace vstack::la

// Kernel-backend registry and reference-vs-optimized cross-validation.
//
// The optimized backend reorders reductions, so agreement with the
// reference is to tolerance (kernels ~1e-12 relative, full solves to the
// solver tolerance), never bitwise -- the numerics policy of
// docs/linear_algebra.md stated as tests.
#include "la/backend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "common/error.h"
#include "la/solver.h"

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

/// Randomized SPD matrix: diagonally dominant with random symmetric
/// off-diagonal couplings on a ring-plus-chords pattern.
CsrMatrix random_spd(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> mag(0.1, 1.0);
  CooBuilder b(n);
  Vector row_sum(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t neighbors[] = {(i + 1) % n, (i + 7) % n};
    for (const std::size_t j : neighbors) {
      if (j <= i) continue;  // stamp each pair once, symmetrically
      const double w = mag(rng);
      b.add(i, j, -w);
      b.add(j, i, -w);
      row_sum[i] += w;
      row_sum[j] += w;
    }
  }
  for (std::size_t i = 0; i < n; ++i) b.add(i, i, row_sum[i] + mag(rng));
  return b.build();
}

Vector random_vector(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Vector v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

TEST(BackendRegistryTest, LookupAndFlags) {
  const Backend* ref = backend_by_name("reference");
  const Backend* opt = backend_by_name("optimized");
  ASSERT_NE(ref, nullptr);
  ASSERT_NE(opt, nullptr);
  EXPECT_STREQ(ref->name(), "reference");
  EXPECT_STREQ(opt->name(), "optimized");
  EXPECT_TRUE(ref->bit_identical());
  EXPECT_FALSE(opt->bit_identical());
  EXPECT_EQ(backend_by_name("vectorized"), nullptr);

  const auto all = all_backends();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], &reference_backend());
  EXPECT_EQ(all[1], &optimized_backend());
}

TEST(BackendRegistryTest, ResolveChoices) {
  EXPECT_EQ(&resolve_backend(BackendChoice::Reference), &reference_backend());
  EXPECT_EQ(&resolve_backend(BackendChoice::Optimized), &optimized_backend());
  // Auto defers to the process default, which in the test binary (no
  // --la-backend, VSTACK_LA_BACKEND unset or honored by CI) must be a
  // registered backend.
  const Backend& resolved = resolve_backend(BackendChoice::Auto);
  EXPECT_NE(backend_by_name(resolved.name()), nullptr);
}

TEST(BackendRegistryTest, SetDefaultBackendRejectsUnknown) {
  EXPECT_THROW(set_default_backend("no-such-backend"), Error);
}

TEST(BackendKernelTest, SpmvMatchesReference) {
  const CsrMatrix a = grid_laplacian(13);  // odd edge: rows of 3..5 nnz
  const Vector x = random_vector(a.size(), 42);
  const Backend& ref = reference_backend();
  const Backend& opt = optimized_backend();
  const auto pr = ref.prepare(a);
  const auto po = opt.prepare(a);
  Vector yr, yo;
  ref.spmv(*pr, x, yr);
  opt.spmv(*po, x, yo);
  ASSERT_EQ(yr.size(), yo.size());
  for (std::size_t i = 0; i < yr.size(); ++i) {
    EXPECT_NEAR(yo[i], yr[i], 1e-12 * (1.0 + std::abs(yr[i])));
  }
}

TEST(BackendKernelTest, ReductionsMatchReference) {
  const std::size_t n = 1021;  // not a multiple of the unroll width
  const Vector x = random_vector(n, 7);
  const Vector y = random_vector(n, 8);

  const Backend& ref = reference_backend();
  const Backend& opt = optimized_backend();

  const double dr = ref.dot(x, y);
  const double dopt = opt.dot(x, y);
  EXPECT_NEAR(dopt, dr, 1e-12 * (1.0 + std::abs(dr)));

  EXPECT_NEAR(opt.norm2(x), ref.norm2(x), 1e-12 * (1.0 + ref.norm2(x)));

  Vector yr = y, yo = y;
  const double nr = ref.axpy_norm2(0.37, x, yr);
  const double no = opt.axpy_norm2(0.37, x, yo);
  EXPECT_NEAR(no, nr, 1e-12 * (1.0 + nr));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(yo[i], yr[i], 1e-14 * (1.0 + std::abs(yr[i])));
  }
}

TEST(BackendKernelTest, FusedResidualMatchesReference) {
  const CsrMatrix a = grid_laplacian(9);
  const Vector x = random_vector(a.size(), 11);
  const Vector b = random_vector(a.size(), 12);
  const Backend& ref = reference_backend();
  const Backend& opt = optimized_backend();
  const auto pr = ref.prepare(a);
  const auto po = opt.prepare(a);
  Vector rr, ro;
  ref.residual(*pr, b, x, rr);
  opt.residual(*po, b, x, ro);
  ASSERT_EQ(rr.size(), ro.size());
  for (std::size_t i = 0; i < rr.size(); ++i) {
    EXPECT_NEAR(ro[i], rr[i], 1e-12 * (1.0 + std::abs(rr[i])));
  }
}

TEST(BackendKernelTest, ElementwiseOpsBitIdentical) {
  // axpy/xpby have a fixed elementwise order in every backend: the
  // optimized backend only reassociates reductions, so these must be
  // bitwise equal, not merely close.
  const std::size_t n = 257;
  const Vector x = random_vector(n, 21);
  const Vector base = random_vector(n, 22);
  const Backend& ref = reference_backend();
  const Backend& opt = optimized_backend();

  Vector yr = base, yo = base;
  ref.axpy(-1.75, x, yr);
  opt.axpy(-1.75, x, yo);
  EXPECT_EQ(yr, yo);

  Vector pr = base, po = base;
  ref.xpby(x, 0.61, pr);
  opt.xpby(x, 0.61, po);
  EXPECT_EQ(pr, po);
}

TEST(BackendSolveTest, RandomizedSpdCrossValidation) {
  // Full CG solves on randomized SPD systems must agree across backends to
  // well within the solver tolerance.
  for (const std::uint32_t seed : {1u, 2u, 3u}) {
    const CsrMatrix a = random_spd(300, seed);
    const Vector b = random_vector(a.size(), seed + 100);

    SolveOptions ref_opts, opt_opts;
    ref_opts.backend = BackendChoice::Reference;
    opt_opts.backend = BackendChoice::Optimized;

    Vector x_ref, x_opt;
    Solver ref_solver(a, ref_opts);
    Solver opt_solver(a, opt_opts);
    const auto rr = ref_solver.solve(b, x_ref);
    const auto ro = opt_solver.solve(b, x_opt);
    ASSERT_TRUE(rr.converged) << "seed " << seed;
    ASSERT_TRUE(ro.converged) << "seed " << seed;

    const double scale = norm2(x_ref);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(x_opt[i], x_ref[i], 1e-7 * (1.0 + scale))
          << "seed " << seed << " component " << i;
    }
  }
}

TEST(BackendSolveTest, FaultDamagedMatrixCrossValidation) {
  // Mimic a fault-damaged PDN system: take a grid Laplacian, then weaken a
  // band of couplings and pin a few nodes with strong grounds, producing
  // the badly-scaled-but-solvable systems the escalation ladder sees.
  const std::size_t m = 16;
  CooBuilder b(m * m);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t i = r * m + c;
      const bool damaged_row = (r >= 6 && r <= 8);
      const double w = damaged_row ? 1e-4 : 1.0;
      double diag = 1e-9;  // weak ground keeps the system nonsingular
      if (r > 0) { b.add(i, i - m, -w); diag += w; }
      if (r + 1 < m) { b.add(i, i + m, -w); diag += w; }
      if (c > 0) { b.add(i, i - 1, -w); diag += w; }
      if (c + 1 < m) { b.add(i, i + 1, -w); diag += w; }
      if (i % 37 == 0) diag += 1e4;  // strong pin
      b.add(i, i, diag);
    }
  }
  const CsrMatrix a = b.build();
  const Vector rhs = random_vector(a.size(), 99);

  SolveOptions ref_opts, opt_opts;
  ref_opts.backend = BackendChoice::Reference;
  opt_opts.backend = BackendChoice::Optimized;

  Vector x_ref, x_opt;
  const auto rr = Solver(a, ref_opts).solve(rhs, x_ref);
  const auto ro = Solver(a, opt_opts).solve(rhs, x_opt);
  ASSERT_TRUE(rr.converged);
  ASSERT_TRUE(ro.converged);

  // Compare through the residual (the solution itself is ill-conditioned
  // along the weak modes, so backend-level rounding can move components
  // more than the residual tolerance implies).
  const Vector res_ref = subtract(rhs, a.multiply(x_ref));
  const Vector res_opt = subtract(rhs, a.multiply(x_opt));
  const double b_norm = norm2(rhs);
  EXPECT_LT(norm2(res_ref) / b_norm, 1e-8);
  EXPECT_LT(norm2(res_opt) / b_norm, 1e-8);
}

TEST(BackendSolveTest, ReferenceBackendBitIdenticalToLegacyPath) {
  // BackendChoice::Reference through the Solver must reproduce the
  // historic arithmetic exactly, handle after handle: same matrix, same
  // RHS, bitwise-equal solution.
  const CsrMatrix a = grid_laplacian(10);
  const Vector b(a.size(), 1.0);

  SolveOptions opts;
  opts.backend = BackendChoice::Reference;  // pin both sides against the env
  Vector x_first;
  const auto r_first = Solver(a, opts).solve(b, x_first);

  Vector x_handle;
  const auto r_handle = Solver(a, opts).solve(b, x_handle);

  ASSERT_TRUE(r_first.converged);
  ASSERT_TRUE(r_handle.converged);
  EXPECT_EQ(r_first.iterations, r_handle.iterations);
  EXPECT_EQ(x_first, x_handle);
}

}  // namespace
}  // namespace vstack::la

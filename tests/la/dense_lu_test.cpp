#include "la/dense_lu.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/error.h"
#include "common/rng.h"

namespace vstack::la {
namespace {

TEST(DenseLuTest, SolvesKnownSystem) {
  DenseMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  DenseLu lu(a);
  const Vector x = lu.solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseLuTest, RequiresPivoting) {
  // Zero leading entry forces a row swap.
  DenseMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  DenseLu lu(a);
  const Vector x = lu.solve({3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseLuTest, ThrowsOnSingular) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(DenseLu{a}, Error);
}

TEST(DenseLuTest, RandomRoundTrip) {
  Rng rng(3);
  const std::size_t n = 25;
  DenseMatrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += 5.0;  // diagonally dominant => nonsingular
  }
  Vector x_true(n);
  for (auto& v : x_true) v = rng.uniform(-2.0, 2.0);
  const Vector b = a.multiply(x_true);
  const Vector x = DenseLu(a).solve(b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-10);
  }
}

TEST(DenseLuTest, FromCsrPreservesEntries) {
  CooBuilder b(2);
  b.add(0, 0, 1.5);
  b.add(1, 0, -2.0);
  b.add(1, 1, 4.0);
  const DenseMatrix d = DenseMatrix::from_csr(b.build());
  EXPECT_DOUBLE_EQ(d(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(d(1, 0), -2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 4.0);
}

TEST(DenseLuTest, SolveRejectsWrongRhsSize) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  DenseLu lu(a);
  EXPECT_THROW(lu.solve({1.0, 2.0, 3.0}), Error);
}

/// Random n x n matrix; `dominance` on the diagonal (0 leaves pivoting to
/// do real row swaps).
DenseMatrix random_matrix(Rng& rng, std::size_t n, double dominance) {
  DenseMatrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += dominance;
  }
  return a;
}

Vector random_vector(Rng& rng, std::size_t n) {
  Vector v(n);
  for (auto& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

bool bitwise_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(DenseLuTest, RefactorAndSolveIntoMatchFreshFactorBitwise) {
  // One handle reused across sizes (growing and shrinking) must give the
  // exact bits of a fresh DenseLu(a).solve(b) every time.
  Rng rng(11);
  DenseLu reused;
  Vector x(3, -7.0);  // stale contents and size must not leak through
  for (const std::size_t n : {19u, 19u, 5u, 40u, 1u, 19u}) {
    for (const double dominance : {0.0, 4.0}) {
      const DenseMatrix a = random_matrix(rng, n, dominance);
      const Vector b = random_vector(rng, n);
      reused.refactor(a);
      ASSERT_EQ(reused.size(), n);
      reused.solve_into(b, x);
      ASSERT_TRUE(bitwise_equal(x, DenseLu(a).solve(b))) << "n = " << n;
      ASSERT_TRUE(bitwise_equal(reused.solve(b), x)) << "n = " << n;
    }
  }
}

TEST(DenseLuTest, SingularRefactorThrowsAndTheNextGoodOneWorks) {
  Rng rng(12);
  const DenseMatrix good = random_matrix(rng, 6, 3.0);
  const Vector b = random_vector(rng, 6);
  DenseLu lu(good);
  DenseMatrix singular = good;
  for (std::size_t c = 0; c < 6; ++c) singular(4, c) = 2.0 * singular(1, c);
  for (std::size_t r = 0; r < 6; ++r) singular(r, 3) = 0.0;
  EXPECT_THROW(lu.refactor(singular), Error);
  // A failed refactor leaves no stale factorization behind.
  Vector x;
  EXPECT_THROW(lu.solve_into(b, x), Error);
  EXPECT_THROW(lu.solve(b), Error);

  lu.refactor(good);
  lu.solve_into(b, x);
  EXPECT_TRUE(bitwise_equal(x, DenseLu(good).solve(b)));
}

TEST(DenseLuTest, EmptyHandleAndAliasedSolveAreRejected) {
  DenseLu empty;
  Vector x;
  EXPECT_THROW(empty.solve_into({}, x), Error);

  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 2.0;
  const DenseLu lu(a);
  Vector b{1.0, 1.0};
  EXPECT_THROW(lu.solve_into(b, b), Error);
  EXPECT_THROW(DenseLu{}.refactor(DenseMatrix(2, 3)), Error);
}

TEST(DenseLuTest, RefactorHonorsAnExpiredDeadline) {
  Rng rng(13);
  const DenseMatrix a = random_matrix(rng, 4, 3.0);
  DenseLu lu;
  EXPECT_THROW(lu.refactor(a, Deadline::after(0)), Error);
  lu.refactor(a);
  EXPECT_EQ(lu.size(), 4u);
}

}  // namespace
}  // namespace vstack::la

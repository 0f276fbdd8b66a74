#include "la/sparse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "common/error.h"

namespace vstack::la {
namespace {

TEST(CooBuilderTest, AccumulatesDuplicates) {
  CooBuilder b(3);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 2, -1.0);
  const CsrMatrix a = b.build();
  EXPECT_EQ(a.nnz(), 2u);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(a.at(1, 2), -1.0);
  EXPECT_DOUBLE_EQ(a.at(2, 2), 0.0);
}

TEST(CooBuilderTest, RejectsOutOfRangeStamp) {
  CooBuilder b(2);
  EXPECT_THROW(b.add(2, 0, 1.0), Error);
  EXPECT_THROW(b.add(0, 5, 1.0), Error);
}

TEST(CooBuilderTest, RejectsZeroDimension) {
  EXPECT_THROW(CooBuilder(0), Error);
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void expect_bit_identical(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.row_ptr(), b.row_ptr());
  ASSERT_EQ(a.col_idx(), b.col_idx());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (std::size_t k = 0; k < a.nnz(); ++k) {
    ASSERT_EQ(bits(a.values()[k]), bits(b.values()[k])) << "entry " << k;
  }
}

/// Random stamps on a 40-node system, each (row, col) drawn from a small
/// key set so most positions collect several duplicates; values span
/// magnitudes so the summation order shows in the low bits.
struct Stamps {
  std::vector<std::size_t> rows, cols;
  std::vector<double> values(std::mt19937_64& rng) const {
    std::uniform_real_distribution<double> mant(-1.0, 1.0);
    std::uniform_int_distribution<int> expo(-12, 12);
    std::vector<double> v(rows.size());
    for (double& x : v) x = std::ldexp(mant(rng), expo(rng));
    return v;
  }
};

Stamps duplicate_heavy_stamps(std::mt19937_64& rng) {
  Stamps s;
  std::uniform_int_distribution<std::size_t> node(0, 39);
  for (int k = 0; k < 600; ++k) {
    const std::size_t i = node(rng);
    const std::size_t j = k % 3 == 0 ? i : node(rng) % 8;
    s.rows.push_back(i);
    s.cols.push_back(j);
  }
  return s;
}

CsrMatrix build_from(const Stamps& s, const std::vector<double>& v) {
  CooBuilder b(40);
  for (std::size_t k = 0; k < v.size(); ++k) b.add(s.rows[k], s.cols[k], v[k]);
  return b.build();
}

/// Independent reference for the assembly order: sort triplet indices by
/// (row, col) with the same std::sort call, then sum each run of equal keys
/// left to right into the previous entry.
CsrMatrix reference_assembly(const Stamps& s, const std::vector<double>& v) {
  std::vector<std::size_t> order(v.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (s.rows[a] != s.rows[b]) return s.rows[a] < s.rows[b];
    return s.cols[a] < s.cols[b];
  });
  std::vector<std::size_t> row_ptr(41, 0), col_idx;
  std::vector<double> values;
  for (std::size_t p = 0; p < order.size(); ++p) {
    const std::size_t e = order[p];
    const std::size_t prev = p > 0 ? order[p - 1] : e;
    if (p > 0 && s.rows[prev] == s.rows[e] && s.cols[prev] == s.cols[e]) {
      values.back() += v[e];
      continue;
    }
    col_idx.push_back(s.cols[e]);
    values.push_back(v[e]);
    row_ptr[s.rows[e] + 1]++;
  }
  for (std::size_t r = 0; r < 40; ++r) row_ptr[r + 1] += row_ptr[r];
  return CsrMatrix(40, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

TEST(CooPatternTest, ScatterIsBitIdenticalToBuild) {
  std::mt19937_64 rng(20150607);
  const Stamps stamps = duplicate_heavy_stamps(rng);
  const std::vector<double> first = stamps.values(rng);
  CooBuilder keys(40);
  for (std::size_t k = 0; k < first.size(); ++k) {
    keys.add(stamps.rows[k], stamps.cols[k], first[k]);
  }
  const CooPattern pattern = keys.pattern();
  ASSERT_LT(pattern.nnz(), first.size());  // duplicates really merged

  CsrMatrix refilled = pattern.scatter(first);
  expect_bit_identical(refilled, keys.build());
  expect_bit_identical(refilled, reference_assembly(stamps, first));
  // New value sets through the same pattern: a fresh scatter and an
  // in-place refill both equal a full re-assembly.
  for (int round = 0; round < 5; ++round) {
    const std::vector<double> v = stamps.values(rng);
    const CsrMatrix built = build_from(stamps, v);
    expect_bit_identical(built, reference_assembly(stamps, v));
    expect_bit_identical(pattern.scatter(v), built);
    pattern.scatter(v, refilled);
    expect_bit_identical(refilled, built);
  }
}

TEST(CooPatternTest, RefillResetsTheSymmetryMemo) {
  CooBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 0.5);
  b.add(1, 0, 0.5);
  b.add(1, 1, 1.0);
  const CooPattern pattern = b.pattern();
  CsrMatrix a = pattern.scatter({1.0, 0.5, 0.5, 1.0});
  EXPECT_TRUE(a.is_symmetric());  // memoized "yes"
  pattern.scatter({1.0, 0.5, -0.5, 1.0}, a);
  EXPECT_FALSE(a.is_symmetric());
  pattern.scatter({2.0, 0.25, 0.25, 2.0}, a);
  EXPECT_TRUE(a.is_symmetric());
}

TEST(CooPatternTest, ScatterRejectsMismatchedInputs) {
  CooBuilder b(3);
  b.add(0, 0, 1.0);
  b.add(2, 1, 1.0);
  const CooPattern pattern = b.pattern();
  EXPECT_THROW(pattern.scatter({1.0}), Error);  // one value per triplet
  CooBuilder other(3);
  other.add(1, 1, 1.0);
  CsrMatrix wrong = other.build();
  EXPECT_THROW(pattern.scatter({1.0, 2.0}, wrong), Error);
}

TEST(CsrMatrixTest, MultiplyIdentity) {
  CooBuilder b(4);
  for (std::size_t i = 0; i < 4; ++i) b.add(i, i, 1.0);
  const CsrMatrix a = b.build();
  const Vector x{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(a.multiply(x), x);
}

TEST(CsrMatrixTest, MultiplyGeneral) {
  // [1 2; 3 4] * [5; 6] = [17; 39]
  CooBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 3.0);
  b.add(1, 1, 4.0);
  const CsrMatrix a = b.build();
  const Vector y = a.multiply({5.0, 6.0});
  EXPECT_DOUBLE_EQ(y[0], 17.0);
  EXPECT_DOUBLE_EQ(y[1], 39.0);
}

TEST(CsrMatrixTest, ColumnsSortedWithinRows) {
  CooBuilder b(3);
  b.add(0, 2, 1.0);
  b.add(0, 0, 1.0);
  b.add(0, 1, 1.0);
  const CsrMatrix a = b.build();
  ASSERT_EQ(a.nnz(), 3u);
  EXPECT_EQ(a.col_idx()[0], 0u);
  EXPECT_EQ(a.col_idx()[1], 1u);
  EXPECT_EQ(a.col_idx()[2], 2u);
}

TEST(CsrMatrixTest, DiagonalExtraction) {
  CooBuilder b(3);
  b.add(0, 0, 2.0);
  b.add(1, 2, 5.0);  // off-diagonal only in row 1
  b.add(2, 2, -7.0);
  const Vector d = b.build().diagonal();
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], -7.0);
}

TEST(CsrMatrixTest, SymmetryDetection) {
  CooBuilder sym(3);
  sym.add(0, 0, 2.0);
  sym.add(0, 1, -1.0);
  sym.add(1, 0, -1.0);
  sym.add(1, 1, 2.0);
  sym.add(2, 2, 1.0);
  EXPECT_TRUE(sym.build().is_symmetric());

  CooBuilder asym(2);
  asym.add(0, 0, 1.0);
  asym.add(0, 1, 0.5);
  asym.add(1, 0, -0.5);
  asym.add(1, 1, 1.0);
  EXPECT_FALSE(asym.build().is_symmetric());
}

TEST(CsrMatrixTest, StructuralAsymmetryDetected) {
  CooBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 1.0);  // (1,0) missing entirely
  b.add(1, 1, 1.0);
  EXPECT_FALSE(b.build().is_symmetric());
}

TEST(CsrMatrixTest, SymmetryMemoIsStableAcrossRepeatsAndCopies) {
  // is_symmetric(default tol) is memoized after the first scan; repeated
  // queries and copies/moves must keep answering consistently for both
  // polarities.
  CooBuilder sym(3);
  sym.add(0, 0, 2.0);
  sym.add(0, 1, -1.0);
  sym.add(1, 0, -1.0);
  sym.add(1, 1, 2.0);
  sym.add(2, 2, 1.0);
  const CsrMatrix a = sym.build();
  EXPECT_TRUE(a.is_symmetric());
  EXPECT_TRUE(a.is_symmetric());  // memoized path

  CsrMatrix copied = a;  // memo travels with the copy
  EXPECT_TRUE(copied.is_symmetric());
  const CsrMatrix moved = std::move(copied);
  EXPECT_TRUE(moved.is_symmetric());

  CooBuilder asym(2);
  asym.add(0, 0, 1.0);
  asym.add(0, 1, 0.5);
  asym.add(1, 0, -0.5);
  asym.add(1, 1, 1.0);
  const CsrMatrix b = asym.build();
  EXPECT_FALSE(b.is_symmetric());
  EXPECT_FALSE(b.is_symmetric());
  const CsrMatrix b_copy = b;
  EXPECT_FALSE(b_copy.is_symmetric());
}

TEST(CsrMatrixTest, NonDefaultToleranceBypassesMemo) {
  // Nearly-symmetric matrix: asymmetric at 1e-12 (the memoized default)
  // but symmetric under a loose tolerance.  Mixing the two query kinds
  // must not cross-contaminate.
  CooBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 0.5);
  b.add(1, 0, 0.5 + 1e-9);
  b.add(1, 1, 1.0);
  const CsrMatrix a = b.build();
  EXPECT_FALSE(a.is_symmetric());        // default tol, memoized as "no"
  EXPECT_TRUE(a.is_symmetric(1e-6));     // loose tol, fresh scan
  EXPECT_FALSE(a.is_symmetric());        // memo still says "no"
  EXPECT_TRUE(a.is_symmetric(1e-6));
}

TEST(CsrMatrixTest, MultiplyRejectsWrongSize) {
  CooBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  const CsrMatrix a = b.build();
  Vector y;
  EXPECT_THROW(a.multiply({1.0, 2.0, 3.0}, y), Error);
}

}  // namespace
}  // namespace vstack::la

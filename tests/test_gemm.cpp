#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "linalg/gemm.hpp"
#include "linalg/norms.hpp"
#include "test_helpers.hpp"

namespace qkmps::linalg {
namespace {

Matrix naive_mul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (idx i = 0; i < a.rows(); ++i)
    for (idx j = 0; j < b.cols(); ++j) {
      cplx acc = 0.0;
      for (idx k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  return c;
}

TEST(Gemm, IdentityIsNeutral) {
  Rng rng(1);
  const Matrix a = testing::random_matrix(6, 6, rng);
  const Matrix r = gemm(a, Matrix::identity(6), ExecPolicy::Reference);
  EXPECT_LT(max_abs_diff(r, a), 1e-14);
}

TEST(Gemm, DimensionMismatchThrows) {
  Matrix a(2, 3), b(4, 2);
  EXPECT_THROW(gemm(a, b, ExecPolicy::Reference), Error);
}

TEST(Gemm, AccumulateAddsIntoStridedBlock) {
  // C += A B on the interior 2x3 block of a 4x5 C, with A and B read out
  // of wider row-major buffers; entries outside the block stay untouched.
  Rng rng(5);
  const Matrix a = testing::random_matrix(3, 4, rng);  // A = a[1:3, 0:2]
  const Matrix b = testing::random_matrix(2, 6, rng);  // B = b[:, 2:5]
  const Matrix c0 = testing::random_matrix(4, 5, rng);
  Matrix c = c0;
  gemm_accumulate(c.row(1) + 1, 5, a.row(1), 4, b.row(0) + 2, 6, 2, 2, 3);
  for (idx i = 0; i < 4; ++i)
    for (idx j = 0; j < 5; ++j) {
      cplx want = c0(i, j);
      if (i >= 1 && i < 3 && j >= 1 && j < 4)
        for (idx p = 0; p < 2; ++p) want += a(i, p) * b(p, j + 1);
      EXPECT_LT(std::abs(c(i, j) - want), 1e-12) << i << "," << j;
    }
}

TEST(Gemv, MatchesGemm) {
  Rng rng(4);
  const Matrix a = testing::random_matrix(7, 5, rng);
  const Matrix x = testing::random_matrix(5, 1, rng);
  EXPECT_LT(max_abs_diff(gemv(a, x), naive_mul(a, x)), 1e-13);
}

/// Parameterized agreement sweep: all kernels must agree with the naive
/// triple loop over a representative grid of shapes, including the
/// parallel-dispatch threshold region.
class GemmShapes : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(GemmShapes, AllKernelsAgree) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000003 + k * 1009 + n));
  const Matrix a = testing::random_matrix(m, k, rng);
  const Matrix b = testing::random_matrix(k, n, rng);
  const Matrix expect = naive_mul(a, b);

  const double scale = frobenius_norm(expect) + 1.0;
  EXPECT_LT(max_abs_diff(gemm_reference(a, b), expect) / scale, 1e-13);
  EXPECT_LT(max_abs_diff(gemm_blocked(a, b, false), expect) / scale, 1e-13);
  EXPECT_LT(max_abs_diff(gemm_blocked(a, b, true), expect) / scale, 1e-13);
  EXPECT_LT(max_abs_diff(gemm(a, b, ExecPolicy::Reference), expect) / scale, 1e-13);
  EXPECT_LT(max_abs_diff(gemm(a, b, ExecPolicy::Accelerated), expect) / scale, 1e-13);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 8, 1),
                      std::make_tuple(2, 3, 5), std::make_tuple(16, 16, 16),
                      std::make_tuple(48, 48, 48), std::make_tuple(49, 31, 57),
                      std::make_tuple(96, 17, 128), std::make_tuple(130, 130, 130),
                      std::make_tuple(7, 200, 3)));

}  // namespace
}  // namespace qkmps::linalg

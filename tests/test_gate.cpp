#include <gtest/gtest.h>

#include <cmath>

#include "circuit/gate.hpp"
#include "linalg/gemm.hpp"
#include "linalg/norms.hpp"

namespace qkmps::circuit {
namespace {

double unitarity_defect(const linalg::Matrix& u) {
  const linalg::Matrix g =
      linalg::gemm(u.adjoint(), u, linalg::ExecPolicy::Reference);
  linalg::Matrix eye = linalg::Matrix::identity(u.cols());
  return linalg::max_abs_diff(g, eye);
}

TEST(Gate, AllKindsAreUnitary) {
  const std::vector<Gate> gates = {
      make_h(0),        make_x(0),        make_z(0),
      make_rz(0, 0.73), make_rx(0, -1.2), make_rxx(0, 1, 2.1),
      make_swap(0, 1)};
  for (const Gate& g : gates) {
    EXPECT_LT(unitarity_defect(g.matrix()), 1e-14) << g.name();
  }
}

TEST(Gate, HadamardSquaresToIdentity) {
  const linalg::Matrix h = make_h(0).matrix();
  const linalg::Matrix hh = linalg::gemm_reference(h, h);
  EXPECT_LT(linalg::max_abs_diff(hh, linalg::Matrix::identity(2)), 1e-14);
}

TEST(Gate, RzIsDiagonalWithHalfAngles) {
  const linalg::Matrix m = make_rz(0, 1.0).matrix();
  EXPECT_EQ(m(0, 1), cplx(0.0));
  EXPECT_EQ(m(1, 0), cplx(0.0));
  EXPECT_NEAR(std::arg(m(0, 0)), -0.5, 1e-14);
  EXPECT_NEAR(std::arg(m(1, 1)), 0.5, 1e-14);
}

TEST(Gate, ZeroAngleRotationsAreIdentity) {
  for (const Gate& g : {make_rz(0, 0.0), make_rx(0, 0.0)}) {
    EXPECT_LT(linalg::max_abs_diff(g.matrix(), linalg::Matrix::identity(2)),
              1e-15);
  }
  EXPECT_LT(linalg::max_abs_diff(make_rxx(0, 1, 0.0).matrix(),
                                 linalg::Matrix::identity(4)),
            1e-15);
}

TEST(Gate, RxxAtPiIsMinusIXX) {
  // RXX(pi) = -i XX up to the matrix entries: cos(pi/2)=0, sin(pi/2)=1.
  const linalg::Matrix m = make_rxx(0, 1, kPi).matrix();
  EXPECT_NEAR(std::abs(m(0, 0)), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(m(0, 3) - cplx(0.0, -1.0)), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(m(1, 2) - cplx(0.0, -1.0)), 0.0, 1e-15);
}

TEST(Gate, RxxIsSymmetricUnderQubitExchange) {
  // XX is invariant when the two qubits swap; the matrix must commute with
  // the SWAP permutation.
  const linalg::Matrix m = make_rxx(0, 1, 0.9).matrix();
  const linalg::Matrix s = make_swap(0, 1).matrix();
  const linalg::Matrix sm = linalg::gemm_reference(s, m);
  const linalg::Matrix ms = linalg::gemm_reference(m, s);
  EXPECT_LT(linalg::max_abs_diff(sm, ms), 1e-14);
}

TEST(Gate, RotationsCompose) {
  const linalg::Matrix a = make_rz(0, 0.4).matrix();
  const linalg::Matrix b = make_rz(0, 0.6).matrix();
  const linalg::Matrix ab = linalg::gemm_reference(a, b);
  EXPECT_LT(linalg::max_abs_diff(ab, make_rz(0, 1.0).matrix()), 1e-14);
}

TEST(Gate, RxxGatesCommuteOnSharedQubit) {
  // Structural basis of the depth scheduler: RXX gates share the XX
  // eigenbasis, so 4x4 blocks on the same pair commute.
  const linalg::Matrix a = make_rxx(0, 1, 0.8).matrix();
  const linalg::Matrix b = make_rxx(0, 1, 1.3).matrix();
  EXPECT_LT(linalg::max_abs_diff(linalg::gemm_reference(a, b),
                                 linalg::gemm_reference(b, a)),
            1e-14);
}

TEST(Gate, SwapMatrixPermutesBasis) {
  const linalg::Matrix s = make_swap(0, 1).matrix();
  EXPECT_EQ(s(0, 0), cplx(1.0));
  EXPECT_EQ(s(1, 2), cplx(1.0));
  EXPECT_EQ(s(2, 1), cplx(1.0));
  EXPECT_EQ(s(3, 3), cplx(1.0));
  EXPECT_EQ(s(1, 1), cplx(0.0));
}

TEST(Gate, TwoQubitPredicate) {
  EXPECT_FALSE(make_h(0).is_two_qubit());
  EXPECT_TRUE(make_rxx(0, 3, 0.1).is_two_qubit());
  EXPECT_TRUE(make_swap(2, 1).is_two_qubit());
}

TEST(Gate, ConstructorsRejectDegeneratePairs) {
  EXPECT_THROW(make_rxx(1, 1, 0.5), Error);
  EXPECT_THROW(make_swap(0, 0), Error);
}

}  // namespace
}  // namespace qkmps::circuit

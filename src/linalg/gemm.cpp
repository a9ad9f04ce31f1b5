#include "linalg/gemm.hpp"

#include <algorithm>

namespace qkmps::linalg {

namespace {

constexpr idx kBlock = 48;

/// Core kernels accumulate into a zeroed, pre-sized C so both the
/// allocating entry points and gemm_into share one arithmetic path.
void gemm_reference_core(Matrix& c, const Matrix& a, const Matrix& b) {
  const idx m = a.rows(), k = a.cols(), n = b.cols();
  gemm_accumulate(c.data(), n, a.data(), k, b.data(), n, m, k, n);
}

void gemm_blocked_core(Matrix& c, const Matrix& a, const Matrix& b,
                       bool parallel) {
  const idx m = a.rows(), k = a.cols(), n = b.cols();
  const idx mblocks = (m + kBlock - 1) / kBlock;
  // Team width honors the caller's KernelThreadScope budget: a kernel
  // running inside a serving worker lane (budget 1) stays serial instead
  // of multiplying lane parallelism by an OpenMP team.
  const int width = parallel ? kernel_team_width() : 1;
  const bool fork = parallel && width > 1;

#pragma omp parallel num_threads(width) if (fork)
  {
    detail::KernelProbeGuard probe;
#pragma omp for schedule(static)
    for (idx bi = 0; bi < mblocks; ++bi) {
      const idx i0 = bi * kBlock;
      const idx i1 = std::min(i0 + kBlock, m);
      for (idx p0 = 0; p0 < k; p0 += kBlock) {
        const idx p1 = std::min(p0 + kBlock, k);
        for (idx j0 = 0; j0 < n; j0 += kBlock) {
          const idx j1 = std::min(j0 + kBlock, n);
          gemm_accumulate(c.row(i0) + j0, n, a.row(i0) + p0, k,
                          b.row(p0) + j0, n, i1 - i0, p1 - p0, j1 - j0);
        }
      }
    }
  }
}

}  // namespace

void gemm_accumulate(cplx* c, idx ldc, const cplx* a, idx lda,
                     const cplx* b, idx ldb, idx m, idx k, idx n) {
  for (idx i = 0; i < m; ++i) {
    cplx* ci = c + i * ldc;
    const cplx* ai = a + i * lda;
    for (idx p = 0; p < k; ++p) {
      const cplx aip = ai[p];
      const cplx* bp = b + p * ldb;
      for (idx j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

Matrix gemm_reference(const Matrix& a, const Matrix& b) {
  QKMPS_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  gemm_reference_core(c, a, b);
  return c;
}

Matrix gemm_blocked(const Matrix& a, const Matrix& b, bool parallel) {
  QKMPS_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  gemm_blocked_core(c, a, b, parallel);
  return c;
}

void gemm_into(Matrix& c, const Matrix& a, const Matrix& b,
               ExecPolicy policy) {
  QKMPS_CHECK(a.cols() == b.rows());
  QKMPS_CHECK_MSG(c.data() != a.data() && c.data() != b.data(),
                  "gemm_into output must not alias an operand");
  c.resize(a.rows(), b.cols());
  if (policy == ExecPolicy::Reference) {
    gemm_reference_core(c, a, b);
    return;
  }
  const bool parallel = a.rows() * b.cols() >= kParallelGemmThreshold;
  gemm_blocked_core(c, a, b, parallel);
}

Matrix gemm(const Matrix& a, const Matrix& b, ExecPolicy policy) {
  if (policy == ExecPolicy::Reference) return gemm_reference(a, b);
  const bool parallel = a.rows() * b.cols() >= kParallelGemmThreshold;
  return gemm_blocked(a, b, parallel);
}

Matrix gemv(const Matrix& a, const Matrix& x) {
  QKMPS_CHECK(x.cols() == 1 && a.cols() == x.rows());
  Matrix y(a.rows(), 1);
  for (idx i = 0; i < a.rows(); ++i) {
    cplx acc = 0.0;
    const cplx* ai = a.row(i);
    for (idx j = 0; j < a.cols(); ++j) acc += ai[j] * x(j, 0);
    y(i, 0) = acc;
  }
  return y;
}

}  // namespace qkmps::linalg

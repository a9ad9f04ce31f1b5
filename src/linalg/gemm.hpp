#pragma once

#include "linalg/matrix.hpp"
#include "linalg/policy.hpp"

namespace qkmps::linalg {

/// C = A * B. Dispatches on `policy`:
///  - Reference: straightforward i-k-j loop (cache-friendly for row-major,
///    serial) — the low-overhead path.
///  - Accelerated: tiled kernel, OpenMP-parallel over row blocks once the
///    output is large enough (kParallelGemmThreshold).
Matrix gemm(const Matrix& a, const Matrix& b, ExecPolicy policy);

/// C = A * B into a caller-owned output (resized in place, so repeated
/// calls on a persistent C reuse its heap block — the batched kernel
/// layer's no-churn path). C must not alias A or B. Arithmetic is
/// identical to gemm(): the two entry points are bitwise-interchangeable.
void gemm_into(Matrix& c, const Matrix& a, const Matrix& b, ExecPolicy policy);

/// C += A * B on raw row-major storage: A is m x k, B is k x n, C is
/// m x n, and consecutive rows sit lda/ldb/ldc entries apart. Each entry
/// of C adds its k terms in ascending order. This is the one loop that
/// gemm_reference and every tile of gemm_blocked run; it is exposed for
/// callers whose operands are not Matrix objects (the MPS zipper reads
/// site tensors in place).
void gemm_accumulate(cplx* c, idx ldc, const cplx* a, idx lda,
                     const cplx* b, idx ldb, idx m, idx k, idx n);

/// y = A * x for a dense vector stored as an n x 1 Matrix column; serial.
Matrix gemv(const Matrix& a, const Matrix& x);

/// Kernels exposed for tests/ablation benches.
Matrix gemm_reference(const Matrix& a, const Matrix& b);
Matrix gemm_blocked(const Matrix& a, const Matrix& b, bool parallel);

}  // namespace qkmps::linalg

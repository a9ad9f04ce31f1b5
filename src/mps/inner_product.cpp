#include "mps/inner_product.hpp"

#include <algorithm>
#include <utility>

#include "linalg/gemm.hpp"
#include "util/error.hpp"

namespace qkmps::mps {

namespace {

/// Per-thread zipper scratch. Every buffer keeps the largest capacity it
/// has seen (Matrix::resize reuses its heap block), so a warm thread runs
/// a whole contraction without touching the heap.
struct ZipperWorkspace {
  linalg::Matrix env;      ///< E  (chi_a x chi_b) entering the site
  linalg::Matrix next;     ///< E' (chi_a' x chi_b') leaving it
  linalg::Matrix t;        ///< T = E B, read back as T2 ((ia s) x jb')
  linalg::Matrix a_adj;    ///< A^H, the bra site conjugate-transposed
  linalg::Matrix b_right;  ///< B staged for gemm_into (parallel case only)
};

/// Only an Accelerated product with kParallelGemmThreshold output entries
/// forks the row-parallel blocked gemm; every other product is the serial
/// gemm_accumulate loop, called here without gemm_into's OpenMP region.
/// Both add each entry's terms in the same order, so this never changes a
/// bit.
bool parallel_product(linalg::ExecPolicy policy, idx rows, idx cols) {
  return policy == linalg::ExecPolicy::Accelerated &&
         rows * cols >= linalg::kParallelGemmThreshold;
}

}  // namespace

cplx inner_product(const Mps& a, const Mps& b, linalg::ExecPolicy policy) {
  QKMPS_CHECK(a.num_sites() == b.num_sites());
  const idx m = a.num_sites();
  thread_local ZipperWorkspace ws;

  // E starts as the trivial 1x1 environment.
  ws.env.resize(1, 1);
  ws.env(0, 0) = 1.0;

  for (idx i = 0; i < m; ++i) {
    const SiteTensor& sa = a.site(i);
    const SiteTensor& sb = b.site(i);
    QKMPS_CHECK(sa.left == ws.env.rows() && sb.left == ws.env.cols());
    const idx la = sa.left, ra = sa.right, lb = sb.left, rb = sb.right;

    // T[ia, (s jb')] = sum_jb E[ia, jb] B[jb, (s jb')]; the ket site's
    // storage is already B as a row-major lb x (2 rb) matrix.
    if (parallel_product(policy, la, 2 * rb)) {
      ws.b_right.resize_for_overwrite(lb, 2 * rb);
      std::copy(sb.a.begin(), sb.a.end(), ws.b_right.data());
      linalg::gemm_into(ws.t, ws.env, ws.b_right, policy);
    } else {
      ws.t.resize(la, 2 * rb);
      linalg::gemm_accumulate(ws.t.data(), 2 * rb, ws.env.data(), lb,
                              sb.a.data(), 2 * rb, la, lb, 2 * rb);
    }

    // E'[ia', jb'] = sum_{(ia s)} A^H[ia', (ia s)] T2[(ia s), jb'], with
    // T2 = T reinterpreted as (2 la) x rb — free in row-major.
    ws.t.shrink_to(2 * la, rb);
    ws.a_adj.resize_for_overwrite(ra, 2 * la);
    const cplx* a_site = sa.a.data();
    for (idx p = 0; p < 2 * la; ++p)
      for (idx q = 0; q < ra; ++q) ws.a_adj(q, p) = std::conj(a_site[p * ra + q]);
    if (parallel_product(policy, ra, rb)) {
      linalg::gemm_into(ws.next, ws.a_adj, ws.t, policy);
    } else {
      ws.next.resize(ra, rb);
      linalg::gemm_accumulate(ws.next.data(), rb, ws.a_adj.data(), 2 * la,
                              ws.t.data(), rb, ra, 2 * la, rb);
    }
    std::swap(ws.env, ws.next);
  }

  QKMPS_CHECK(ws.env.rows() == 1 && ws.env.cols() == 1);
  return ws.env(0, 0);
}

double overlap_squared(const Mps& a, const Mps& b, linalg::ExecPolicy policy) {
  const cplx ip = inner_product(a, b, policy);
  return ip.real() * ip.real() + ip.imag() * ip.imag();
}

}  // namespace qkmps::mps

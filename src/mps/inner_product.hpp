#pragma once

#include "linalg/policy.hpp"
#include "mps/mps.hpp"

namespace qkmps::mps {

/// <a|b> via the zipper contraction of Fig. 2: sweep left to right keeping
/// an environment matrix E (chi_a x chi_b); per site, T = E B (the ket
/// site as a chi_b x 2 chi_b' matrix) and E' = A^H T2 (T reshaped to
/// 2 chi_a x chi_b') extend E by one column of the ladder.
/// Time O(m chi^3), memory O(chi^2) — the kernel whose CPU/GPU crossover
/// Fig. 5b studies.
///
/// Both products are linalg::gemm_accumulate, the loop under both gemm
/// kernels, called on the ket site in place and on a staged A^H; only an
/// Accelerated product with kParallelGemmThreshold output entries goes
/// through gemm_into for the row-parallel blocked kernel. Every entry
/// sums over the contracted index in gemm's order, so values are
/// bitwise-identical under both policies. E, T, E' and the staged
/// operands live in a thread_local workspace that keeps its largest
/// shape, so a warm thread never allocates; concurrent calls on
/// different threads share nothing.
cplx inner_product(const Mps& a, const Mps& b,
                   linalg::ExecPolicy policy = linalg::ExecPolicy::Reference);

/// Kernel entry K = |<a|b>|^2 (Eq. 1).
double overlap_squared(const Mps& a, const Mps& b,
                       linalg::ExecPolicy policy = linalg::ExecPolicy::Reference);

}  // namespace qkmps::mps

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "circuit/ansatz.hpp"
#include "circuit/statevector.hpp"
#include "linalg/gemm.hpp"
#include "mps/gate_application.hpp"
#include "mps/inner_product.hpp"
#include "mps/simulator.hpp"
#include "test_helpers.hpp"

namespace qkmps::mps {
namespace {

struct StatePair {
  Mps mps;
  circuit::Statevector sv;
  StatePair(idx m, std::uint64_t seed, idx d = 2)
      : mps(m), sv(m) {
    Rng rng(seed);
    const circuit::AnsatzParams p{.num_features = m, .layers = 2, .distance = d,
                                  .gamma = 0.8};
    const circuit::Circuit c =
        circuit::feature_map_circuit(p, qkmps::testing::random_features(m, rng));
    MpsSimulator sim;
    mps = sim.simulate(c).state;
    sv.apply(c);
  }
};

TEST(InnerProduct, SelfOverlapIsOne) {
  const StatePair a(6, 1);
  const cplx ip = inner_product(a.mps, a.mps);
  EXPECT_NEAR(ip.real(), 1.0, 1e-10);
  EXPECT_NEAR(ip.imag(), 0.0, 1e-10);
}

TEST(InnerProduct, MatchesStatevector) {
  const StatePair a(7, 2), b(7, 3);
  const cplx expect = a.sv.inner_product(b.sv);
  const cplx got = inner_product(a.mps, b.mps);
  EXPECT_NEAR(std::abs(expect - got), 0.0, 1e-8);
}

TEST(InnerProduct, ConjugateSymmetry) {
  const StatePair a(5, 4), b(5, 5);
  const cplx ab = inner_product(a.mps, b.mps);
  const cplx ba = inner_product(b.mps, a.mps);
  EXPECT_NEAR(std::abs(ab - std::conj(ba)), 0.0, 1e-12);
}

TEST(InnerProduct, OverlapSquaredIsAbsSquare) {
  const StatePair a(5, 6), b(5, 7);
  const cplx ip = inner_product(a.mps, b.mps);
  EXPECT_NEAR(overlap_squared(a.mps, b.mps), std::norm(ip), 1e-14);
}

TEST(InnerProduct, OrthogonalProductStates) {
  Mps zero(3);
  Mps one(3);
  // |111>.
  for (idx q = 0; q < 3; ++q)
    apply_single_qubit_gate(one, circuit::make_x(q).matrix(), q);
  EXPECT_NEAR(std::abs(inner_product(zero, one)), 0.0, 1e-15);
}

TEST(InnerProduct, PoliciesAgree) {
  const StatePair a(6, 8), b(6, 9);
  const cplx r = inner_product(a.mps, b.mps, linalg::ExecPolicy::Reference);
  const cplx acc = inner_product(a.mps, b.mps, linalg::ExecPolicy::Accelerated);
  EXPECT_NEAR(std::abs(r - acc), 0.0, 1e-12);
}

TEST(InnerProduct, MismatchedSitesThrow) {
  Mps a(3), b(4);
  EXPECT_THROW(inner_product(a, b), Error);
}

// ---------------------------------------------------------------------------
// Bitwise oracle: the zipper as two allocating gemm calls per site, with
// A^H built by adjoint(). The workspace zipper runs gemm's own loop on the
// same operands, read in place or staged, so the two must agree bit for
// bit under both policies.

cplx gemm_zipper(const Mps& a, const Mps& b, linalg::ExecPolicy policy) {
  QKMPS_CHECK(a.num_sites() == b.num_sites());
  linalg::Matrix env(1, 1);
  env(0, 0) = 1.0;
  for (idx i = 0; i < a.num_sites(); ++i) {
    const SiteTensor& sa = a.site(i);
    const SiteTensor& sb = b.site(i);
    QKMPS_CHECK(sa.left == env.rows() && sb.left == env.cols());
    const linalg::Matrix t = linalg::gemm(env, sb.as_right_matrix(), policy);
    linalg::Matrix t2(sa.left * 2, sb.right);
    std::copy(t.data(), t.data() + t.size(), t2.data());
    env = linalg::gemm(sa.as_left_matrix().adjoint(), t2, policy);
  }
  QKMPS_CHECK(env.rows() == 1 && env.cols() == 1);
  return env(0, 0);
}

bool same_bits(cplx x, cplx y) { return std::memcmp(&x, &y, sizeof(cplx)) == 0; }

/// Every ordered pair, under both policies, against the oracle.
void expect_oracle_bits(const std::vector<Mps>& states) {
  for (const Mps& a : states)
    for (const Mps& b : states)
      for (const auto policy : {linalg::ExecPolicy::Reference,
                                linalg::ExecPolicy::Accelerated}) {
        const cplx want = gemm_zipper(a, b, policy);
        const cplx got = inner_product(a, b, policy);
        EXPECT_TRUE(same_bits(got, want))
            << "policy=" << linalg::to_string(policy) << " got " << got
            << " want " << want;
      }
}

Mps simulate(const circuit::AnsatzParams& p, std::uint64_t seed,
             idx max_bond = 0) {
  Rng rng(seed);
  SimulatorConfig cfg;
  cfg.truncation.max_bond = max_bond;
  return MpsSimulator(cfg)
      .simulate(circuit::feature_map_circuit(
          p, qkmps::testing::random_features(p.num_features, rng)))
      .state;
}

/// An MPS with the given virtual bonds (bonds.size() == sites - 1) and iid
/// normal entries: contraction shapes a simulation would take long to reach.
Mps random_mps(const std::vector<idx>& bonds, std::uint64_t seed) {
  Rng rng(seed);
  Mps s(static_cast<idx>(bonds.size()) + 1);
  for (idx i = 0; i < s.num_sites(); ++i) {
    const idx l = i == 0 ? 1 : bonds[static_cast<std::size_t>(i - 1)];
    const idx r = i + 1 == s.num_sites() ? 1 : bonds[static_cast<std::size_t>(i)];
    SiteTensor t(l, r);
    for (cplx& v : t.a) v = rng.normal_cplx();
    s.site(i) = std::move(t);
  }
  return s;
}

TEST(InnerProductOracle, ProductStatesAndSingleSite) {
  Rng rng(11);
  for (const idx m : {idx{1}, idx{5}}) {
    std::vector<Mps> states = {Mps(m), Mps::plus_state(m)};
    for (int k = 0; k < 2; ++k) {
      std::vector<std::array<cplx, 2>> amps(static_cast<std::size_t>(m));
      for (auto& a : amps) a = {rng.normal_cplx(), rng.normal_cplx()};
      states.push_back(Mps::product_state(amps));
    }
    expect_oracle_bits(states);
  }
}

TEST(InnerProductOracle, TrainWideAnsatz) {
  // The benchmark's wide workload: m = 165, d = 1, chi ~ 2.
  const circuit::AnsatzParams p{.num_features = 165, .layers = 2,
                                .distance = 1, .gamma = 0.1};
  expect_oracle_bits({simulate(p, 1), simulate(p, 2), simulate(p, 3)});
}

TEST(InnerProductOracle, DifferentBraAndKetBondProfiles) {
  const circuit::AnsatzParams d1{.num_features = 10, .layers = 2,
                                 .distance = 1, .gamma = 0.8};
  const circuit::AnsatzParams d3{.num_features = 10, .layers = 2,
                                 .distance = 3, .gamma = 0.8};
  const Mps truncated = simulate(d3, 7, /*max_bond=*/3);
  const Mps full = simulate(d3, 7);
  ASSERT_NE(truncated.bonds(), full.bonds());
  expect_oracle_bits({simulate(d1, 5), full, truncated});
}

TEST(InnerProductOracle, DeepStateCrossesParallelThreshold) {
  // chi = 64 puts both products of the middle sites at or above
  // kParallelGemmThreshold, so Accelerated takes the blocked kernel there;
  // the ramps and the 40-wide ket mix parallel and serial products.
  const std::vector<idx> bra = {2, 4, 8, 16, 32, 64, 64, 64, 32, 16, 8, 4, 2};
  const std::vector<idx> ket = {2, 4, 8, 16, 32, 40, 64, 40, 32, 16, 8, 4, 2};
  ASSERT_GE(64 * 2 * 64, linalg::kParallelGemmThreshold);
  ASSERT_LT(40 * 64, linalg::kParallelGemmThreshold);
  expect_oracle_bits({random_mps(bra, 21), random_mps(ket, 22)});
}

TEST(InnerProductOracle, MismatchedBondsThrow) {
  // Same length, incompatible bond at site 1: the environment cannot be
  // contracted and must be rejected, not read out of bounds.
  const Mps a = random_mps({2, 2}, 31);
  Mps b = random_mps({2, 2}, 32);
  SiteTensor wrong(3, 2);
  b.site(1) = wrong;
  EXPECT_THROW(inner_product(a, b), Error);
  EXPECT_THROW(inner_product(b, a, linalg::ExecPolicy::Accelerated), Error);
  // A throw leaves the workspace usable.
  EXPECT_TRUE(same_bits(inner_product(a, a), gemm_zipper(a, a,
                                                         linalg::ExecPolicy::Reference)));
}

TEST(InnerProduct, KernelEntryInZeroOneRange) {
  // |<a|b>|^2 of normalized states is a valid kernel entry in [0, 1].
  for (std::uint64_t s = 0; s < 6; ++s) {
    const StatePair a(5, 100 + s), b(5, 200 + s);
    const double k = overlap_squared(a.mps, b.mps);
    EXPECT_GE(k, 0.0);
    EXPECT_LE(k, 1.0 + 1e-12);
  }
}

}  // namespace
}  // namespace qkmps::mps

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "kernel/distributed_gram.hpp"
#include "test_helpers.hpp"

namespace qkmps::kernel {
namespace {

RealMatrix random_scaled_data(idx n, idx m, std::uint64_t seed) {
  Rng rng(seed);
  RealMatrix x(n, m);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < m; ++j) x(i, j) = rng.uniform(0.05, 1.95);
  return x;
}

QuantumKernelConfig cfg4() {
  QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = 4, .layers = 2, .distance = 1, .gamma = 0.7};
  return cfg;
}

class RankCount : public ::testing::TestWithParam<int> {};

TEST_P(RankCount, RoundRobinMatchesSequential) {
  const int ranks = GetParam();
  const RealMatrix x = random_scaled_data(13, 4, 100 + static_cast<std::uint64_t>(ranks));
  const RealMatrix expect = gram_matrix(cfg4(), x);
  const RealMatrix got = distributed_gram_matrix(
      cfg4(), x, ranks, DistributionStrategy::RoundRobin);
  EXPECT_LT(max_abs_diff(got, expect), 1e-12) << "ranks=" << ranks;
}

TEST_P(RankCount, NoMessagingMatchesSequential) {
  const int ranks = GetParam();
  const RealMatrix x = random_scaled_data(11, 4, 200 + static_cast<std::uint64_t>(ranks));
  const RealMatrix expect = gram_matrix(cfg4(), x);
  const RealMatrix got = distributed_gram_matrix(
      cfg4(), x, ranks, DistributionStrategy::NoMessaging);
  EXPECT_LT(max_abs_diff(got, expect), 1e-12) << "ranks=" << ranks;
}

TEST_P(RankCount, CrossKernelMatchesSequential) {
  const int ranks = GetParam();
  const RealMatrix xtest = random_scaled_data(7, 4, 300 + static_cast<std::uint64_t>(ranks));
  const RealMatrix xtrain = random_scaled_data(9, 4, 400 + static_cast<std::uint64_t>(ranks));
  const RealMatrix expect = cross_kernel(cfg4(), xtest, xtrain);
  const RealMatrix got = distributed_cross_kernel(cfg4(), xtest, xtrain, ranks);
  EXPECT_LT(max_abs_diff(got, expect), 1e-12) << "ranks=" << ranks;
}

/// Truncating config: discarded weight and chi averages are non-trivial.
QuantumKernelConfig truncating_cfg() {
  QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = 6, .layers = 2, .distance = 2, .gamma = 0.9};
  cfg.sim.truncation.max_bond = 3;
  return cfg;
}

void expect_relative(double got, double want, const char* what) {
  EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want)) << what;
}

void expect_stats_match(const GramStats& got, const GramStats& want) {
  EXPECT_EQ(got.circuits_simulated, want.circuits_simulated);
  EXPECT_EQ(got.inner_products, want.inner_products);
  expect_relative(got.avg_max_bond, want.avg_max_bond, "avg_max_bond");
  expect_relative(got.avg_mps_bytes, want.avg_mps_bytes, "avg_mps_bytes");
  expect_relative(got.total_discarded_weight, want.total_discarded_weight,
                  "total_discarded_weight");
}

TEST_P(RankCount, GramStatsMatchSequential) {
  const int ranks = GetParam();
  const RealMatrix x = random_scaled_data(11, 6, 1000 + static_cast<std::uint64_t>(ranks));
  GramStats seq, dist;
  gram_matrix(truncating_cfg(), x, &seq);
  ASSERT_GT(seq.total_discarded_weight, 0.0);
  distributed_gram_matrix(truncating_cfg(), x, ranks,
                          DistributionStrategy::RoundRobin, &dist);
  expect_stats_match(dist, seq);
}

TEST_P(RankCount, CrossStatsMatchSequential) {
  // The sequential cross kernel simulates test then train states; both
  // batches count towards its averages, as they do across ranks.
  const int ranks = GetParam();
  const RealMatrix xtest = random_scaled_data(5, 6, 1100 + static_cast<std::uint64_t>(ranks));
  const RealMatrix xtrain = random_scaled_data(8, 6, 1200 + static_cast<std::uint64_t>(ranks));
  GramStats seq, dist;
  cross_kernel(truncating_cfg(), xtest, xtrain, &seq);
  ASSERT_EQ(seq.circuits_simulated, 13);
  distributed_cross_kernel(truncating_cfg(), xtest, xtrain, ranks, &dist);
  expect_stats_match(dist, seq);
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankCount, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(DistributedGram, StatsMergeWeightsAveragesByCircuits) {
  GramStats a, b;
  a.circuits_simulated = 1;
  a.avg_max_bond = 2.0;
  a.avg_mps_bytes = 100.0;
  a.total_discarded_weight = 1e-3;
  a.phases.add("simulation", 1.0);
  b.circuits_simulated = 3;
  b.inner_products = 4;
  b.avg_max_bond = 6.0;
  b.avg_mps_bytes = 300.0;
  b.total_discarded_weight = 2e-3;
  b.phases.add("simulation", 0.5);
  GramStats empty;
  empty.merge(b);
  EXPECT_EQ(empty.avg_max_bond, 6.0);  // merging into nothing copies exactly
  a.merge(b);
  EXPECT_EQ(a.circuits_simulated, 4);
  EXPECT_EQ(a.inner_products, 4);
  EXPECT_DOUBLE_EQ(a.avg_max_bond, 5.0);
  EXPECT_DOUBLE_EQ(a.avg_mps_bytes, 250.0);
  EXPECT_DOUBLE_EQ(a.total_discarded_weight, 3e-3);
  EXPECT_DOUBLE_EQ(a.phases.total("simulation"), 1.5);
}

TEST(DistributedGram, NoMessagingKeepsChiAndDiscardedWeight) {
  const RealMatrix x = random_scaled_data(9, 6, 1300);
  GramStats stats;
  distributed_gram_matrix(truncating_cfg(), x, 3,
                          DistributionStrategy::NoMessaging, &stats);
  EXPECT_GE(stats.avg_max_bond, 2.0);
  EXPECT_GT(stats.avg_mps_bytes, 0.0);
  EXPECT_GT(stats.total_discarded_weight, 0.0);
}

TEST(DistributedGram, StatsAreIdenticalRunToRun) {
  // Ranks finish in any order; their stats are folded in rank order, so
  // the floating-point fields repeat exactly, not just to rounding.
  const RealMatrix x = random_scaled_data(10, 6, 1400);
  const RealMatrix xtest = random_scaled_data(6, 6, 1401);
  const auto run = [&]() {
    std::vector<GramStats> s(3);
    distributed_gram_matrix(truncating_cfg(), x, 4,
                            DistributionStrategy::RoundRobin, &s[0]);
    distributed_gram_matrix(truncating_cfg(), x, 4,
                            DistributionStrategy::NoMessaging, &s[1]);
    distributed_cross_kernel(truncating_cfg(), xtest, x, 4, &s[2]);
    return s;
  };
  const std::vector<GramStats> first = run();
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<GramStats> again = run();
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(again[i].avg_max_bond, first[i].avg_max_bond) << i;
      EXPECT_EQ(again[i].avg_mps_bytes, first[i].avg_mps_bytes) << i;
      EXPECT_EQ(again[i].total_discarded_weight,
                first[i].total_discarded_weight) << i;
    }
  }
}

TEST(DistributedGram, RoundRobinSimulatesEachCircuitOnce) {
  // The round-robin signature property (Fig. 4b): total circuit
  // simulations equal the number of data points, regardless of rank count.
  const RealMatrix x = random_scaled_data(12, 4, 500);
  GramStats stats;
  distributed_gram_matrix(cfg4(), x, 4, DistributionStrategy::RoundRobin, &stats);
  EXPECT_EQ(stats.circuits_simulated, 12);
  EXPECT_GT(stats.phases.total("communication"), 0.0);
}

TEST(DistributedGram, NoMessagingDuplicatesSimulations) {
  // The no-messaging signature (Fig. 4a): off-diagonal tiles re-simulate
  // their row and column states, so the total exceeds the point count.
  const RealMatrix x = random_scaled_data(12, 4, 600);
  GramStats stats;
  distributed_gram_matrix(cfg4(), x, 4, DistributionStrategy::NoMessaging, &stats);
  EXPECT_GT(stats.circuits_simulated, 12);
  EXPECT_DOUBLE_EQ(stats.phases.total("communication"), 0.0);
}

TEST(DistributedGram, InnerProductCountMatchesSymmetricHalving) {
  const idx n = 10;
  const RealMatrix x = random_scaled_data(n, 4, 700);
  GramStats stats;
  distributed_gram_matrix(cfg4(), x, 3, DistributionStrategy::RoundRobin, &stats);
  EXPECT_EQ(stats.inner_products, n * (n - 1) / 2);
}

TEST(DistributedGram, MoreRanksThanPoints) {
  const RealMatrix x = random_scaled_data(3, 4, 800);
  const RealMatrix expect = gram_matrix(cfg4(), x);
  const RealMatrix got =
      distributed_gram_matrix(cfg4(), x, 6, DistributionStrategy::RoundRobin);
  EXPECT_LT(max_abs_diff(got, expect), 1e-12);
}

TEST(DistributedGram, ResultIsSymmetric) {
  const RealMatrix x = random_scaled_data(9, 4, 900);
  for (auto strategy : {DistributionStrategy::RoundRobin,
                        DistributionStrategy::NoMessaging}) {
    const RealMatrix k = distributed_gram_matrix(cfg4(), x, 3, strategy);
    EXPECT_EQ(symmetry_defect(k), 0.0);
  }
}

}  // namespace
}  // namespace qkmps::kernel

// Tests for the L2S latency model: distribution helpers, expectations,
// quadrature, and the estimator's protocol semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "latency/l2s_model.hpp"
#include "latency/quadrature.hpp"

namespace optchain::latency {
namespace {

// -------------------------------------------------------------- quadrature

TEST(QuadratureTest, PolynomialExact) {
  // Simpson is exact for cubics.
  const double integral =
      integrate_simpson([](double x) { return x * x * x; }, 0.0, 2.0, 4);
  EXPECT_NEAR(integral, 4.0, 1e-12);
}

TEST(QuadratureTest, EmptyInterval) {
  EXPECT_DOUBLE_EQ(integrate_simpson([](double) { return 1.0; }, 1.0, 1.0),
                   0.0);
  EXPECT_DOUBLE_EQ(integrate_simpson([](double) { return 1.0; }, 2.0, 1.0),
                   0.0);
}

TEST(QuadratureTest, ExponentialTail) {
  // ∫₀^∞ e^(-t) dt = 1.
  const double integral =
      integrate_decaying([](double t) { return std::exp(-t); }, 1.0);
  EXPECT_NEAR(integral, 1.0, 1e-6);
}

TEST(QuadratureTest, OddSubintervalCountRoundsUp) {
  const double integral =
      integrate_simpson([](double x) { return x; }, 0.0, 1.0, 3);
  EXPECT_NEAR(integral, 0.5, 1e-12);
}

// -------------------------------------------------------------- two-phase

TEST(TwoPhaseTest, CdfIsMonotoneFromZeroToOne) {
  const ShardTiming timing{0.2, 1.5};
  EXPECT_DOUBLE_EQ(two_phase_cdf(timing, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(two_phase_cdf(timing, -1.0), 0.0);
  double prev = 0.0;
  for (double t = 0.1; t < 60.0; t += 0.5) {
    const double cur = two_phase_cdf(timing, t);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
  EXPECT_NEAR(two_phase_cdf(timing, 200.0), 1.0, 1e-9);
}

TEST(TwoPhaseTest, EqualRatesUseErlangBranch) {
  const ShardTiming timing{1.0, 1.0};
  // Erlang-2, rate 1: F(t) = 1 - e^-t (1 + t).
  for (double t : {0.5, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(two_phase_cdf(timing, t),
                1.0 - std::exp(-t) * (1.0 + t), 1e-9);
  }
}

TEST(TwoPhaseTest, PdfIntegratesToOne) {
  const ShardTiming timing{0.3, 2.0};
  const double total = integrate_decaying(
      [&](double t) { return two_phase_pdf(timing, t); }, 2.3, 30.0, 2048);
  EXPECT_NEAR(total, 1.0, 1e-4);
}

TEST(TwoPhaseTest, PdfMatchesCdfDerivative) {
  const ShardTiming timing{0.4, 1.1};
  const double h = 1e-5;
  for (double t : {0.5, 1.0, 3.0}) {
    const double numeric =
        (two_phase_cdf(timing, t + h) - two_phase_cdf(timing, t - h)) /
        (2 * h);
    EXPECT_NEAR(two_phase_pdf(timing, t), numeric, 1e-5);
  }
}

TEST(TwoPhaseTest, MeanByQuadratureMatchesClosedForm) {
  const ShardTiming timing{0.25, 1.75};
  // E[T] = ∫ (1 - F(t)) dt.
  const double mean = integrate_decaying(
      [&](double t) { return 1.0 - two_phase_cdf(timing, t); }, 2.0, 30.0,
      2048);
  EXPECT_NEAR(mean, expected_two_phase(timing), 1e-6);
}

// -------------------------------------------------------------- E[max]

TEST(ExpectedMaxTest, EmptySetIsZero) {
  EXPECT_DOUBLE_EQ(expected_max_two_phase({}), 0.0);
}

TEST(ExpectedMaxTest, SingletonEqualsMean) {
  const ShardTiming timing{0.2, 1.0};
  const std::vector<ShardTiming> one{timing};
  EXPECT_NEAR(expected_max_two_phase(one), 1.2, 1e-9);
}

TEST(ExpectedMaxTest, MaxAtLeastEveryComponent) {
  const std::vector<ShardTiming> set{{0.1, 0.5}, {0.2, 3.0}, {0.1, 1.0}};
  const double max_mean = expected_max_two_phase(set);
  for (const auto& timing : set) {
    EXPECT_GE(max_mean, expected_two_phase(timing) - 1e-6);
  }
  // And at most the sum of means.
  double sum = 0.0;
  for (const auto& timing : set) sum += expected_two_phase(timing);
  EXPECT_LE(max_mean, sum);
}

TEST(ExpectedMaxTest, IdenticalShardsGrowWithCount) {
  const ShardTiming timing{0.1, 1.0};
  const double one = expected_max_two_phase(std::vector<ShardTiming>{timing});
  const double two =
      expected_max_two_phase(std::vector<ShardTiming>{timing, timing});
  const double four = expected_max_two_phase(
      std::vector<ShardTiming>{timing, timing, timing, timing});
  EXPECT_GT(two, one);
  EXPECT_GT(four, two);
}

TEST(ExpectedMaxTest, OrderInvariant) {
  const std::vector<ShardTiming> a{{0.1, 0.5}, {0.3, 2.0}};
  const std::vector<ShardTiming> b{{0.3, 2.0}, {0.1, 0.5}};
  EXPECT_NEAR(expected_max_two_phase(a), expected_max_two_phase(b), 1e-9);
}

// -------------------------------------------------------------- estimator

TEST(L2sEstimatorTest, SameShardSkipsProofPhase) {
  const std::vector<ShardTiming> timings{{0.1, 1.0}, {0.1, 5.0}};
  L2sEstimator estimator;
  // All inputs in shard 0, candidate 0: just one commit pass.
  const std::vector<std::uint32_t> inputs{0};
  EXPECT_NEAR(estimator.score(timings, inputs, 0), 1.1, 1e-9);
  // Candidate 1 is cross: proof from shard 0 plus commit at shard 1.
  const double cross = estimator.score(timings, inputs, 1);
  EXPECT_NEAR(cross, 1.1 + 5.1, 1e-6);
}

TEST(L2sEstimatorTest, CoinbaseUsesCandidateOnly) {
  const std::vector<ShardTiming> timings{{0.1, 1.0}, {0.1, 2.0}};
  L2sEstimator estimator;
  EXPECT_NEAR(estimator.score(timings, {}, 0), 1.1, 1e-9);
  EXPECT_NEAR(estimator.score(timings, {}, 1), 2.1, 1e-9);
}

TEST(L2sEstimatorTest, BusierShardScoresWorse) {
  const std::vector<ShardTiming> timings{{0.1, 1.0}, {0.1, 10.0}};
  L2sEstimator estimator;
  const std::vector<std::uint32_t> inputs{0, 1};  // cross either way
  EXPECT_LT(estimator.score(timings, inputs, 0),
            estimator.score(timings, inputs, 1));
}

TEST(L2sEstimatorTest, MonotoneInQueueBacklog) {
  // Growing mean_verify (deeper queue) must raise the score.
  L2sEstimator estimator;
  double prev = 0.0;
  for (double verify = 1.0; verify < 20.0; verify += 2.0) {
    const std::vector<ShardTiming> timings{{0.1, verify}};
    const double score = estimator.score(timings, {}, 0);
    EXPECT_GT(score, prev);
    prev = score;
  }
}

TEST(L2sEstimatorTest, RelativeScoresDifferFromScoreByOneConstant) {
  // score() is the oracle: it evaluates the paper's E(j) in full, proof-phase
  // quadrature included. relative_scores() may drop only a part shared by
  // every candidate, and nothing at all when the inputs are empty or sit in
  // one shard.
  Rng rng(41);
  std::vector<double> relative;
  for (const L2sMode mode :
       {L2sMode::kProofPlusCommit, L2sMode::kPaperSelfConvolution}) {
    const L2sEstimator estimator({mode});
    for (int trial = 0; trial < 300; ++trial) {
      const auto k = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
      std::vector<ShardTiming> timings(k);
      for (auto& timing : timings) {
        timing.mean_comm = rng.uniform(0.01, 0.5);
        // Every fourth shard takes the Erlang-2 (equal-rate) branch.
        timing.mean_verify = rng.below(4) == 0 ? timing.mean_comm
                                               : rng.uniform(0.1, 20.0);
      }
      // 0–5 distinct input shards, as ShardAssignment::input_shards yields.
      std::vector<std::uint32_t> inputs(k);
      std::iota(inputs.begin(), inputs.end(), 0u);
      std::shuffle(inputs.begin(), inputs.end(), rng);
      inputs.resize(std::min<std::size_t>(
          k, static_cast<std::size_t>(rng.uniform_int(0, 5))));

      estimator.relative_scores(timings, inputs, relative);
      ASSERT_EQ(relative.size(), k);
      const double shared = estimator.score(timings, inputs, 0) - relative[0];
      if (inputs.size() <= 1) {
        EXPECT_EQ(shared, 0.0) << "trial " << trial;
      } else {
        EXPECT_GT(shared, 0.0) << "trial " << trial;
      }
      for (std::uint32_t j = 1; j < k; ++j) {
        const double full = estimator.score(timings, inputs, j);
        if (inputs.size() <= 1) {
          EXPECT_EQ(full, relative[j]) << "trial " << trial << " j " << j;
        } else {
          EXPECT_NEAR(full - relative[j], shared, 1e-12 * full)
              << "trial " << trial << " j " << j;
        }
      }
    }
  }
}

TEST(L2sEstimatorTest, PaperSelfConvolutionMode) {
  const std::vector<ShardTiming> timings{{0.1, 1.0}, {0.1, 2.0}};
  const std::vector<std::uint32_t> inputs{0};
  L2sEstimator paper({L2sMode::kPaperSelfConvolution});
  // Cross placement at shard 1: E = 2 × E[proof gathering from shard 0].
  EXPECT_NEAR(paper.score(timings, inputs, 1), 2.0 * 1.1, 1e-6);
  // Same-shard behavior unchanged.
  EXPECT_NEAR(paper.score(timings, inputs, 0), 1.1, 1e-9);
}

TEST(L2sEstimatorTest, NonNegativeScores) {
  const std::vector<ShardTiming> timings{{1e-12, 1e-12}, {0.1, 1.0}};
  L2sEstimator estimator;
  const std::vector<std::uint32_t> inputs{0, 1};
  for (std::uint32_t j = 0; j < 2; ++j) {
    EXPECT_GE(estimator.score(timings, inputs, j), 0.0);
  }
}

// ------------------------------------------------ Monte-Carlo validation

/// Empirically samples the protocol's latency (draw l_c + l_v per shard,
/// take the max over input shards, add the commit phase) and compares the
/// mean against the quadrature-based estimator.
double monte_carlo_cross_latency(const std::vector<ShardTiming>& timings,
                                 const std::vector<std::uint32_t>& inputs,
                                 std::uint32_t candidate, int samples,
                                 std::uint64_t seed) {
  Rng rng(seed);
  double total = 0.0;
  for (int s = 0; s < samples; ++s) {
    double proof_phase = 0.0;
    for (const std::uint32_t shard : inputs) {
      const double t = rng.exponential(1.0 / timings[shard].mean_comm) +
                       rng.exponential(1.0 / timings[shard].mean_verify);
      proof_phase = std::max(proof_phase, t);
    }
    const double commit_phase =
        rng.exponential(1.0 / timings[candidate].mean_comm) +
        rng.exponential(1.0 / timings[candidate].mean_verify);
    total += proof_phase + commit_phase;
  }
  return total / samples;
}

TEST(L2sMonteCarloTest, QuadratureMatchesSimulation) {
  const std::vector<ShardTiming> timings{
      {0.12, 1.4}, {0.25, 3.3}, {0.08, 0.7}, {0.2, 2.0}};
  const std::vector<std::uint32_t> inputs{0, 1, 2};
  L2sEstimator estimator;
  for (std::uint32_t candidate : {1u, 3u}) {
    const double analytic = estimator.score(timings, inputs, candidate);
    const double empirical =
        monte_carlo_cross_latency(timings, inputs, candidate, 200000, 99);
    EXPECT_NEAR(analytic, empirical, 0.02 * analytic)
        << "candidate " << candidate;
  }
}

TEST(L2sMonteCarloTest, ExpectedMaxMatchesSimulation) {
  const std::vector<ShardTiming> set{{0.1, 0.9}, {0.3, 2.1}, {0.15, 1.2}};
  Rng rng(7);
  double total = 0.0;
  constexpr int kSamples = 200000;
  for (int s = 0; s < kSamples; ++s) {
    double worst = 0.0;
    for (const auto& timing : set) {
      worst = std::max(worst, rng.exponential(1.0 / timing.mean_comm) +
                                  rng.exponential(1.0 / timing.mean_verify));
    }
    total += worst;
  }
  const double empirical = total / kSamples;
  const double analytic = expected_max_two_phase(set);
  EXPECT_NEAR(analytic, empirical, 0.02 * analytic);
}

// Property sweep: E(j) for a cross placement always exceeds the same-shard
// expectation at the same shard.
class L2sPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(L2sPropertyTest, CrossAlwaysCostsMoreThanSameShard) {
  const int seed = GetParam();
  std::vector<ShardTiming> timings;
  for (int i = 0; i < 4; ++i) {
    timings.push_back({0.05 + 0.05 * ((seed + i) % 5),
                       0.5 + 0.7 * ((seed * 3 + i) % 7)});
  }
  L2sEstimator estimator;
  const std::vector<std::uint32_t> inputs{0, 1};
  for (std::uint32_t j = 0; j < timings.size(); ++j) {
    const double cross = estimator.score(timings, inputs, j);
    const double same = expected_two_phase(timings[j]);
    EXPECT_GT(cross, same);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, L2sPropertyTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace optchain::latency

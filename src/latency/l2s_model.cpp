#include "latency/l2s_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "latency/quadrature.hpp"

namespace optchain::latency {
namespace {

/// Rates from mean times; clamped away from zero for numerical safety.
struct Rates {
  double lc;
  double lv;
};

Rates rates_of(const ShardTiming& timing) noexcept {
  constexpr double kMinMean = 1e-9;
  return {1.0 / std::max(timing.mean_comm, kMinMean),
          1.0 / std::max(timing.mean_verify, kMinMean)};
}

}  // namespace

double two_phase_cdf(const ShardTiming& timing, double t) noexcept {
  if (t <= 0.0) return 0.0;
  const auto [lc, lv] = rates_of(timing);
  const double diff = lv - lc;
  if (std::abs(diff) < 1e-9 * lv) {
    // Erlang-2 with rate λ: F(t) = 1 − e^{−λt}(1 + λt).
    const double lt = lc * t;
    return 1.0 - std::exp(-lt) * (1.0 + lt);
  }
  // Hypoexponential: F(t) = 1 − (λv·e^{−λc t} − λc·e^{−λv t}) / (λv − λc).
  return 1.0 - (lv * std::exp(-lc * t) - lc * std::exp(-lv * t)) / diff;
}

double two_phase_pdf(const ShardTiming& timing, double t) noexcept {
  if (t < 0.0) return 0.0;
  const auto [lc, lv] = rates_of(timing);
  const double diff = lv - lc;
  if (std::abs(diff) < 1e-9 * lv) {
    return lc * lc * t * std::exp(-lc * t);
  }
  return lc * lv / diff * (std::exp(-lc * t) - std::exp(-lv * t));
}

double expected_max_two_phase(std::span<const ShardTiming> timings) {
  if (timings.empty()) return 0.0;
  if (timings.size() == 1) return expected_two_phase(timings[0]);

  double max_mean = 0.0;
  for (const auto& timing : timings) {
    max_mean = std::max(max_mean, expected_two_phase(timing));
  }
  // E[max] = ∫ (1 − Π F_i(t)) dt; the integrand decays like the slowest
  // shard's tail, so scale the cutoff with the largest mean.
  const auto survivor = [&](double t) {
    double prod = 1.0;
    for (const auto& timing : timings) prod *= two_phase_cdf(timing, t);
    return 1.0 - prod;
  };
  return integrate_decaying(survivor, max_mean, 30.0, 512);
}

double L2sEstimator::score(std::span<const ShardTiming> timings,
                           std::span<const std::uint32_t> input_shards,
                           std::uint32_t candidate) const {
  OPTCHAIN_EXPECTS(candidate < timings.size());
  for (const std::uint32_t s : input_shards) {
    OPTCHAIN_EXPECTS(s < timings.size());
  }

  // Same-shard placement (or coinbase): one submission, no proof phase.
  const bool same_shard =
      input_shards.empty() ||
      std::all_of(input_shards.begin(), input_shards.end(),
                  [candidate](std::uint32_t s) { return s == candidate; });
  if (same_shard) return expected_two_phase(timings[candidate]);

  std::vector<ShardTiming> proof_set;
  proof_set.reserve(input_shards.size());
  for (const std::uint32_t s : input_shards) proof_set.push_back(timings[s]);
  const double proof_phase = expected_max_two_phase(proof_set);

  switch (config_.mode) {
    case L2sMode::kPaperSelfConvolution:
      return 2.0 * proof_phase;
    case L2sMode::kProofPlusCommit:
      break;
  }
  return proof_phase + expected_two_phase(timings[candidate]);
}

void L2sEstimator::relative_scores(std::span<const ShardTiming> timings,
                                   std::span<const std::uint32_t> input_shards,
                                   std::vector<double>& out) const {
  const std::size_t k = timings.size();
  out.resize(k);
  for (const std::uint32_t s : input_shards) OPTCHAIN_EXPECTS(s < k);

  if (input_shards.size() >= 2 &&
      config_.mode == L2sMode::kPaperSelfConvolution) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  if (input_shards.size() != 1) {
    for (std::uint32_t j = 0; j < k; ++j) {
      out[j] = expected_two_phase(timings[j]);
    }
    return;
  }

  // One input shard a: same-shard at a, a closed-form proof phase elsewhere.
  const std::uint32_t a = input_shards[0];
  const double proof_phase = expected_two_phase(timings[a]);
  for (std::uint32_t j = 0; j < k; ++j) {
    if (j == a) {
      out[j] = expected_two_phase(timings[j]);
    } else if (config_.mode == L2sMode::kPaperSelfConvolution) {
      out[j] = 2.0 * proof_phase;
    } else {
      out[j] = proof_phase + expected_two_phase(timings[j]);
    }
  }
}

}  // namespace optchain::latency

// Latency-to-Shard (L2S) model — paper §IV.C.
//
// The time for shard i to produce a proof-of-acceptance is modeled as the sum
// of two independent exponentials: communication l_c ~ Exp(λ_c⁽ⁱ⁾) and
// verification l_v ~ Exp(λ_v⁽ⁱ⁾) (a hypoexponential). The user requests
// proofs from all input shards simultaneously, so gathering them all takes
// the *maximum* of the per-shard times: F(t) = Π_i F⁽ⁱ⁾(t). The commit phase
// at the output shard adds one more hypoexponential.
//
// The L2S score E(j) of placing transaction u into shard j is the expected
// total confirmation time:
//     E(j) = E[ max_{i ∈ S_j} (l_c⁽ⁱ⁾ + l_v⁽ⁱ⁾) ] + E[ l_c⁽ʲ⁾ + l_v⁽ʲ⁾ ]
// with S_j the set of shards that must issue proofs (the input shards). A
// placement that makes u same-shard skips the proof phase entirely (§III.A:
// the user "only needs to submit the transaction to the shard and wait for
// confirmation").
//
// E[max] has no closed form for heterogeneous rates; we compute it as
// ∫₀^∞ (1 − Π_i F⁽ⁱ⁾(t)) dt by quadrature. The paper's Algorithm 1 writes the
// expectation as a self-convolution of the proof-gathering density; that
// reading (E = 2·E[max]) is available as L2sMode::kPaperSelfConvolution.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace optchain::latency {

/// Expected-time parameters of one shard, as observed by a client:
/// mean_comm = 1/λ_c (round-trip sampling), mean_verify = 1/λ_v (recent
/// consensus time scaled by queue backlog).
struct ShardTiming {
  double mean_comm = 0.1;
  double mean_verify = 1.0;
};

/// CDF of l_c + l_v (hypoexponential; Erlang-2 when the rates coincide).
double two_phase_cdf(const ShardTiming& timing, double t) noexcept;

/// Density of l_c + l_v.
double two_phase_pdf(const ShardTiming& timing, double t) noexcept;

/// E[l_c + l_v] — closed form.
inline double expected_two_phase(const ShardTiming& timing) noexcept {
  return timing.mean_comm + timing.mean_verify;
}

/// E[max over the given shards of (l_c + l_v)], by quadrature on the
/// complementary CDF. Empty input yields 0.
double expected_max_two_phase(std::span<const ShardTiming> timings);

enum class L2sMode : std::uint8_t {
  /// E(j) = E[max proof-gathering] + E[commit at j]  (protocol reading).
  kProofPlusCommit,
  /// E(j) = 2 · E[max proof-gathering]               (paper's literal Alg. 1 line 6).
  kPaperSelfConvolution,
};

struct L2sConfig {
  L2sMode mode = L2sMode::kProofPlusCommit;
};

/// Computes L2S scores for every candidate output shard of one transaction.
class L2sEstimator {
 public:
  explicit L2sEstimator(L2sConfig config = {}) : config_(config) {}

  /// `timings[i]` describes shard i; `input_shards` lists the distinct shards
  /// holding the transaction's inputs (empty for coinbase). Returns E(j) in
  /// seconds for the given candidate shard j.
  double score(std::span<const ShardTiming> timings,
               std::span<const std::uint32_t> input_shards,
               std::uint32_t candidate) const;

  /// E(j) for all k candidates minus the part every candidate shares, into
  /// a caller-reused buffer (assign semantics) — the placer's hot path.
  /// `input_shards` lists distinct shards, as for score(). Coinbase: E(j).
  /// Inputs in one shard a: E(j) exactly. Inputs in two or more shards: no
  /// candidate is same-shard, so the proof phase E[max] is a
  /// per-transaction constant and is dropped — E(j) − E[max]
  /// (kProofPlusCommit) or 0 (kPaperSelfConvolution). Differences between
  /// candidates, and hence the argmax of any T2S − w·E fitness, are those
  /// of score().
  void relative_scores(std::span<const ShardTiming> timings,
                       std::span<const std::uint32_t> input_shards,
                       std::vector<double>& out) const;

 private:
  L2sConfig config_;
};

}  // namespace optchain::latency

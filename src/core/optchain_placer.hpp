// OptChain transaction placement — paper Algorithm 1.
//
// For an arriving transaction u:
//   1. p'(u) = (1 − α) Σ_{v ∈ Nin(u)} p'(v)/|Nout(v)|   (T2sScorer)
//   2. p(u)[i] = p'(u)[i] / |S_i|
//   3. E(j)   = expected confirmation latency of placing u into shard j
//               (L2sEstimator; skipped when no timing data is available).
//               When u's inputs span two or more shards every candidate is
//               cross-shard and pays the same proof phase E[max]; that
//               constant cannot change the argmax and is not computed
//               (L2sEstimator::relative_scores).
//   4. place u into argmax_j ( p(u)[j] − l2s_weight · E(j) ). Without
//      timing data, a cap or churn, only shards in p'(u)'s sparse support
//      can score above 0, so the argmax scans the support and falls back to
//      the least-loaded shard when nothing scores above 0 (the dense
//      tie-break's answer); the timed, capped and churned paths scan all k
//      shards.
//   5. p'(u)[S(u)] += α
//
// The paper's "T2S-based" baseline (Tables I-II) is this placer with
// l2s_weight = 0 and a Greedy-style capacity cap (ε = 0.1); full OptChain
// (§V) uses l2s_weight = 0.01 and no cap — temporal balance comes from the
// L2S term instead.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "core/t2s_scorer.hpp"
#include "graph/dag.hpp"
#include "latency/l2s_model.hpp"
#include "placement/placer.hpp"

namespace optchain::core {

struct OptChainConfig {
  T2sConfig t2s;
  latency::L2sConfig l2s;
  /// Weight of the L2S term in the temporal fitness (paper: 0.01). Ignored
  /// when a request carries no timing data.
  double l2s_weight = 0.01;
  /// Optional capacity cap (1 + ε)·⌊n/k⌋, used by the T2S-based variant.
  /// Disabled when expected_txs == 0.
  std::uint64_t expected_txs = 0;
  double epsilon = 0.1;
};

class OptChainPlacer final : public placement::Placer {
 public:
  /// `dag` must outlive the placer and receive each transaction (via
  /// TanDag::add_node / workload::TanBuilder) *before* choose() is called
  /// for it. `label` customizes name() so the T2S-based variant can be
  /// reported separately.
  OptChainPlacer(const graph::TanDag& dag, OptChainConfig config = {},
                 std::string_view label = "OptChain",
                 std::function<std::uint32_t(tx::TxIndex)> declared_outputs =
                     nullptr);

  placement::ShardId choose(const placement::PlacementRequest& request,
                            const placement::ShardAssignment& assignment)
      override;

  void notify_placed(const placement::PlacementRequest& request,
                     placement::ShardId shard) override;

  /// Pre-sizes the T2S score store for the expected stream length.
  void reserve(std::uint64_t expected_txs) override {
    scorer_.reserve(expected_txs);
  }

  std::string_view name() const noexcept override { return label_; }

  const T2sScorer& scorer() const noexcept { return scorer_; }

  /// Temporal fitness scores computed by the last choose() call (debugging /
  /// example output): p(u)[j] − l2s_weight · E(j) up to one per-transaction
  /// constant. When timing data was given and u's inputs span two or more
  /// shards, every entry is higher than the full fitness by l2s_weight ·
  /// E[max proof gathering] (twice that in kPaperSelfConvolution mode);
  /// otherwise the constant is zero. Differences between shards are exact.
  std::span<const double> last_scores() const noexcept { return last_scores_; }

 private:
  /// Steps 3-4 over the scores already in last_scores_: L2S subtraction
  /// (when timing data exists) and the tie-breaking argmax. `support` is the
  /// pre-commit p'(u) the scores were normalized from (sorted by shard);
  /// the untimed, uncapped, all-active argmax scans only its entries.
  placement::ShardId select(const placement::PlacementRequest& request,
                            std::span<const ScoreEntry> support,
                            const placement::ShardAssignment& assignment);

  const graph::TanDag& dag_;
  OptChainConfig config_;
  std::string_view label_;
  T2sScorer scorer_;
  latency::L2sEstimator l2s_;
  std::vector<double> last_scores_;
  // Scratch reused across choose() calls (allocation-free steady state).
  std::vector<placement::ShardId> input_shards_scratch_;
  std::vector<double> l2s_scratch_;
};

}  // namespace optchain::core

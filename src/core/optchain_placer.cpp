#include "core/optchain_placer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace optchain::core {

void OptChainConfig::validate() const {
  const auto reject = [](const std::string& field, const std::string& rule,
                         double got) {
    throw std::invalid_argument("OptChainConfig: " + field + " must be " +
                                rule + " (got " + std::to_string(got) + ")");
  };
  const auto non_negative = [](double value) {
    return value >= 0.0 && std::isfinite(value);
  };
  if (!(t2s.alpha > 0.0 && t2s.alpha <= 1.0)) {
    reject("t2s.alpha", "in (0, 1]", t2s.alpha);
  }
  if (!non_negative(t2s.prune_threshold)) {
    reject("t2s.prune_threshold", "non-negative and finite",
           t2s.prune_threshold);
  }
  if (!non_negative(l2s_weight)) {
    reject("l2s_weight", "non-negative and finite", l2s_weight);
  }
  if (!non_negative(epsilon)) {
    reject("epsilon", "non-negative and finite", epsilon);
  }
}

namespace {

const OptChainConfig& validated(const OptChainConfig& config) {
  config.validate();
  return config;
}

}  // namespace

OptChainPlacer::OptChainPlacer(
    const graph::TanDag& dag, OptChainConfig config, std::string_view label,
    std::function<std::uint32_t(tx::TxIndex)> declared_outputs)
    : dag_(dag),
      config_(validated(config)),
      label_(label),
      scorer_(config_.t2s, std::move(declared_outputs)),
      l2s_(config_.l2s) {}

placement::ShardId OptChainPlacer::choose(
    const placement::PlacementRequest& request,
    const placement::ShardAssignment& assignment) {
  OPTCHAIN_EXPECTS(request.index < dag_.num_nodes());

  // Step 1-2: normalized T2S scores (all-zero for coinbase), computed into
  // the reused member buffer.
  scorer_.score(dag_, request.index, assignment, last_scores_);
  return select(request, scorer_.raw_vector(request.index), assignment);
}

placement::ShardId OptChainPlacer::select(
    const placement::PlacementRequest& request,
    std::span<const ScoreEntry> support,
    const placement::ShardAssignment& assignment) {
  const std::uint32_t k = assignment.k();
  const bool timed = !request.timings.empty() && config_.l2s_weight > 0.0;

  // Step 3: subtract the weighted L2S expectation when timing data exists —
  // relative to the proof phase all candidates share, which cannot move
  // the argmax (see L2sEstimator::relative_scores).
  if (timed) {
    OPTCHAIN_EXPECTS(request.timings.size() == k);
    assignment.input_shards(request.input_txs, input_shards_scratch_);
    l2s_.relative_scores(request.timings, input_shards_scratch_, l2s_scratch_);
    for (std::uint32_t j = 0; j < k; ++j) {
      last_scores_[j] -= config_.l2s_weight * l2s_scratch_[j];
    }
  }

  // Step 4: argmax of temporal fitness. Ties (typically all-zero coinbase
  // scores without timing data) go to the smaller shard, keeping startup
  // placement balanced; final tie on the lower shard id for determinism.
  if (config_.expected_txs == 0 && assignment.all_active()) {
    if (!timed) {
      // No timing data, cap or churn: every score is p'(u)[j] / |S_j|, so
      // each shard outside u's support scores exactly 0 and the argmax only
      // has to visit the support, in its ascending shard order. A support
      // shard can still score 0 (an empty shard); it ties with every shard
      // outside the support, so it is skipped. If nothing scores above 0,
      // all k shards tie and the tie-break picks the least-loaded one.
      placement::ShardId best = placement::kUnplaced;
      double best_score = 0.0;
      for (const ScoreEntry& entry : support) {
        const double score = last_scores_[entry.shard];
        if (score <= 0.0) continue;
        if (best == placement::kUnplaced || score > best_score ||
            (score == best_score &&
             assignment.size_of(entry.shard) < assignment.size_of(best))) {
          best = entry.shard;
          best_score = score;
        }
      }
      return best == placement::kUnplaced ? assignment.least_loaded() : best;
    }
    // Timing data, no capacity cap (full OptChain). First a flat max
    // reduction over the dense score vector — no size loads, no
    // data-dependent branches, so the compiler can vectorize it — then the
    // (smaller size, lower id) tie-break touches only the max-score shards
    // (usually one).
    double best_score = last_scores_[0];
    for (std::uint32_t j = 1; j < k; ++j) {
      best_score = std::max(best_score, last_scores_[j]);
    }
    placement::ShardId best = 0;
    std::uint64_t best_size = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t j = 0; j < k; ++j) {
      if (last_scores_[j] != best_score) continue;
      const std::uint64_t size = assignment.size_of(j);
      if (size < best_size) {
        best = j;
        best_size = size;
      }
    }
    return best;
  }

  // Capacity cap (1 + ε)·⌊n/k⌋ (T2S-based variant): full shards are
  // ineligible. Shard churn routes through here too — retired shards are
  // masked, the uncapped loops above being reserved for the all-active
  // common case.
  const std::uint64_t cap =
      config_.expected_txs == 0
          ? std::numeric_limits<std::uint64_t>::max()
          : static_cast<std::uint64_t>(
                (1.0 + config_.epsilon) *
                static_cast<double>(config_.expected_txs / k));
  placement::ShardId best = placement::kUnplaced;
  for (std::uint32_t j = 0; j < k; ++j) {
    if (!assignment.is_active(j)) continue;
    if (assignment.size_of(j) >= cap) continue;
    if (best == placement::kUnplaced ||
        last_scores_[j] > last_scores_[best] ||
        (last_scores_[j] == last_scores_[best] &&
         assignment.size_of(j) < assignment.size_of(best))) {
      best = j;
    }
  }
  return best == placement::kUnplaced ? assignment.least_loaded() : best;
}

void OptChainPlacer::notify_placed(const placement::PlacementRequest& request,
                                   placement::ShardId shard) {
  // Step 5: fix u's own mass into its shard.
  scorer_.commit(request.index, shard);
}

}  // namespace optchain::core

#include "core/t2s_scorer.hpp"

#include <bit>
#include <utility>

namespace optchain::core {

T2sScorer::T2sScorer(T2sConfig config,
                     std::function<std::uint32_t(tx::TxIndex)> declared_outputs)
    : config_(config), declared_outputs_(std::move(declared_outputs)) {
  OPTCHAIN_EXPECTS(config_.alpha > 0.0 && config_.alpha <= 1.0);
  OPTCHAIN_EXPECTS(config_.prune_threshold >= 0.0);
  if (config_.divisor == DivisorPolicy::kDeclaredOutputs) {
    OPTCHAIN_EXPECTS(declared_outputs_ != nullptr);
  }
}

void T2sScorer::gather(std::span<const tx::TxIndex> parents,
                       std::span<const double> divisors, std::uint32_t k,
                       ScoreScratch& scratch,
                       std::vector<ScoreEntry>& merged) const {
  OPTCHAIN_EXPECTS(parents.size() == divisors.size());
  merged.clear();
  const std::size_t words = (static_cast<std::size_t>(k) + 63) / 64;
  if (scratch.bins.size() < k) {
    scratch.bins.resize(k, 0.0);
    scratch.mask.resize(words, 0);
  }

  // Touch every parent's vector before the scatter reads any of them, so
  // their page lines load in parallel.
  for (const tx::TxIndex parent : parents) pool_.prefetch(parent);

  // Scatter: each weighted entry lands in its shard's bin, which starts at
  // +0.0 (+0.0 + w == w), so each bin folds its entries in parent push order.
  for (std::size_t i = 0; i < parents.size(); ++i) {
    const double divisor = divisors[i];
    OPTCHAIN_ASSERT(divisor >= 1.0);
    for (const ScoreEntry& entry : pool_.vector_of(parents[i])) {
      OPTCHAIN_ASSERT(entry.shard < k);
      scratch.bins[entry.shard] += entry.value / divisor;
      scratch.mask[entry.shard / 64] |= std::uint64_t{1} << (entry.shard % 64);
    }
  }

  // Emit the set bits in ascending shard order, damped by (1 − α), leaving
  // every bin and mask word zero for the next gather.
  const double scale = 1.0 - config_.alpha;
  double total = 0.0;
  for (std::size_t word = 0; word < words; ++word) {
    for (std::uint64_t bits = scratch.mask[word]; bits != 0; bits &= bits - 1) {
      const auto shard =
          static_cast<std::uint32_t>(word * 64 + std::countr_zero(bits));
      const double value = scratch.bins[shard] * scale;
      scratch.bins[shard] = 0.0;
      merged.push_back({shard, value});
      total += value;
    }
    scratch.mask[word] = 0;
  }

  // Prune negligible mass to bound per-node memory.
  if (config_.prune_threshold > 0.0 && total > 0.0) {
    const double cutoff = total * config_.prune_threshold;
    std::erase_if(merged,
                  [cutoff](const ScoreEntry& e) { return e.value < cutoff; });
  }
}

void T2sScorer::normalize(std::span<const ScoreEntry> merged,
                          const placement::ShardAssignment& assignment,
                          std::vector<double>& normalized) const {
  normalized.assign(assignment.k(), 0.0);
  for (const ScoreEntry& entry : merged) {
    const std::uint64_t shard_size = assignment.size_of(entry.shard);
    if (shard_size > 0) {
      normalized[entry.shard] =
          entry.value / static_cast<double>(shard_size);
    }
  }
}

void T2sScorer::score(const graph::TanDag& dag, tx::TxIndex u,
                      const placement::ShardAssignment& assignment,
                      std::vector<double>& normalized) {
  OPTCHAIN_EXPECTS(u == pool_.num_nodes());  // dense arrival order
  OPTCHAIN_EXPECTS(u < dag.num_nodes());

  const std::span<const graph::NodeId> parents = dag.inputs(u);
  divisors_.clear();
  for (const graph::NodeId v : parents) {
    divisors_.push_back(parent_divisor(v, dag.spender_count(v)));
  }
  gather(parents, divisors_, assignment.k(), scratch_, merged_);
  normalize(merged_, assignment, normalized);
  pool_.append_node(merged_);
}

void T2sScorer::commit(tx::TxIndex u, std::uint32_t shard) {
  pool_.add_to_last(u, shard, config_.alpha);
}

}  // namespace optchain::core

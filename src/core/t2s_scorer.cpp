#include "core/t2s_scorer.hpp"

#include <algorithm>
#include <cmath>

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

  // Sizing pass doubles as a prefetch pass: each parent's handle is touched
  // one iteration before its entries are read below, so the page lines are
  // (likely) warm by the time the merge loop dereferences them.
  std::size_t total_len = 0;
  for (std::size_t i = 0; i < parents.size(); ++i) {
    pool_.prefetch(parents[i]);
    total_len += pool_.vector_of(parents[i]).size();
  }
  if (total_len == 0) return;

  if (total_len > k) {
    // Dense scatter: with more gathered entries than shards, summing into
    // k epoch-tagged bins beats sorting the entry list — O(total + k') with
    // k' = touched shards, no comparison sort over total entries. Per-shard
    // partial sums accumulate in parent push order, matching the stable
    // order of the sparse branch.
    if (scratch.bin_epoch.size() < k) {
      scratch.bin_epoch.resize(k, 0);
      scratch.bins.resize(k, 0.0);
    }
    std::uint32_t generation = ++scratch.generation;
    if (generation == 0) {  // tag wrap: invalidate all bins once per 2^32
      std::fill(scratch.bin_epoch.begin(), scratch.bin_epoch.end(), 0u);
      generation = scratch.generation = 1;
    }
    scratch.touched.clear();
    for (std::size_t i = 0; i < parents.size(); ++i) {
      const double divisor = divisors[i];
      OPTCHAIN_ASSERT(divisor >= 1.0);
      for (const ScoreEntry& entry : pool_.vector_of(parents[i])) {
        const double weight = entry.value / divisor;
        OPTCHAIN_ASSERT(entry.shard < k);
        if (scratch.bin_epoch[entry.shard] == generation) {
          scratch.bins[entry.shard] += weight;
        } else {
          scratch.bin_epoch[entry.shard] = generation;
          scratch.bins[entry.shard] = weight;
          scratch.touched.push_back(entry.shard);
        }
      }
    }
    std::sort(scratch.touched.begin(), scratch.touched.end());
    for (const std::uint32_t shard : scratch.touched) {
      merged.push_back({shard, scratch.bins[shard]});
    }
  } else {
    // Sparse sort-merge: collect entries, sort by shard id, fold adjacent
    // runs. For total_len ≤ k the entry list is tiny and the sort is an
    // insertion sort in practice.
    scratch.accumulator.clear();
    for (std::size_t i = 0; i < parents.size(); ++i) {
      const double divisor = divisors[i];
      OPTCHAIN_ASSERT(divisor >= 1.0);
      for (const ScoreEntry& entry : pool_.vector_of(parents[i])) {
        scratch.accumulator.push_back({entry.shard, entry.value / divisor});
      }
    }
    std::sort(scratch.accumulator.begin(), scratch.accumulator.end(),
              [](const ScoreEntry& a, const ScoreEntry& b) {
                return a.shard < b.shard;
              });
    for (const ScoreEntry& entry : scratch.accumulator) {
      if (!merged.empty() && merged.back().shard == entry.shard) {
        merged.back().value += entry.value;
      } else {
        merged.push_back(entry);
      }
    }
  }

  // Shared tail: damp by (1 − α), then prune negligible mass to bound
  // per-node memory.
  const double scale = 1.0 - config_.alpha;
  double total = 0.0;
  for (ScoreEntry& entry : merged) {
    entry.value *= scale;
    total += entry.value;
  }
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

std::vector<std::vector<double>> recompute_all_scores_dense(
    const graph::TanDag& dag, const placement::ShardAssignment& assignment,
    const T2sConfig& config,
    const std::function<std::uint32_t(tx::TxIndex)>& declared_outputs) {
  const std::size_t n = dag.num_nodes();
  const std::uint32_t k = assignment.k();
  std::vector<std::vector<double>> scores(n, std::vector<double>(k, 0.0));
  // Replay arrival order with running spender counts, so divisors match what
  // the online scorer observed at each step.
  std::vector<std::uint32_t> running_spenders(n, 0);
  for (tx::TxIndex u = 0; u < n; ++u) {
    for (const graph::NodeId v : dag.inputs(u)) ++running_spenders[v];
    for (const graph::NodeId v : dag.inputs(u)) {
      const double divisor =
          config.divisor == DivisorPolicy::kCurrentSpenders
              ? static_cast<double>(running_spenders[v])
              : static_cast<double>(
                    std::max<std::uint32_t>(1, declared_outputs(v)));
      for (std::uint32_t i = 0; i < k; ++i) {
        scores[u][i] += (1.0 - config.alpha) * scores[v][i] / divisor;
      }
    }
    if (u < assignment.total()) {
      scores[u][assignment.shard_of(u)] += config.alpha;
    }
  }
  return scores;
}

}  // namespace optchain::core

#include "support/t2s_oracle.hpp"

#include <algorithm>

namespace optchain::core {

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

// Wallet-side placement: what the paper's "user-side software" deployment
// looks like (§I "Practicality", §III.C).
//
// A wallet holds a few UTXOs, samples per-shard round-trip times and
// verification-time estimates (queue depth x recent consensus time), and
// uses OptChain's temporal fitness to choose the shard for a new payment.
// The example prints the decision breakdown per shard: the placer's
// relative fitness and the full L2S estimate E(j).
//
//   $ ./examples/wallet_placement
#include <cstdio>

#include "api/placement_pipeline.hpp"
#include "core/optchain_placer.hpp"
#include "latency/l2s_model.hpp"
#include "workload/bitcoin_like_generator.hpp"

using namespace optchain;

int main() {
  constexpr std::uint32_t kShards = 4;

  // Bootstrap a small history so the wallet's inputs have TaN context.
  workload::BitcoinLikeGenerator generator;
  const std::vector<tx::Transaction> history = generator.generate(20000);

  api::PlacementPipeline pipeline = api::make_pipeline("OptChain", kShards);

  // What the wallet observes about each shard: its own sampled RTT and a
  // verification estimate derived from queue depth. Shard 2 is backlogged.
  const std::vector<latency::ShardTiming> observed = {
      {.mean_comm = 0.21, .mean_verify = 2.9},   // shard 0
      {.mean_comm = 0.25, .mean_verify = 3.1},   // shard 1
      {.mean_comm = 0.23, .mean_verify = 19.5},  // shard 2: deep queue
      {.mean_comm = 0.28, .mean_verify = 3.0},   // shard 3
  };

  for (const tx::Transaction& transaction : history) {
    pipeline.step(transaction, observed);
  }

  // The wallet now issues one more payment spending two recent outputs.
  // Find two spendable-looking recent transactions as inputs.
  const auto in_a = static_cast<tx::TxIndex>(history.size() - 2);
  const auto in_b = static_cast<tx::TxIndex>(history.size() - 17);
  tx::Transaction payment;
  payment.index = static_cast<tx::TxIndex>(history.size());
  payment.inputs = {{in_a, 0}, {in_b, 0}};
  payment.outputs = {{1000, 7}, {250, 8}};

  // What-if scoring: the pipeline registers the TaN node and asks the placer
  // without committing a decision.
  const placement::ShardId choice = pipeline.preview(payment, observed);
  const auto& assignment = pipeline.assignment();

  std::printf("wallet payment spending tx%u and tx%u\n", in_a, in_b);
  std::printf("input shards: tx%u -> shard %u, tx%u -> shard %u\n\n", in_a,
              assignment.shard_of(in_a), in_b, assignment.shard_of(in_b));

  // Decision breakdown (the temporal fitness of Algorithm 1, line 9).
  const auto& placer = dynamic_cast<const core::OptChainPlacer&>(
      pipeline.placer());
  latency::L2sEstimator l2s;
  const std::vector<placement::ShardId> input_shards =
      assignment.input_shards(payment.distinct_input_txs());
  // last_scores() is the temporal fitness T2S − w·E(j) up to a constant
  // shared by every shard: when the inputs span two or more shards, the
  // placer leaves out the proof phase all candidates pay alike.
  std::printf("shard  rel.fitness  E[latency](s)  note\n");
  std::printf("------------------------------------------------\n");
  for (std::uint32_t j = 0; j < kShards; ++j) {
    const double expected = l2s.score(observed, input_shards, j);
    std::printf("%-6u %+.6f    %6.2f        %s%s\n", j,
                placer.last_scores()[j], expected,
                j == choice ? "<- chosen" : "",
                j == 2 ? " (backlogged)" : "");
  }
  std::printf(
      "\nrel.fitness = T2S - w*E(j), shifted by one constant for all shards;"
      "\nonly its ranking matters. OptChain sends the payment to shard %u\n",
      choice);
  return 0;
}

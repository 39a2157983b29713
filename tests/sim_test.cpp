// Tests for the discrete-event simulator: event ordering, network/consensus
// models, shard block production, the engine's per-transaction containers,
// and full-run invariants (conservation, determinism, protocol semantics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <unordered_map>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "common/hash.hpp"
#include "placement/random_placer.hpp"
#include "sim/consensus.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/shard_node.hpp"
#include "sim/simulation.hpp"
#include "sim/tx_state.hpp"
#include "workload/bitcoin_like_generator.hpp"

namespace optchain::sim {
namespace {

// -------------------------------------------------------------- EventQueue

/// Records every dispatched event and its dispatch time.
struct RecordingHandler final : EventHandler {
  explicit RecordingHandler(EventQueue& queue) : queue(&queue) {}
  void on_event(const Event& event) override {
    events.push_back(event);
    times.push_back(queue->now());
  }
  EventQueue* queue;
  std::vector<Event> events;
  std::vector<double> times;
};

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue queue;
  RecordingHandler handler(queue);
  queue.schedule(3.0, Event::tx_issue(3));
  queue.schedule(1.0, Event::tx_issue(1));
  queue.schedule(2.0, Event::tx_issue(2));
  while (queue.run_one(handler)) {
  }
  ASSERT_EQ(handler.events.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(handler.events[i].tx, i + 1);
    EXPECT_DOUBLE_EQ(handler.times[i], static_cast<double>(i + 1));
  }
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueueTest, TieBreaksByContentKey) {
  // Simultaneous events order by content (rank, shard, tx, ...), not by
  // schedule order: the cross-engine determinism contract. Schedule in a
  // deliberately scrambled order and expect churn < sample < issues-by-tx <
  // shard-addressed-by-shard.
  EventQueue queue;
  RecordingHandler handler(queue);
  queue.schedule(1.0, Event::tx_issue(3));
  queue.schedule(1.0, Event::deliver(EventType::kTxDeliver, 5, 9));
  queue.schedule(1.0, Event::tx_issue(1));
  queue.schedule(1.0, Event::queue_sample());
  queue.schedule(1.0, Event::deliver(EventType::kTxDeliver, 2, 9));
  queue.schedule(1.0, Event::shard_change(0));
  while (queue.run_one(handler)) {
  }
  ASSERT_EQ(handler.events.size(), 6u);
  EXPECT_EQ(handler.events[0].type, EventType::kShardChange);
  EXPECT_EQ(handler.events[1].type, EventType::kQueueSample);
  EXPECT_EQ(handler.events[2].tx, 1u);
  EXPECT_EQ(handler.events[3].tx, 3u);
  EXPECT_EQ(handler.events[4].shard, 2u);
  EXPECT_EQ(handler.events[5].shard, 5u);
}

TEST(EventQueueTest, IdenticalSimultaneousEventsKeepScheduleOrder) {
  // The seq fallback only kicks in for byte-identical events (same time,
  // same content) — engine-local duplicates where either order is fine.
  EventQueue queue;
  RecordingHandler handler(queue);
  queue.schedule(1.0, Event::tx_issue(7));
  queue.schedule(1.0, Event::tx_issue(7));
  while (queue.run_one(handler)) {
  }
  ASSERT_EQ(handler.events.size(), 2u);
  EXPECT_EQ(handler.events[0].tx, 7u);
  EXPECT_EQ(handler.events[1].tx, 7u);
}

TEST(EventQueueTest, EventsMayScheduleEvents) {
  // A handler reacting to one event by scheduling another (the issue-chain /
  // block-round pattern).
  struct ChainingHandler final : EventHandler {
    explicit ChainingHandler(EventQueue& queue) : queue(&queue) {}
    void on_event(const Event& event) override {
      ++fired;
      if (event.tx == 0) queue->schedule_in(0.5, Event::tx_issue(1));
    }
    EventQueue* queue;
    int fired = 0;
  };
  EventQueue queue;
  ChainingHandler handler(queue);
  queue.schedule(1.0, Event::tx_issue(0));
  while (queue.run_one(handler)) {
  }
  EXPECT_EQ(handler.fired, 2);
  EXPECT_DOUBLE_EQ(queue.now(), 1.5);
}

TEST(EventQueueTest, RunUntilRespectsHorizon) {
  EventQueue queue;
  RecordingHandler handler(queue);
  queue.schedule(1.0, Event::tx_issue(1));
  queue.schedule(5.0, Event::tx_issue(2));
  EXPECT_EQ(queue.run_until(2.0, handler), 1u);
  EXPECT_EQ(handler.events.size(), 1u);
  EXPECT_EQ(queue.pending(), 1u);
}

TEST(EventQueueDeathTest, PastSchedulingRejected) {
  EventQueue queue;
  RecordingHandler handler(queue);
  queue.schedule(2.0, Event::tx_issue(0));
  queue.run_one(handler);
  EXPECT_DEATH(queue.schedule(1.0, Event::tx_issue(1)), "Precondition");
}

TEST(EventQueueTest, PodEventRoundTripsPayload) {
  EventQueue queue;
  RecordingHandler handler(queue);
  queue.schedule(1.0, Event::proof(/*tx=*/7, /*from_shard=*/3, true));
  queue.schedule(2.0, Event::round_complete(/*shard=*/5, /*view_change=*/true));
  while (queue.run_one(handler)) {
  }
  ASSERT_EQ(handler.events.size(), 2u);
  EXPECT_EQ(handler.events[0].type, EventType::kProof);
  EXPECT_EQ(handler.events[0].tx, 7u);
  EXPECT_EQ(handler.events[0].shard, 3u);
  EXPECT_EQ(handler.events[0].flag, 1u);
  EXPECT_EQ(handler.events[1].type, EventType::kViewChange);
  EXPECT_EQ(handler.events[1].shard, 5u);
}

// -------------------------------------------------------------- Network

TEST(NetworkModelTest, BaseLatencyFloor) {
  NetworkModel net;
  const Position a{0.0, 0.0};
  EXPECT_DOUBLE_EQ(net.propagation_delay(a, a), 0.100);
}

TEST(NetworkModelTest, DistanceIncreasesLatency) {
  NetworkModel net;
  const Position a{0.0, 0.0};
  const Position near{0.1, 0.0};
  const Position far{1.0, 1.0};
  EXPECT_LT(net.propagation_delay(a, near), net.propagation_delay(a, far));
  // Corner to corner: base + full distance term.
  EXPECT_NEAR(net.propagation_delay(a, far), 0.150, 1e-9);
}

TEST(NetworkModelTest, BandwidthDelaysLargeMessages) {
  NetworkModel net;
  const Position a{0.0, 0.0};
  // 1 MB at 20 Mbps = 0.4 s of serialization.
  EXPECT_NEAR(net.message_delay(a, a, 1'000'000) -
                  net.propagation_delay(a, a),
              0.4, 1e-9);
}

TEST(NetworkModelTest, TransferTimeLinear) {
  NetworkModel net;
  EXPECT_NEAR(net.transfer_time(2'000'000), 2 * net.transfer_time(1'000'000),
              1e-12);
}

// -------------------------------------------------------------- Consensus

TEST(ConsensusModelTest, DurationGrowsWithBlockFill) {
  NetworkModel net;
  Rng rng(1);
  ConsensusModel model({}, net, {0.5, 0.5}, rng);
  const double empty = model.round_duration(0);
  const double half = model.round_duration(1000);
  const double full = model.round_duration(2000);
  EXPECT_LT(empty, half);
  EXPECT_LT(half, full);
}

TEST(ConsensusModelTest, FullBlockInPaperBallpark) {
  // A full 1 MB block over a 400-validator committee should take seconds —
  // that is what bounds per-shard throughput to a few hundred tps, which is
  // the regime the paper's experiments live in.
  NetworkModel net;
  Rng rng(2);
  ConsensusModel model({}, net, {0.5, 0.5}, rng);
  const double full = model.round_duration(2000);
  EXPECT_GT(full, 1.0);
  EXPECT_LT(full, 10.0);
}

TEST(ConsensusModelTest, SmallerCommitteeFaster) {
  NetworkModel net;
  Rng rng(3);
  ConsensusConfig small_c;
  small_c.committee_size = 16;
  ConsensusConfig big_c;
  big_c.committee_size = 1024;
  ConsensusModel small_m(small_c, net, {0.5, 0.5}, rng);
  ConsensusModel big_m(big_c, net, {0.5, 0.5}, rng);
  EXPECT_LT(small_m.round_duration(2000), big_m.round_duration(2000));
}

// -------------------------------------------------------------- ShardNode

struct CommitLog {
  std::vector<std::pair<QueueItem, SimTime>> items;
};

/// Minimal dispatcher for standalone ShardNode tests: routes round events to
/// the node and kTxDeliver events into its mempool.
struct ShardRouter final : EventHandler {
  explicit ShardRouter(ShardNode& node) : node(&node) {}
  void on_event(const Event& event) override {
    if (node->route_round_event(event)) return;
    ASSERT_EQ(event.type, EventType::kTxDeliver);
    node->enqueue(QueueItem{event.tx, ItemKind::kSameShard});
  }
  ShardNode* node;
};

TEST(ShardNodeTest, ProcessesQueueInBlocks) {
  EventQueue events;
  NetworkModel net;
  Rng rng(4);
  ConsensusConfig consensus;
  consensus.txs_per_block = 2;  // tiny blocks to observe batching
  CommitLog log;
  ShardNode shard(0, {0.5, 0.5}, ConsensusModel(consensus, net, {0.5, 0.5}, rng),
                  events, [&](std::uint32_t, const QueueItem& item, SimTime t) {
                    log.items.emplace_back(item, t);
                  });
  ShardRouter router(shard);

  for (std::uint32_t i = 0; i < 5; ++i) {
    shard.enqueue(QueueItem{i, ItemKind::kSameShard});
  }
  while (events.run_one(router)) {
  }
  ASSERT_EQ(log.items.size(), 5u);
  // The first enqueue starts a round immediately with just item 0; the rest
  // batch into blocks of 2: {0}, {1,2}, {3,4}.
  EXPECT_EQ(shard.blocks_committed(), 3u);
  EXPECT_EQ(shard.queue_size(), 0u);
  // FIFO order preserved.
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(log.items[i].first.tx, i);
  }
  // Items within a block share a commit time; later blocks commit later.
  EXPECT_LT(log.items[0].second, log.items[1].second);
  EXPECT_DOUBLE_EQ(log.items[1].second, log.items[2].second);
  EXPECT_LT(log.items[2].second, log.items[3].second);
  EXPECT_DOUBLE_EQ(log.items[3].second, log.items[4].second);
}

TEST(ShardNodeTest, IdleUntilWorkArrives) {
  EventQueue events;
  NetworkModel net;
  Rng rng(5);
  CommitLog log;
  ShardNode shard(0, {0.5, 0.5}, ConsensusModel({}, net, {0.5, 0.5}, rng),
                  events, [&](std::uint32_t, const QueueItem& item, SimTime t) {
                    log.items.emplace_back(item, t);
                  });
  ShardRouter router(shard);
  EXPECT_TRUE(events.empty());
  events.schedule(10.0, Event::deliver(EventType::kTxDeliver, 0, 0));
  while (events.run_one(router)) {
  }
  ASSERT_EQ(log.items.size(), 1u);
  EXPECT_GT(log.items[0].second, 10.0);
}

TEST(ShardNodeTest, LastRoundDurationTracksBlockSize) {
  EventQueue events;
  NetworkModel net;
  Rng rng(6);
  ShardNode shard(0, {0.5, 0.5}, ConsensusModel({}, net, {0.5, 0.5}, rng),
                  events, [](std::uint32_t, const QueueItem&, SimTime) {});
  ShardRouter router(shard);
  const double initial = shard.last_round_duration();
  shard.enqueue(QueueItem{0, ItemKind::kSameShard});
  while (events.run_one(router)) {
  }
  // One item instead of a full 2000-tx block: the observed round is shorter.
  EXPECT_LT(shard.last_round_duration(), initial);
}

// ---------------------------------------------------------- OutpointLedger

/// `count` distinct keys whose home slot in a `slots`-slot ledger is `slot`.
std::vector<std::uint64_t> keys_homed_at(std::size_t slot, std::size_t slots,
                                         std::size_t count) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = 0; keys.size() < count; ++key) {
    if ((mix64(key) & (slots - 1)) == slot) keys.push_back(key);
  }
  return keys;
}

// A cluster that starts in the last slot wraps past the array end; erasing
// its head and then a middle member must shift the rest back without losing
// any of them (16 slots: the default size, no growth at this load).
TEST(OutpointLedgerTest, BackwardShiftAcrossTheArrayEnd) {
  OutpointLedger ledger;
  ASSERT_EQ(ledger.slot_count(), 16u);
  const std::vector<std::uint64_t> tail = keys_homed_at(15, 16, 4);
  const std::vector<std::uint64_t> head = keys_homed_at(0, 16, 2);
  // Probe runs: tail[0..3] fill slots 15, 0, 1, 2; head[0..1] land in 3, 4.
  std::vector<std::uint64_t> live;
  for (const auto& group : {tail, head}) {
    for (const std::uint64_t key : group) {
      ledger[key] = {OutpointState::kSpent, static_cast<std::uint32_t>(key)};
      live.push_back(key);
    }
  }
  ASSERT_EQ(ledger.slot_count(), 16u);
  const auto expect_live = [&] {
    EXPECT_EQ(ledger.size(), live.size());
    for (const std::uint64_t key : live) {
      const OutpointLedger::Entry* entry = ledger.find(key);
      ASSERT_NE(entry, nullptr) << "key " << key;
      EXPECT_EQ(entry->state, OutpointState::kSpent);
      EXPECT_EQ(entry->tx, static_cast<std::uint32_t>(key));
    }
  };
  for (const std::uint64_t victim : {tail[0], tail[2], head[0], tail[3]}) {
    EXPECT_TRUE(ledger.erase(victim));
    EXPECT_FALSE(ledger.erase(victim));
    EXPECT_EQ(ledger.find(victim), nullptr);
    std::erase(live, victim);
    expect_live();
  }
}

// A seeded random mix of find, insert-default and erase against a
// std::unordered_map oracle. The key pool is small, so the table stays a few
// dozen slots: clusters form, probe runs wrap, erases hit their middles, and
// the table grows from 16 slots as the live count climbs.
TEST(OutpointLedgerTest, MatchesUnorderedMapOracle) {
  std::mt19937_64 rng(20261017);
  std::vector<std::uint64_t> pool;
  for (int i = 0; i < 40; ++i) pool.push_back(rng());
  OutpointLedger ledger;
  std::unordered_map<std::uint64_t, OutpointLedger::Entry> oracle;
  std::size_t max_size = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = pool[rng() % pool.size()];
    const auto it = oracle.find(key);
    switch (rng() % 3) {
      case 0: {  // find
        const OutpointLedger::Entry* entry = ledger.find(key);
        ASSERT_EQ(entry != nullptr, it != oracle.end());
        if (entry != nullptr) {
          EXPECT_EQ(entry->state, it->second.state);
          EXPECT_EQ(entry->tx, it->second.tx);
        }
        break;
      }
      case 1: {  // insert-default, then overwrite
        OutpointLedger::Entry& entry = ledger[key];
        const OutpointLedger::Entry expected =
            it == oracle.end() ? OutpointLedger::Entry{} : it->second;
        EXPECT_EQ(entry.state, expected.state);
        EXPECT_EQ(entry.tx, expected.tx);
        const OutpointLedger::Entry next{
            rng() % 2 ? OutpointState::kSpent : OutpointState::kLocked,
            static_cast<std::uint32_t>(rng())};
        entry = next;
        oracle[key] = next;
        break;
      }
      default:  // erase
        EXPECT_EQ(ledger.erase(key), it != oracle.end());
        oracle.erase(key);
        break;
    }
    ASSERT_EQ(ledger.size(), oracle.size());
    max_size = std::max(max_size, ledger.size());
  }
  EXPECT_GT(ledger.slot_count(), 16u);  // grew
  EXPECT_GE(ledger.slot_count(), 2 * max_size);
  for (const std::uint64_t key : pool) {
    const OutpointLedger::Entry* entry = ledger.find(key);
    const auto it = oracle.find(key);
    ASSERT_EQ(entry != nullptr, it != oracle.end());
    if (entry != nullptr) {
      EXPECT_EQ(entry->tx, it->second.tx);
    }
  }
}

TEST(OutpointLedgerTest, ReserveAndClearKeepTheTable) {
  OutpointLedger ledger;
  ledger.reserve(100);
  const std::size_t slots = ledger.slot_count();
  EXPECT_EQ(slots, 256u);  // the next power of two at half load
  for (std::uint64_t key = 0; key < 100; ++key) ledger[key << 32];
  EXPECT_EQ(ledger.size(), 100u);
  EXPECT_EQ(ledger.slot_count(), slots);  // no rehash within the reservation
  ledger.clear();
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_EQ(ledger.slot_count(), slots);
  EXPECT_EQ(ledger.find(0), nullptr);
}

// ---------------------------------------------------------- InflightWindow

TEST(InflightWindowTest, ErasesInAnyOrder) {
  InflightWindow window;
  for (std::uint32_t i = 0; i < 10; ++i) {
    window.open(i).issue_time = static_cast<double>(i);
  }
  for (const std::uint32_t i : {5u, 2u, 0u, 9u}) window.erase(i);
  EXPECT_EQ(window.size(), 6u);
  for (std::uint32_t i = 0; i < 12; ++i) {
    const bool open = i == 1 || i == 3 || i == 4 || (i >= 6 && i <= 8);
    EXPECT_EQ(window.contains(i), open) << i;
    if (open) {
      EXPECT_EQ(window.at(i).issue_time, static_cast<double>(i));
    }
  }
  window.open(10).issue_time = 10.0;
  for (const std::uint32_t i : {7u, 1u, 10u, 4u, 8u, 3u, 6u}) window.erase(i);
  EXPECT_EQ(window.size(), 0u);
  EXPECT_FALSE(window.contains(10));
  window.open(11);
  EXPECT_TRUE(window.contains(11));
}

// One record held open while thousands of later indices open and settle:
// the ring doubles around it and the record keeps its contents. Indices
// that settle promptly never make the ring grow.
TEST(InflightWindowTest, LongLivedRecordSurvivesRingDoublings) {
  InflightWindow window;
  const std::size_t initial_span = window.span_capacity();
  for (std::uint32_t i = 0; i < 4 * initial_span; ++i) {
    window.open(i);
    window.erase(i);
  }
  EXPECT_EQ(window.span_capacity(), initial_span);

  const auto first = static_cast<std::uint32_t>(4 * initial_span);
  Inflight& held = window.open(first);
  held.issue_time = 42.0;
  held.inputs = {{7, 1}, {8, 2}};
  const auto last = first + static_cast<std::uint32_t>(8 * initial_span);
  for (std::uint32_t i = first + 1; i <= last; ++i) {
    window.open(i).issue_time = static_cast<double>(i);
    if (i - 1 > first) window.erase(i - 1);
  }
  EXPECT_GE(window.span_capacity(), 8 * initial_span + 1);
  EXPECT_EQ(window.size(), 2u);
  ASSERT_TRUE(window.contains(first));
  EXPECT_EQ(&window.at(first), &held);  // records never move
  EXPECT_EQ(held.issue_time, 42.0);
  EXPECT_EQ(held.inputs, (std::vector<tx::OutPoint>{{7, 1}, {8, 2}}));
  EXPECT_EQ(window.at(last).issue_time, static_cast<double>(last));
  window.erase(first);
  window.erase(last);
  EXPECT_EQ(window.size(), 0u);
}

TEST(InflightWindowTest, RecycledRecordStartsReset) {
  InflightWindow window;
  Inflight& used = window.open(0);
  used.issue_time = 1.5;
  used.inputs = {{3, 0}, {4, 1}};
  used.cross.remaining_locks = 3;
  used.cross.output_shard = 2;
  used.cross.rejected = true;
  used.cross.accepted_shards = {1, 2};
  used.releases_in_flight = 2;
  used.aborted = true;
  window.erase(0);

  Inflight& recycled = window.open(1);
  EXPECT_EQ(&recycled, &used);
  EXPECT_EQ(recycled.issue_time, 0.0);
  EXPECT_TRUE(recycled.inputs.empty());
  EXPECT_GE(recycled.inputs.capacity(), 2u);  // capacity kept for reuse
  EXPECT_EQ(recycled.cross.remaining_locks, 0u);
  EXPECT_EQ(recycled.cross.output_shard, 0u);
  EXPECT_FALSE(recycled.cross.rejected);
  EXPECT_TRUE(recycled.cross.accepted_shards.empty());
  EXPECT_EQ(recycled.releases_in_flight, 0u);
  EXPECT_FALSE(recycled.aborted);
}

TEST(InflightWindowDeathTest, MembershipIsChecked) {
  InflightWindow window;
  window.open(0);
  window.open(1);
  window.erase(0);
  EXPECT_DEATH(window.at(0), "Invariant");
  EXPECT_DEATH(window.erase(0), "Invariant");
  EXPECT_DEATH(window.at(2), "Invariant");
  EXPECT_DEATH(window.open(3), "Precondition");  // 2 is next
}

// -------------------------------------------------------------- Simulation

SimConfig small_config(std::uint32_t shards, double rate) {
  SimConfig config;
  config.num_shards = shards;
  config.tx_rate_tps = rate;
  config.consensus.txs_per_block = 100;
  config.consensus.block_bytes = 50'000;
  config.consensus.committee_size = 64;
  config.queue_sample_interval_s = 1.0;
  config.commit_window_s = 10.0;
  return config;
}

std::vector<tx::Transaction> small_stream(std::size_t n,
                                          std::uint64_t seed = 1) {
  workload::BitcoinLikeGenerator gen({}, seed);
  return gen.generate(n);
}

/// Fresh hash-placement pipeline for k shards.
api::PlacementPipeline random_pipeline(std::uint32_t k) {
  return api::PlacementPipeline(k,
                                std::make_unique<placement::RandomPlacer>());
}

TEST(SimulationTest, AllTransactionsCommitExactlyOnce) {
  const auto txs = small_stream(2000);
  Simulation sim(small_config(4, 500.0));
  auto pipeline = random_pipeline(4);
  const SimResult result = sim.run(txs, pipeline);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.committed_txs, txs.size());
  EXPECT_EQ(result.latencies.count(), txs.size());
  EXPECT_GT(result.throughput_tps, 0.0);
  EXPECT_GT(result.total_blocks, 0u);
}

TEST(SimulationTest, DeterministicForSameSeed) {
  const auto txs = small_stream(1500);
  SimResult a, b;
  {
    Simulation sim(small_config(4, 500.0));
    auto pipeline = random_pipeline(4);
    a = sim.run(txs, pipeline);
  }
  {
    Simulation sim(small_config(4, 500.0));
    auto pipeline = random_pipeline(4);
    b = sim.run(txs, pipeline);
  }
  EXPECT_DOUBLE_EQ(a.duration_s, b.duration_s);
  EXPECT_DOUBLE_EQ(a.avg_latency_s, b.avg_latency_s);
  EXPECT_EQ(a.cross_txs, b.cross_txs);
  EXPECT_EQ(a.total_events, b.total_events);
}

TEST(SimulationTest, DifferentSeedsChangeTopology) {
  const auto txs = small_stream(1000);
  SimConfig config_a = small_config(4, 500.0);
  SimConfig config_b = config_a;
  config_b.seed = 777;
  auto pipeline_a = random_pipeline(4);
  auto pipeline_b = random_pipeline(4);
  const SimResult a = Simulation(config_a).run(txs, pipeline_a);
  const SimResult b = Simulation(config_b).run(txs, pipeline_b);
  EXPECT_NE(a.avg_latency_s, b.avg_latency_s);
}

TEST(SimulationTest, LatencyAtLeastNetworkFloor) {
  const auto txs = small_stream(500);
  Simulation sim(small_config(4, 200.0));
  auto pipeline = random_pipeline(4);
  const SimResult result = sim.run(txs, pipeline);
  // No commit can beat one client->shard hop: > 100 ms.
  EXPECT_GT(result.latencies.quantile(0.0), 0.1);
}

TEST(SimulationTest, CrossFractionMatchesPlacementTheory) {
  // Random placement over k shards leaves related transactions together with
  // probability ~1/k per input; the measured cross fraction must be high.
  const auto txs = small_stream(3000);
  Simulation sim(small_config(8, 1000.0));
  auto pipeline = random_pipeline(8);
  const SimResult result = sim.run(txs, pipeline);
  EXPECT_GT(result.cross_fraction(), 0.6);
}

TEST(SimulationTest, OptChainReducesCrossAndLatency) {
  const auto txs = small_stream(3000);

  auto random = random_pipeline(8);
  const SimResult r_random =
      Simulation(small_config(8, 1000.0)).run(txs, random);

  auto optchain = api::make_pipeline("OptChain", 8);
  const SimResult r_opt =
      Simulation(small_config(8, 1000.0)).run(txs, optchain);

  EXPECT_LT(r_opt.cross_txs, r_random.cross_txs / 2);
  EXPECT_LT(r_opt.avg_latency_s, r_random.avg_latency_s);
}

TEST(SimulationTest, RapidChainModeAlsoCompletes) {
  const auto txs = small_stream(1500);
  SimConfig config = small_config(4, 500.0);
  config.protocol = ProtocolMode::kRapidChain;
  Simulation sim(config);
  auto pipeline = random_pipeline(4);
  const SimResult result = sim.run(txs, pipeline);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.committed_txs, txs.size());
}

TEST(SimulationTest, RapidChainFasterThanOmniLedgerOnCrossTxs) {
  // Yanking skips the client round trip, so under identical placement the
  // average latency cannot be (meaningfully) worse.
  const auto txs = small_stream(2000);
  SimConfig omni_config = small_config(4, 400.0);
  SimConfig rapid_config = omni_config;
  rapid_config.protocol = ProtocolMode::kRapidChain;
  auto pipeline_a = random_pipeline(4);
  auto pipeline_b = random_pipeline(4);
  const SimResult omni = Simulation(omni_config).run(txs, pipeline_a);
  const SimResult rapid = Simulation(rapid_config).run(txs, pipeline_b);
  EXPECT_LT(rapid.avg_latency_s, omni.avg_latency_s * 1.02);
}

TEST(SimulationTest, OverloadBacklogRaisesLatency) {
  // Same stream, same shards; 4x the arrival rate must raise avg latency.
  const auto txs = small_stream(3000);
  auto pipeline_slow = random_pipeline(2);
  auto pipeline_fast = random_pipeline(2);
  const SimResult slow =
      Simulation(small_config(2, 200.0)).run(txs, pipeline_slow);
  const SimResult fast =
      Simulation(small_config(2, 2000.0)).run(txs, pipeline_fast);
  EXPECT_GT(fast.avg_latency_s, slow.avg_latency_s);
}

TEST(SimulationTest, QueueTrackerSamples) {
  const auto txs = small_stream(2000);
  Simulation sim(small_config(4, 500.0));
  auto pipeline = random_pipeline(4);
  const SimResult result = sim.run(txs, pipeline);
  EXPECT_GT(result.queue_tracker.snapshots().size(), 2u);
  // Snapshot times are non-decreasing.
  double prev = -1.0;
  for (const auto& snap : result.queue_tracker.snapshots()) {
    EXPECT_GE(snap.time, prev);
    prev = snap.time;
    EXPECT_GE(snap.max_queue, snap.min_queue);
  }
}

TEST(SimulationTest, WindowCountsSumToTotal) {
  const auto txs = small_stream(2000);
  Simulation sim(small_config(4, 500.0));
  auto pipeline = random_pipeline(4);
  const SimResult result = sim.run(txs, pipeline);
  std::uint64_t sum = 0;
  for (const auto c : result.commits_per_window.counts()) sum += c;
  EXPECT_EQ(sum, txs.size());
}

TEST(SimulationTest, ShardSizesSumToTotal) {
  const auto txs = small_stream(1000);
  Simulation sim(small_config(4, 500.0));
  auto pipeline = random_pipeline(4);
  const SimResult result = sim.run(txs, pipeline);
  std::uint64_t sum = 0;
  for (const auto s : result.final_shard_sizes) sum += s;
  EXPECT_EQ(sum, txs.size());
}

// A zero interval would reschedule the queue sample at one instant forever;
// negative and NaN intervals would fail deep inside the event queue.
TEST(SimulationDeathTest, NonPositiveQueueSampleIntervalRejected) {
  for (const double interval :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    SimConfig config = small_config(2, 100.0);
    config.queue_sample_interval_s = interval;
    EXPECT_DEATH(Simulation{config}, "queue_sample_interval_s") << interval;
  }
}

TEST(SimulationTest, HorizonAbortReportsIncomplete) {
  const auto txs = small_stream(2000);
  SimConfig config = small_config(1, 100000.0);  // 1 shard, hopeless rate
  config.max_sim_time_s = 1.0;
  Simulation sim(config);
  auto pipeline = random_pipeline(1);
  const SimResult result = sim.run(txs, pipeline);
  EXPECT_FALSE(result.completed);
  EXPECT_LT(result.committed_txs, txs.size());
}

// Property sweep: conservation holds across shard counts and protocols.
struct SimCase {
  std::uint32_t shards;
  ProtocolMode protocol;
};

class SimConservationTest : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimConservationTest, EveryTxCommitsOnce) {
  const auto [shards, protocol] = GetParam();
  const auto txs = small_stream(1200, /*seed=*/shards);
  SimConfig config = small_config(shards, 600.0);
  config.protocol = protocol;
  Simulation sim(config);
  auto pipeline = random_pipeline(shards);
  const SimResult result = sim.run(txs, pipeline);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.committed_txs, txs.size());
  EXPECT_EQ(result.latencies.count(), txs.size());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimConservationTest,
    ::testing::Values(SimCase{1, ProtocolMode::kOmniLedger},
                      SimCase{2, ProtocolMode::kOmniLedger},
                      SimCase{4, ProtocolMode::kOmniLedger},
                      SimCase{16, ProtocolMode::kOmniLedger},
                      SimCase{4, ProtocolMode::kRapidChain},
                      SimCase{16, ProtocolMode::kRapidChain}),
    [](const ::testing::TestParamInfo<SimCase>& param_info) {
      return "k" + std::to_string(param_info.param.shards) +
             (param_info.param.protocol == ProtocolMode::kOmniLedger ? "_omni"
                                                               : "_rapid");
    });

}  // namespace
}  // namespace optchain::sim

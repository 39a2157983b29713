// One shard: a mempool queue plus a block-production loop driven by the
// consensus model ("each shard implements a queue (or mempool) to store
// incoming transactions that have not been processed yet", §V.A).
//
// Queue items are the three kinds of work the OmniLedger protocol creates:
// same-shard transactions, lock requests at input shards, and
// unlock-to-commit requests at output shards. Each consumes block space,
// which is exactly how cross-shard transactions tax throughput.
//
// The leader packs up to txs_per_block queued items into a block whenever it
// is not already running a round; the round's duration comes from the
// ConsensusModel. Round completion is scheduled as a typed kBlockCommit /
// kViewChange event carrying this shard's id; whoever dispatches the event
// queue (the Simulation, or a test harness) routes it back via
// complete_round(), which reports every item in the block through the commit
// callback (proof-of-acceptance for locks, final commit for the others).
// The in-flight block lives in a member buffer reused across rounds, so the
// steady-state block loop performs no heap allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "sim/consensus.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"

namespace optchain::sim {

/// Fault model for one shard's committee: a chronic slowdown factor (weak
/// hardware, bad geography) and per-round leader faults that trigger a view
/// change (round takes an extra penalty). Clients observe both through the
/// shard's last_round_duration(), which is how OptChain's L2S term learns to
/// route around degraded shards.
struct ShardFaults {
  double slowdown = 1.0;           // multiplier on every round duration
  double leader_fault_rate = 0.0;  // P[view change] per round
  double view_change_penalty_s = 5.0;
  std::uint64_t seed = 0;
};

enum class ItemKind : std::uint8_t {
  kSameShard,  // single-pass transaction
  kLock,       // cross-TX input validation (proof-of-acceptance on commit)
  kCommit,     // cross-TX unlock-to-commit at the output shard
};

struct QueueItem {
  std::uint32_t tx = 0;
  ItemKind kind = ItemKind::kSameShard;
};

class ShardNode {
 public:
  /// Called once per item when the block containing it commits.
  using CommitCallback =
      std::function<void(std::uint32_t shard, const QueueItem&, SimTime)>;

  ShardNode(std::uint32_t id, Position leader_position, ConsensusModel model,
            EventQueue& events, CommitCallback on_commit,
            ShardFaults faults = {});

  ShardNode(const ShardNode&) = delete;
  ShardNode& operator=(const ShardNode&) = delete;

  /// Adds an item to the mempool (at the current event time) and starts a
  /// block round if the leader is idle.
  void enqueue(const QueueItem& item);

  /// Removes and returns every item still waiting in the mempool, in queue
  /// order (the in-flight block, if any, stays and commits normally). Shard
  /// churn uses this to hand a retired shard's backlog to its successor.
  std::vector<QueueItem> drain_queue() {
    std::vector<QueueItem> items(queue_.begin(), queue_.end());
    queue_.clear();
    return items;
  }

  /// Completes the round whose kBlockCommit / kViewChange event just fired:
  /// commits the in-flight block and starts the next round if work is queued.
  /// The event-queue dispatcher must route round events here (see
  /// route_round_event for the common case).
  void complete_round();

  /// True if `event` is a round-completion event addressed to this shard;
  /// routes it via complete_round(). Convenience for dispatch switches.
  bool route_round_event(const Event& event) {
    if ((event.type != EventType::kBlockCommit &&
         event.type != EventType::kViewChange) ||
        event.shard != id_) {
      return false;
    }
    complete_round();
    return true;
  }

  std::uint32_t id() const noexcept { return id_; }
  const Position& leader_position() const noexcept { return leader_position_; }
  std::size_t queue_size() const noexcept { return queue_.size(); }
  std::uint64_t blocks_committed() const noexcept { return blocks_committed_; }
  std::uint64_t items_committed() const noexcept { return items_committed_; }
  std::uint64_t view_changes() const noexcept { return view_changes_; }

  /// Duration of the most recent consensus round; before any block commits,
  /// the model's full-block estimate. Clients read this (plus queue_size) to
  /// form their L2S verification-time estimate.
  double last_round_duration() const noexcept { return last_round_duration_; }

  const ConsensusModel& consensus() const noexcept { return model_; }

 private:
  void try_start_round();

  std::uint32_t id_;
  Position leader_position_;
  ConsensusModel model_;
  EventQueue* events_;
  CommitCallback on_commit_;
  ShardFaults faults_;
  Rng fault_rng_;

  std::deque<QueueItem> queue_;
  std::vector<QueueItem> round_block_;  // in-flight block, reused per round
  double round_duration_ = 0.0;         // duration of the in-flight round
  bool round_in_progress_ = false;
  std::uint64_t blocks_committed_ = 0;
  std::uint64_t items_committed_ = 0;
  std::uint64_t view_changes_ = 0;
  double last_round_duration_ = 0.0;
};

}  // namespace optchain::sim

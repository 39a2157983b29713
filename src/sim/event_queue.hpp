// Deterministic discrete-event core.
//
// Events are typed POD records in a flat binary heap keyed by
// (time, content, sequence): time ties break on the event's *content*
// (a per-type rank, then the payload fields), with the schedule-order
// sequence number only as the final fallback. No two distinct simultaneous
// protocol events share a full content key (shard, tx and type disambiguate
// every message class), so the order does not depend on when an event was
// scheduled. The content key once let a second engine merge per-shard
// queues into this exact order; it stays because the goldens
// (tests/golden_test.cpp) and the fingerprints
// (tests/sim_fingerprint_test.cpp) pin the event order it produces.
// Ordering itself is tested in tests/sim_test.cpp.
//
// The rank orders simultaneous events sensibly: scripted churn first (a
// membership change at time t precedes t's traffic), then re-partition
// ticks, then queue sampling, then client issues, then message/round events.
//
// One event may wait beside the heap instead of in it: the held slot
// (schedule_chained) is for a chain that keeps exactly one event pending and
// reschedules it from its own dispatch, the client's issue chain. Issues come
// every 1/rate seconds, ahead of thousands of pending protocol events, so in
// the heap each one would sift up to the root and be popped straight back
// out. The held event draws its sequence number from the same counter as
// schedule(), and run_one() dispatches it whenever it is earlier, in the same
// (time, content, sequence) order, than the heap's root, so the dispatch
// order is exactly what one heap would give. pending() and peak_pending()
// count it.
//
// Pops are bottom-up (Floyd): the hole left at the root walks down to a leaf
// along the smaller child, one comparison per level, and the heap's last
// entry then sifts up from that leaf. The order is strict and total
// (sequence numbers are unique), so the popped sequence does not depend on
// how the entries are arranged inside the heap.
//
// The queue stores *data*, not closures: a 10M-transaction run schedules
// tens of millions of events, and a std::function per event means a heap
// allocation (and an indirect call) per event. An Event is a small tagged
// union instead; the component that owns the queue dispatches on the tag
// (EventHandler::on_event, a switch in Simulation / tree-gossip) with zero
// per-event allocation in steady state.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/assert.hpp"

namespace optchain::sim {

using SimTime = double;  // seconds

/// Every kind of work the simulated system schedules. The payload fields are
/// interpreted per type; unused fields are zero.
enum class EventType : std::uint8_t {
  kTxIssue,       // client issues transaction `tx`
  kTxDeliver,     // same-shard transaction `tx` arrives at `shard`'s mempool
  kLockRequest,   // cross-TX lock request for `tx` arrives at input `shard`
  kProof,         // proof for `tx` from `shard`; flag = accepted
  kUnlockCommit,  // unlock-to-commit for `tx` arrives at output `shard`
  kUnlockAbort,   // unlock-to-abort for `tx` releases locks at `shard`
  kBlockCommit,   // `shard`'s consensus round completes
  kViewChange,    // like kBlockCommit, after a leader fault (view change)
  kQueueSample,   // periodic mempool-size sampling tick
  kGossipHop,     // tree-gossip message at `node`; flag = 0 down / 1 up
  kShardChange,   // scripted shard churn: `tx` = index into the churn plan
  kRepartition,   // periodic re-partition tick (see sim/repartition.hpp)
};

struct Event {
  EventType type = EventType::kTxIssue;
  std::uint8_t flag = 0;
  std::uint32_t shard = 0;  // shard id, or tree-gossip node id
  std::uint32_t tx = 0;     // transaction index

  static Event tx_issue(std::uint32_t tx) {
    return {EventType::kTxIssue, 0, 0, tx};
  }
  static Event deliver(EventType type, std::uint32_t shard, std::uint32_t tx) {
    return {type, 0, shard, tx};
  }
  static Event proof(std::uint32_t tx, std::uint32_t from_shard,
                     bool accepted) {
    return {EventType::kProof, accepted ? std::uint8_t{1} : std::uint8_t{0},
            from_shard, tx};
  }
  static Event round_complete(std::uint32_t shard, bool view_change) {
    return {view_change ? EventType::kViewChange : EventType::kBlockCommit, 0,
            shard, 0};
  }
  static Event queue_sample() { return {EventType::kQueueSample, 0, 0, 0}; }
  static Event gossip(std::uint32_t node, bool upward) {
    return {EventType::kGossipHop, upward ? std::uint8_t{1} : std::uint8_t{0},
            node, 0};
  }
  static Event shard_change(std::uint32_t plan_index) {
    return {EventType::kShardChange, 0, 0, plan_index};
  }
  static Event repartition() { return {EventType::kRepartition, 0, 0, 0}; }

  /// Rank of this event among simultaneous events (smaller fires first):
  /// churn < repartition < queue sample < client issue < everything else.
  /// Part of the deterministic tie-break key (see the file comment).
  static constexpr std::uint8_t tie_rank(EventType type) noexcept {
    switch (type) {
      case EventType::kShardChange:
        return 0;
      case EventType::kRepartition:
        return 1;
      case EventType::kQueueSample:
        return 2;
      case EventType::kTxIssue:
        return 3;
      default:
        return 4;
    }
  }

  /// Content-key comparison of two simultaneous events: rank, then shard,
  /// tx, flag, and type as the final content discriminators. Returns <0, 0
  /// or >0 like memcmp.
  friend constexpr int content_order(const Event& a, const Event& b) noexcept {
    const std::uint8_t ra = Event::tie_rank(a.type);
    const std::uint8_t rb = Event::tie_rank(b.type);
    if (ra != rb) return ra < rb ? -1 : 1;
    if (a.shard != b.shard) return a.shard < b.shard ? -1 : 1;
    if (a.tx != b.tx) return a.tx < b.tx ? -1 : 1;
    if (a.flag != b.flag) return a.flag < b.flag ? -1 : 1;
    if (a.type != b.type) return a.type < b.type ? -1 : 1;
    return 0;
  }
};

/// Heap pre-size for a run expected to stream `expected_txs` transactions
/// (std::nullopt = unknown). The pending-event working set scales with the
/// *in-flight* transaction count, not the stream length, so the hint is an
/// over-bound — capped so a 10M-tx hint doesn't pre-commit tens of MB.
/// SimResult::event_heap_peak reports what a run actually used.
inline std::size_t event_heap_reserve(
    std::optional<std::uint64_t> expected_txs) noexcept {
  constexpr std::size_t kMin = 4096;
  constexpr std::size_t kMax = std::size_t{1} << 18;
  if (!expected_txs.has_value()) return kMin;
  return std::max(kMin, std::min(static_cast<std::size_t>(*expected_txs),
                                 kMax));
}

/// Receives popped events; the owner of the queue implements the dispatch
/// switch. Kept separate from EventQueue so shard nodes can schedule events
/// without knowing who dispatches them.
class EventHandler {
 public:
  virtual void on_event(const Event& event) = 0;

 protected:
  ~EventHandler() = default;
};

class EventQueue {
 public:
  /// Schedules `event` at absolute time `at` (must not precede now()).
  void schedule(SimTime at, const Event& event) {
    OPTCHAIN_EXPECTS(at >= now_);
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Entry{at, next_seq_++, event});
    note_pending();
  }

  /// Schedules `event` `delay` seconds from now.
  void schedule_in(SimTime delay, const Event& event) {
    schedule(now_ + delay, event);
  }

  /// Holds `event` at `at` in the held slot beside the heap (see the file
  /// comment): for the one pending event of a chain that reschedules itself
  /// from its own dispatch. At most one event may be held at a time, and
  /// `at` must not precede now(). Dispatch order is the same as schedule()'s.
  void schedule_chained(SimTime at, const Event& event) {
    OPTCHAIN_EXPECTS(!held_.has_value());
    OPTCHAIN_EXPECTS(at >= now_);
    held_.emplace(Entry{at, next_seq_++, event});
    note_pending();
  }

  bool empty() const noexcept { return heap_.empty() && !held_.has_value(); }
  /// Pending events, the held one included.
  std::size_t pending() const noexcept {
    return heap_.size() + (held_.has_value() ? 1 : 0);
  }
  SimTime now() const noexcept { return now_; }

  /// Largest number of events ever pending at once (the held one included)
  /// — the queue's true working set, reported by bench_scale as the
  /// engine's memory-shape baseline.
  std::size_t peak_pending() const noexcept { return peak_pending_; }

  /// Pre-sizes the heap (steady-state runs then never reallocate it).
  void reserve(std::size_t events) { heap_.reserve(events); }

  /// Pops the earliest event (the held one or the heap's root), advances
  /// now(), and hands it to `handler`. Returns false when the queue is
  /// empty. Inline (with the sifts) so the per-event cost is a handful of
  /// instructions — and so a `final` handler devirtualizes the dispatch
  /// entirely.
  bool run_one(EventHandler& handler) {
    // Copy out only what outlives the pop (the seq number is dead here).
    SimTime time = 0.0;
    Event event;
    if (held_.has_value() &&
        (heap_.empty() || earlier(*held_, heap_.front()))) {
      time = held_->time;
      event = held_->event;
      held_.reset();
    } else if (!heap_.empty()) {
      time = heap_.front().time;
      event = heap_.front().event;
      pop_root();
    } else {
      return false;
    }
    OPTCHAIN_ASSERT(time >= now_);
    now_ = time;
    handler.on_event(event);
    return true;
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Event event;
  };
  static bool earlier(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    const int content = content_order(a.event, b.event);
    if (content != 0) return content < 0;
    return a.seq < b.seq;
  }

  void note_pending() noexcept {
    const std::size_t count = pending();
    if (count > peak_pending_) peak_pending_ = count;
  }

  /// Fills the hole at `i` with `moved`, moving it up past later parents.
  void sift_up(std::size_t i, const Entry& moved) noexcept {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!earlier(moved, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = moved;
  }

  /// Removes the root bottom-up (see the file comment).
  void pop_root() noexcept {
    const std::size_t last = heap_.size() - 1;
    if (last == 0) {
      heap_.pop_back();
      return;
    }
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child < last) {
      if (child + 1 < last && earlier(heap_[child + 1], heap_[child])) {
        ++child;
      }
      heap_[hole] = heap_[child];
      hole = child;
      child = 2 * hole + 1;
    }
    const Entry moved = heap_[last];
    heap_.pop_back();
    sift_up(hole, moved);
  }

  // Min-heap over (time, content, seq) in a flat vector: reservable, POD
  // moves only.
  std::vector<Entry> heap_;
  std::optional<Entry> held_;  // the held chain event, if any
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t peak_pending_ = 0;
};

}  // namespace optchain::sim

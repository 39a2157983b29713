// Flat per-transaction state of the sequential engine (sim::Simulation).
//
// Every issue, lock request, proof and commit touches two per-transaction
// structures, so their layout is on the engine's hot path:
//
//   InflightWindow  the protocol record of each issued, not-yet-settled
//                   transaction, addressed by its dense stream index. A
//                   power-of-two ring of 4-byte record ids covers
//                   [oldest live index, next index to issue) and doubles
//                   when that span outgrows it. Records live in a
//                   std::deque, which never moves them, and are recycled
//                   through a free list with their vectors' capacity, so a
//                   steady-state run allocates nothing per transaction.
//   OutpointLedger  the lock/spend state of every outpoint a transaction has
//                   locked or spent. Open addressing with linear probing
//                   from a mix64-hashed home slot, 16-byte slots, at most
//                   half full, backward-shift deletion (no tombstones).
//
// Neither container is ever iterated by the engine, so the simulated
// outcome cannot depend on their layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "txmodel/transaction.hpp"

namespace optchain::sim {

/// The lock phase of a cross-shard transaction, as the decision point sees
/// it: proofs still outstanding, where the commit goes, and which input
/// shards accepted (they need an unlock-to-abort if any rejected).
struct PendingCross {
  std::uint32_t remaining_locks = 0;
  std::uint32_t output_shard = 0;
  bool rejected = false;
  std::vector<std::uint32_t> accepted_shards;
};

/// Everything the protocol still needs about an issued, not-yet-terminal
/// transaction. Erased once the transaction commits (or aborts and every
/// unlock-to-abort has released its locks), which is what keeps streamed
/// runs at O(in-flight) memory.
struct Inflight {
  double issue_time = 0.0;
  std::vector<tx::OutPoint> inputs;
  PendingCross cross;
  /// Unlock-to-abort messages still traveling after an abort; the entry
  /// stays alive until they have all released their locks.
  std::uint32_t releases_in_flight = 0;
  bool aborted = false;

  /// Returns every field to its default. The vectors are cleared, not
  /// freed, so a recycled record reuses their capacity.
  void reset() noexcept {
    issue_time = 0.0;
    inputs.clear();
    cross.remaining_locks = 0;
    cross.output_shard = 0;
    cross.rejected = false;
    cross.accepted_shards.clear();
    releases_in_flight = 0;
    aborted = false;
  }
};

/// In-flight records addressed by dense transaction index. Indices open in
/// order (0, 1, 2, ... after clear()) and may be erased in any order.
class InflightWindow {
 public:
  InflightWindow() : ring_(kInitialSpan, kNone) {}

  /// Forgets every record; the next open() must be index 0.
  void clear() {
    records_.clear();
    free_.clear();
    ring_.assign(ring_.size(), kNone);
    begin_ = 0;
    end_ = 0;
  }

  /// Opens the record for `index`, which must be the next index to issue.
  /// The record comes back reset (Inflight::reset); a recycled one keeps
  /// its vectors' capacity.
  Inflight& open(std::uint32_t index) {
    OPTCHAIN_EXPECTS(index == end_);
    if (end_ - begin_ == ring_.size()) grow();
    auto id = static_cast<std::uint32_t>(records_.size());
    if (free_.empty()) {
      records_.emplace_back();
    } else {
      id = free_.back();
      free_.pop_back();
    }
    ring_[end_ & mask()] = id;
    ++end_;
    Inflight& record = records_[id];
    record.reset();
    return record;
  }

  /// True while `index` is open and not yet erased.
  bool contains(std::uint32_t index) const noexcept {
    return index - begin_ < end_ - begin_ && ring_[index & mask()] != kNone;
  }

  /// The open record for `index`; aborts if there is none.
  Inflight& at(std::uint32_t index) {
    OPTCHAIN_ASSERT(contains(index));
    return records_[ring_[index & mask()]];
  }

  /// Closes `index`'s record and recycles its storage; aborts if it is not
  /// open.
  void erase(std::uint32_t index) {
    OPTCHAIN_ASSERT(contains(index));
    std::uint32_t& id = ring_[index & mask()];
    free_.push_back(id);
    id = kNone;
    while (begin_ < end_ && ring_[begin_ & mask()] == kNone) ++begin_;
  }

  /// Open records.
  std::size_t size() const noexcept { return records_.size() - free_.size(); }
  /// Indices the ring can cover before it doubles (a power of two).
  std::size_t span_capacity() const noexcept { return ring_.size(); }

 private:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kInitialSpan = 1024;

  std::uint64_t mask() const noexcept { return ring_.size() - 1; }

  /// Doubles the ring, re-homing the live span [begin_, end_).
  void grow() {
    std::vector<std::uint32_t> wider(ring_.size() * 2, kNone);
    const std::uint64_t wider_mask = wider.size() - 1;
    for (std::uint64_t i = begin_; i < end_; ++i) {
      wider[i & wider_mask] = ring_[i & mask()];
    }
    ring_.swap(wider);
  }

  std::deque<Inflight> records_;     // never moved; ids index into it
  std::vector<std::uint32_t> free_;  // ids of closed records
  std::vector<std::uint32_t> ring_;  // index & mask() → record id or kNone
  std::uint64_t begin_ = 0;  // oldest open index (== end_ when none)
  std::uint64_t end_ = 0;    // next index to open
};

enum class OutpointState : std::uint8_t { kLocked, kSpent };

/// Lock/spend state per outpoint key (tx << 32 | vout); an absent key is
/// available. Map-like find / operator[] / erase over an open-addressing
/// table that grows by doubling at half load.
class OutpointLedger {
 public:
  /// Who holds an outpoint and how. A default entry is a lock held by tx 0.
  struct Entry {
    OutpointState state = OutpointState::kLocked;
    std::uint32_t tx = 0;
  };

  OutpointLedger() : slots_(kMinSlots) {}

  /// Empties the table, keeping its slots.
  void clear() {
    slots_.assign(slots_.size(), Slot{});
    size_ = 0;
  }

  /// Grows the table so `entries` fit without a rehash.
  void reserve(std::size_t entries) {
    std::size_t count = slots_.size();
    while (count < 2 * entries) count *= 2;
    if (count > slots_.size()) rehash(count);
  }

  /// The entry for `key`, or nullptr if the outpoint is available.
  Entry* find(std::uint64_t key) noexcept {
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Slot& slot = slots_[i];
      if (slot.entry.state == kVacant) return nullptr;
      if (slot.key == key) return &slot.entry;
    }
  }

  /// The entry for `key`, inserting a default Entry if there is none.
  Entry& operator[](std::uint64_t key) {
    std::size_t i = home(key);
    for (;; i = (i + 1) & mask()) {
      Slot& slot = slots_[i];
      if (slot.entry.state == kVacant) break;
      if (slot.key == key) return slot.entry;
    }
    if (2 * (size_ + 1) > slots_.size()) {
      rehash(slots_.size() * 2);
      i = vacant_slot(key);
    }
    ++size_;
    slots_[i] = Slot{key, Entry{}};
    return slots_[i].entry;
  }

  /// Removes `key`'s entry; returns whether there was one.
  bool erase(std::uint64_t key) noexcept {
    std::size_t hole = home(key);
    for (;; hole = (hole + 1) & mask()) {
      const Slot& slot = slots_[hole];
      if (slot.entry.state == kVacant) return false;
      if (slot.key == key) break;
    }
    // Backward shift: walk the rest of the cluster and move each entry whose
    // home slot does not lie cyclically in (hole, j] back into the hole.
    for (std::size_t j = (hole + 1) & mask();; j = (j + 1) & mask()) {
      const Slot& slot = slots_[j];
      if (slot.entry.state == kVacant) break;
      if (((j - home(slot.key)) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = slot;
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Stored entries.
  std::size_t size() const noexcept { return size_; }
  /// Table slots (a power of two, at least twice size()).
  std::size_t slot_count() const noexcept { return slots_.size(); }

 private:
  /// State byte of an empty slot; never a stored entry's state.
  static constexpr OutpointState kVacant = static_cast<OutpointState>(0xff);
  static constexpr std::size_t kMinSlots = 16;

  struct Slot {
    std::uint64_t key = 0;
    Entry entry{kVacant, 0};
  };
  static_assert(sizeof(Slot) == 16);

  std::size_t mask() const noexcept { return slots_.size() - 1; }
  std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(mix64(key)) & mask();
  }
  std::size_t vacant_slot(std::uint64_t key) const noexcept {
    std::size_t i = home(key);
    while (slots_[i].entry.state != kVacant) i = (i + 1) & mask();
    return i;
  }
  void rehash(std::size_t count) {
    std::vector<Slot> old(count);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.entry.state != kVacant) slots_[vacant_slot(slot.key)] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace optchain::sim

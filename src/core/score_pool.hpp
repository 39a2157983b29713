// ScorePool — append-only paged slab storage for sparse T2S score vectors.
//
// The incremental T2S scheme (paper §IV.B) works because p'(v) is *final*
// once v has been placed, so the natural storage is one append per node. A
// vector<vector<ScoreEntry>> pays a heap allocation (plus malloc metadata
// and pointer-chasing) per node — ruinous at 10M nodes. The pool instead
// bump-allocates entries out of large contiguous pages and keeps one
// {page, offset, len} handle per node: appending is a memcpy into the
// current page, reading is a span, and steady-state growth performs one
// allocation per page (65k entries), not per node.
//
// One wrinkle: the scorer finalizes the *latest* node after placement by
// adding α to its own shard's entry, which may need to INSERT an entry. So
// append_node reserves one slack slot that the later add_to_last can insert
// into in place; the next append reclaims the slot eagerly if it went unused
// (the bump pointer never counted it, so an uncommitted node — preview/
// diverted paths — wastes nothing once the stream moves on).
// Slot accounting (used_slots / slot_capacity / wasted_slots / slab_bytes)
// makes the "net waste: zero" claim checkable by tests instead of folklore:
// used_slots() == total_entries() always holds, and permanent waste is
// bounded by one node run + slack per *closed* page (the tail gap when a
// node did not fit), never by per-node slack.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace optchain::core {

/// One sparse entry of a p' vector.
struct ScoreEntry {
  std::uint32_t shard;
  double value;
};

class ScorePool {
 public:
  static constexpr std::uint32_t kDefaultPageEntries = 1u << 16;

  explicit ScorePool(std::uint32_t page_entries = kDefaultPageEntries)
      : page_entries_(page_entries) {
    OPTCHAIN_EXPECTS(page_entries_ >= 2);
  }

  /// Pre-sizes the handle table (and the page directory) for an expected
  /// node count.
  void reserve(std::size_t nodes) {
    handles_.reserve(nodes);
    // ~entries-per-node is workload-dependent; reserving the directory is
    // cheap either way (one pointer per 65k entries).
    pages_.reserve(nodes / page_entries_ + 1);
  }

  std::size_t num_nodes() const noexcept { return handles_.size(); }
  std::size_t total_entries() const noexcept { return total_entries_; }

  std::span<const ScoreEntry> vector_of(std::uint32_t node) const noexcept {
    OPTCHAIN_EXPECTS(node < handles_.size());
    const Handle& handle = handles_[node];
    return {pages_[handle.page].get() + handle.offset, handle.len};
  }

  /// Issues a read-prefetch hint for `node`'s vector (no-op on toolchains
  /// without __builtin_prefetch). The gather kernel calls this for every
  /// parent before it reads any, so their page lines load in parallel.
  void prefetch(std::uint32_t node) const noexcept {
    OPTCHAIN_EXPECTS(node < handles_.size());
#if defined(__GNUC__) || defined(__clang__)
    const Handle& handle = handles_[node];
    __builtin_prefetch(pages_[handle.page].get() + handle.offset, 0, 1);
#endif
  }

  /// Appends the next node's vector (entries sorted by shard id). Reserves
  /// one extra slot so a following add_to_last() can insert in place.
  void append_node(std::span<const ScoreEntry> entries) {
    const auto len = static_cast<std::uint32_t>(entries.size());
    ScoreEntry* slot = allocate(len + 1);
    std::copy(entries.begin(), entries.end(), slot);
    handles_.push_back(Handle{static_cast<std::uint32_t>(pages_.size() - 1),
                             static_cast<std::uint32_t>(slot - current_page()),
                             len});
    total_entries_ += len;
  }

  /// Adds `value` to the last appended node's entry for `shard`, inserting
  /// (sorted) into the reserved slack slot if the shard is absent. Only the
  /// most recent node is mutable — everything older is final by the T2S
  /// invariant.
  void add_to_last(std::uint32_t node, std::uint32_t shard, double value) {
    OPTCHAIN_EXPECTS(!handles_.empty() && node == handles_.size() - 1);
    Handle& handle = handles_.back();
    ScoreEntry* begin = pages_[handle.page].get() + handle.offset;
    ScoreEntry* end = begin + handle.len;
    ScoreEntry* it = begin;
    while (it != end && it->shard < shard) ++it;
    if (it != end && it->shard == shard) {
      it->value += value;
      return;
    }
    // Insert into the slack slot, keeping shard order. The slot is only
    // valid while this node is the last allocation, which add_to_last's
    // precondition guarantees.
    OPTCHAIN_ASSERT(slack_available_);
    for (ScoreEntry* p = end; p != it; --p) *p = *(p - 1);
    *it = {shard, value};
    ++handle.len;
    ++total_entries_;
    slack_available_ = false;
    ++page_fill_;  // the slack slot became a real entry
  }

  // ----- slot accounting (memory telemetry; asserted by the pool tests) ---

  /// Slab pages allocated so far.
  std::size_t num_pages() const noexcept { return pages_.size(); }

  /// Entry slots holding live data across all pages. Invariant:
  /// used_slots() == total_entries() — pending slack slots are never counted
  /// as used (they are reclaimed eagerly by the next append unless the
  /// α-commit claimed them).
  std::size_t used_slots() const noexcept { return closed_fill_ + page_fill_; }

  /// Entry slots allocated across all pages (the slab's capacity).
  std::size_t slot_capacity() const noexcept {
    return closed_slots_ + page_capacity_back_;
  }

  /// Slots that can never be used again: the tail gaps of *closed* pages
  /// (a node run that did not fit opened a fresh page). Bounded by
  /// (max node len + 1) per closed page; per-node slack never shows up here.
  std::size_t wasted_slots() const noexcept {
    return closed_slots_ - closed_fill_;
  }

  /// Heap bytes held by the slab pages.
  std::size_t slab_bytes() const noexcept {
    return slot_capacity() * sizeof(ScoreEntry);
  }

 private:
  struct Handle {
    std::uint32_t page;
    std::uint32_t offset;
    std::uint32_t len;
  };

  ScoreEntry* current_page() const noexcept { return pages_.back().get(); }

  void open_page(std::uint32_t min_entries) {
    closed_slots_ += page_capacity_back_;
    closed_fill_ += page_fill_;
    const std::uint32_t page_size = std::max(page_entries_, min_entries);
    pages_.push_back(std::make_unique<ScoreEntry[]>(page_size));
    page_capacity_back_ = page_size;
    page_fill_ = 0;
  }

  /// Bump-allocates `count` contiguous entries, reclaiming the previous
  /// append's unused slack slot and opening a new page when the current one
  /// cannot fit the run (oversized runs get a dedicated page). The last of
  /// the `count` slots is the new node's slack: it is not counted as filled —
  /// the next allocation starts on top of it unless add_to_last claimed it.
  ScoreEntry* allocate(std::uint32_t count) {
    slack_available_ = true;
    if (pages_.empty() || page_fill_ + count > page_capacity_back_) {
      open_page(count);
    }
    ScoreEntry* slot = current_page() + page_fill_;
    page_fill_ += count - 1;
    return slot;
  }

  std::uint32_t page_entries_;
  std::vector<std::unique_ptr<ScoreEntry[]>> pages_;
  std::uint32_t page_fill_ = 0;           // filled entries in the last page
  std::uint32_t page_capacity_back_ = 0;  // capacity of the last page
  bool slack_available_ = false;
  std::size_t closed_fill_ = 0;   // Σ page_fill_ over closed pages
  std::size_t closed_slots_ = 0;  // Σ capacity over closed pages
  std::vector<Handle> handles_;
  std::size_t total_entries_ = 0;
};

}  // namespace optchain::core

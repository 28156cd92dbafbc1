// Activity tracking for the event-driven cycle engine.
//
// Cycle-stepped kernels (dataflow executor, NoC fabric, CSD handshakes)
// historically scanned every object every cycle, even when most of the
// fabric sat in the paper's §3.3 inactive/sleep states. ActivitySet and
// WakeQueue turn those scans into work proportional to the *active*
// component count:
//
//  - ActivitySet is a dense bitword set over ids [0, n): O(1)
//    branch-free insert with free deduplication (no member count is
//    kept; an insert sets its bit and its summary bit), cache-friendly
//    ascending-order iteration (one 64-bit word covers 64 ids), and an
//    ordered drain that visits
//    ids exactly in the order a dense `for (id = 0; id < n; ++id)` scan
//    would — including ids inserted *during* the drain, which are
//    visited in the same pass iff they lie ahead of the cursor. That
//    property is what lets an event-driven engine stay bit-identical to
//    the dense scan it replaces.
//
//    The set is *two-level* (hierarchical): one summary word covers 64
//    bitwords (4096 ids), with summary bit j set iff bitword j is
//    nonzero. The drain's advance-to-next-active-word step walks the
//    summary — SIMD-accelerated via simd::first_nonzero_word — so a
//    quiescent region costs O(words/64) instead of O(words). At the
//    Epiphany-V-class 1024-cluster geometry (tens of thousands of ids)
//    that is what keeps the per-cycle cost proportional to activity,
//    not chip size. The summary is derived state: checkpoints still
//    carry the flat bitwords (words()/restore_words()), and restore
//    rebuilds the summary, so the snapshot format is unchanged.
//
//  - WakeQueue schedules ids to re-enter the set at a future cycle
//    (latency expiry, fault-service completion). It is a plain binary
//    min-heap of (cycle, id); duplicates are allowed and harmless
//    because delivery lands in an ActivitySet, which deduplicates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/simd.hpp"

namespace vlsip {

class ActivitySet {
 public:
  ActivitySet() = default;
  explicit ActivitySet(std::size_t n) { reset(n); }

  /// Resizes to cover ids [0, n) and clears membership.
  void reset(std::size_t n) {
    size_ = n;
    words_.assign((n + 63) / 64, 0);
    summary_.assign((words_.size() + 63) / 64, 0);
  }

  std::size_t size() const { return size_; }
  /// O(size / 64): members are not counted as they come and go.
  std::size_t count() const {
    return simd::popcount_words(words_.data(), words_.size());
  }
  /// O(size / 4096): reads the summary level only.
  bool empty() const {
    return simd::first_nonzero_word(summary_.data(), summary_.size()) >=
           summary_.size();
  }

  /// O(1). Returns true if `id` was newly inserted.
  bool insert(std::uint32_t id) {
    const std::uint64_t bit = 1ull << (id & 63);
    const std::size_t wi = id >> 6;
    const std::uint64_t w = words_[wi];
    words_[wi] = w | bit;
    summary_[wi >> 6] |= 1ull << (wi & 63);
    return (w & bit) == 0;
  }

  bool contains(std::uint32_t id) const {
    return (words_[id >> 6] >> (id & 63)) & 1u;
  }

  /// O(1). Returns true if `id` was present.
  bool erase(std::uint32_t id) {
    const std::uint64_t bit = 1ull << (id & 63);
    const std::size_t wi = id >> 6;
    std::uint64_t& w = words_[wi];
    if (!(w & bit)) return false;
    w &= ~bit;
    if (w == 0) summary_[wi >> 6] &= ~(1ull << (wi & 63));
    return true;
  }

  void clear() {
    std::fill(words_.begin(), words_.end(), 0ull);
    std::fill(summary_.begin(), summary_.end(), 0ull);
  }

  /// Marks every id in [0, size) active — used to prime a run so the
  /// first cycle scans everything, exactly like the dense loop, after
  /// which activity narrows to live components.
  void fill() {
    if (words_.empty()) return;
    std::fill(words_.begin(), words_.end(), ~0ull);
    const std::size_t tail = size_ & 63;
    if (tail) words_.back() = (1ull << tail) - 1;
    std::fill(summary_.begin(), summary_.end(), ~0ull);
    const std::size_t stail = words_.size() & 63;
    if (stail) summary_.back() = (1ull << stail) - 1;
  }

  /// Ordered drain with the dense-scan insertion semantics: visits
  /// members in ascending id order, clearing each before calling
  /// `fn(id)`. `fn` may insert ids; an id inserted at position > the
  /// current cursor is visited in this same drain, an id <= the cursor
  /// stays set for the next drain — exactly how a dense ascending scan
  /// sees same-cycle mutations. The drain takes a bitword at a time, so
  /// inside `fn` the members still ahead of the cursor in the current
  /// word read as absent to contains() and erase().
  ///
  /// The word cursor advances through the summary level, so sparse
  /// drains skip 4096 quiescent ids per summary word probe (and the
  /// probe itself tests several summary words per SIMD compare).
  template <typename Fn>
  void drain_in_order(Fn&& fn) {
    std::size_t wi = next_active_word(0);
    while (wi < words_.size()) {
      // Take the whole word; the cursor then walks its bits in a
      // register. After each call, ids `fn` inserted strictly ahead of
      // the cursor in this word join the walk; ids at or behind it stay
      // in the set for the next drain.
      std::uint64_t cur = words_[wi];
      words_[wi] = 0;
      summary_[wi >> 6] &= ~(1ull << (wi & 63));
      while (cur != 0) {
        const int b = __builtin_ctzll(cur);
        cur &= cur - 1;
        fn(static_cast<std::uint32_t>(wi * 64 + static_cast<unsigned>(b)));
        // ~((2 << b) - 1) keeps the bits above b (none for b == 63).
        if (const std::uint64_t ahead = words_[wi] & ~((2ull << b) - 1)) {
          cur |= ahead;
          words_[wi] &= ~ahead;
          if (words_[wi] == 0) summary_[wi >> 6] &= ~(1ull << (wi & 63));
        }
      }
      if (wi + 1 >= words_.size()) break;
      // Dense fast path: the next word is live, so the summary walk
      // would land right back on it — one load keeps the saturated case
      // at the flat set's cost.
      if (words_[wi + 1] != 0) {
        ++wi;
        continue;
      }
      wi = next_active_word(wi + 1);
    }
  }

  /// Copies the members in ascending order into `out` (cleared first)
  /// and empties the set.
  void drain_to(std::vector<std::uint32_t>& out) {
    out.clear();
    drain_in_order([&out](std::uint32_t id) { out.push_back(id); });
  }

  /// Raw bitwords, for checkpointing. Pair with restore_words(). The
  /// snapshot format is the flat level only — the summary is derived
  /// and rebuilt on restore.
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Restores membership from bitwords previously taken via words()
  /// for a set of `size` ids; the summary level is recomputed from the
  /// bits. Returns false, leaving the set as it was, when no such set
  /// has these words: a word count other than ceil(size / 64), or a
  /// bit at an id >= size.
  [[nodiscard]] bool restore_words(std::size_t size,
                                   std::vector<std::uint64_t> words) {
    if (words.size() != (size + 63) / 64) return false;
    if (size % 64 != 0 && (words.back() >> (size % 64)) != 0) return false;
    size_ = size;
    words_ = std::move(words);
    summary_.assign((words_.size() + 63) / 64, 0);
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      if (words_[wi] != 0) summary_[wi >> 6] |= 1ull << (wi & 63);
    }
    return true;
  }

 private:
  /// Smallest word index >= from whose bitword is nonzero, or
  /// words_.size(). Two probes: the partial summary word containing
  /// `from`, then a SIMD sweep over the remaining summary words.
  std::size_t next_active_word(std::size_t from) const {
    const std::size_t nwords = words_.size();
    if (from >= nwords) return nwords;
    std::size_t si = from >> 6;
    const std::uint64_t first =
        summary_[si] & ~((1ull << (from & 63)) - 1);
    if (first != 0) {
      return (si << 6) + static_cast<std::size_t>(__builtin_ctzll(first));
    }
    ++si;
    const std::size_t hit =
        simd::first_nonzero_word(summary_.data() + si, summary_.size() - si);
    if (si + hit >= summary_.size()) return nwords;
    return ((si + hit) << 6) +
           static_cast<std::size_t>(__builtin_ctzll(summary_[si + hit]));
  }

  std::vector<std::uint64_t> words_;
  /// summary_[k] bit j = words_[k * 64 + j] != 0.
  std::vector<std::uint64_t> summary_;
  std::size_t size_ = 0;
};

/// Min-heap of (cycle, id) wake-ups feeding an ActivitySet.
class WakeQueue {
 public:
  void clear() { heap_.clear(); }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  void schedule(std::uint64_t when, std::uint32_t id) {
    heap_.push_back(Entry{when, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Earliest pending wake time; empty() must be false.
  std::uint64_t next_time() const { return heap_.front().when; }

  /// Moves every id due at or before `now` into `into`; returns how
  /// many wake-ups were delivered (duplicates included — the set
  /// deduplicates, but each delivery is one heap pop of work).
  std::size_t pop_due(std::uint64_t now, ActivitySet& into) {
    std::size_t delivered = 0;
    while (!heap_.empty() && heap_.front().when <= now) {
      into.insert(heap_.front().id);
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      ++delivered;
    }
    return delivered;
  }

  /// Visits every entry in raw heap-array order, for checkpointing.
  /// Replaying the same sequence through push_raw() reproduces the
  /// exact heap layout (the array already satisfies the heap
  /// property), so pop order — and therefore simulation behaviour —
  /// is bit-identical after a restore.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : heap_) fn(e.when, e.id);
  }

  /// Appends an entry without re-heapifying. Only valid for replaying
  /// a sequence produced by for_each(); arbitrary order would break
  /// the heap invariant.
  void push_raw(std::uint64_t when, std::uint32_t id) {
    heap_.push_back(Entry{when, id});
  }

 private:
  struct Entry {
    std::uint64_t when;
    std::uint32_t id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when > b.when;
    }
  };
  std::vector<Entry> heap_;
};

}  // namespace vlsip

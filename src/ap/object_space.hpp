// The object space: a stack-structured array of physical objects (paper
// §2.4).
//
// Placement is deterministic: a newly entered logical object always goes
// to the *top* of the stack, pushing every resident object one position
// down ("a stack shift sorts the objects in the array"). Because the
// physical order is exactly the recency order, LRU replacement is free:
// the bottom of the stack is always the replacement candidate, and a
// reference hits iff its stack distance is <= capacity.
//
// Physical position on the linear array == stack depth (top = 0). A hit
// promotes the object back to the top, re-sorting the span above it — the
// dynamic CSD network shifts that span's claims with it and re-resolves
// only the chains of the moved object (§2.6.2, ChainSet::shift_prefix).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/object.hpp"

namespace vlsip::snapshot {
class Writer;
class Reader;
}  // namespace vlsip::snapshot

namespace vlsip::ap {

class ObjectSpace {
 public:
  /// `capacity` is C, the array size of this (possibly scaled) AP.
  explicit ObjectSpace(int capacity);

  /// Returns to the constructed state for `capacity` (empty stack,
  /// version 0), keeping the stack and index storage.
  void reset(int capacity);

  int capacity() const { return capacity_; }
  int size() const { return static_cast<int>(stack_.size()); }
  bool full() const { return size() == capacity_; }
  bool empty() const { return stack_.empty(); }

  /// 0-based stack distance of `id` (0 = top), or nullopt on miss.
  std::optional<int> find(arch::ObjectId id) const {
    if (id >= index_.size() || index_[id] == kAbsent) return std::nullopt;
    return index_[id];
  }

  bool contains(arch::ObjectId id) const { return find(id).has_value(); }

  /// Physical array position of a resident object (== stack distance).
  int position_of(arch::ObjectId id) const;

  /// Object at a given position; position must be < size().
  arch::ObjectId at(int position) const;

  /// LRU replacement candidate (bottom of stack). Requires !empty().
  arch::ObjectId bottom() const;

  /// Enters `id` at the top, shifting all residents down one. Requires
  /// !full(), id != kNoObject and id not already resident.
  void insert_top(arch::ObjectId id);

  /// Removes and returns the bottom (LRU) object. Requires !empty().
  arch::ObjectId evict_bottom();

  /// Removes `id` wherever it is (defect handling / explicit release).
  void remove(arch::ObjectId id);

  /// Moves a resident object to the top (the LRU re-sort a hit causes).
  /// Returns its previous stack distance.
  int promote(arch::ObjectId id);

  /// Removes one slot — a physical object went defective (§1's
  /// defect-tolerance story at object granularity). Capacity shrinks by
  /// one; if the stack was full, the bottom (LRU) object is evicted and
  /// returned. Requires capacity > 1.
  std::optional<arch::ObjectId> reduce_capacity();

  /// Stack order, top first.
  const std::vector<arch::ObjectId>& stack() const { return stack_; }

  /// Placement generation: bumped by every mutation that changes which
  /// object sits at which position (insert, evict, remove, promote that
  /// actually moves). Consumers (ChainSet::refresh) skip re-resolution
  /// while the version is unchanged.
  std::uint64_t version() const { return version_; }

  std::string render() const;

  /// Checkpoint codec. restore() overwrites capacity (it shrinks at
  /// runtime via reduce_capacity) and rebuilds the id index. A stack no
  /// running AP could hold (over capacity, duplicate ids, or an id no
  /// encodable program names, see arch::kMaxEncodedObjects) throws
  /// snapshot::SnapshotError, so a hostile checkpoint cannot size the
  /// index.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  static constexpr int kAbsent = -1;

  /// Re-records the positions of stack_[from, to).
  void reindex(std::size_t from, std::size_t to);

  int capacity_ = 0;
  std::vector<arch::ObjectId> stack_;  // [0] = top
  /// index_[id] = position of `id`, or kAbsent. Program ids are dense
  /// (library index == id), so a flat vector beats hashing on the
  /// configure path, which looks up every referenced object several
  /// times per element.
  std::vector<int> index_;
  std::uint64_t version_ = 0;
};

}  // namespace vlsip::ap

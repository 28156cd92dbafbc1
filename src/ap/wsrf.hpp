// Working-set register file (paper §2.2 stage 5, §2.6.1, Table 3).
//
// The WSRF maintains the acquired elements of the working set [Denning].
// Cache-hit detection is "centrally processed on the WSRF instead of
// searching in the array" (§2.6.1); the acquirement pipeline stage reads
// the acquirement signal from here, and the signal tells the object which
// communication port (channel) to use for its chaining.
//
// Table 3 sizes it as "64b x40 Reg." — a fixed bank of 40 registers, not
// a growing structure — and the model is exactly that: `capacity`
// registers allocated once, each holding one entry plus an insertion
// stamp. An insert or refresh stamps its register with the next value
// of a monotonic counter, so the oldest entry is the one with the
// smallest stamp. When every register is full, the oldest *inactive*
// entry is retired (its object stays resident; only the central tag is
// lost, so a later request for it falls back to an array search,
// costing extra cycles — modelled by the pipeline). The central tag
// search is a dense id -> register index, the software stand-in for the
// parallel compare across all registers; ids are bounded by
// arch::kMaxEncodedObjects, the ids a packed configuration element can
// name. Lookups, inserts and erases allocate nothing once the index
// has seen the program's highest id.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/object.hpp"

namespace vlsip::snapshot {
class Writer;
class Reader;
}  // namespace vlsip::snapshot

namespace vlsip::ap {

struct WsrfEntry {
  arch::ObjectId id = arch::kNoObject;
  /// Granted CSD channel of the object's most recent chaining, if any.
  std::optional<std::uint32_t> channel;
  /// Active objects are part of a configured datapath and may not be
  /// retired to make room.
  bool active = false;
};

class Wsrf {
 public:
  explicit Wsrf(int capacity = 40);

  /// Returns to the constructed state for `capacity` (no entries, stamps
  /// and retirements from zero), keeping the register and index storage.
  void reset(int capacity);

  int capacity() const { return capacity_; }
  int size() const { return size_; }

  /// Central tag search. Returns the entry if present (O(1) — searching
  /// WSRFs "can be performed in parallel").
  const WsrfEntry* lookup(arch::ObjectId id) const {
    const int reg = register_of(id);
    return reg < 0 ? nullptr : &regs_[static_cast<std::size_t>(reg)].entry;
  }

  /// Inserts or refreshes an entry; retires the oldest inactive entry if
  /// full. Returns false if the WSRF is full of active entries and the
  /// insert was dropped (the pipeline then relies on array search).
  /// Requires id < arch::kMaxEncodedObjects.
  bool insert(arch::ObjectId id);

  /// Records the acquirement signal (granted channel) for an entry.
  void set_channel(arch::ObjectId id, std::uint32_t channel);

  void set_active(arch::ObjectId id, bool active);

  /// Removes the entry when its object is released or evicted.
  void erase(arch::ObjectId id);

  void clear();

  std::size_t retirements() const { return retirements_; }

  /// Checkpoint codec: entries oldest first, so the restored register
  /// file reproduces retirement order exactly. restore() throws
  /// snapshot::SnapshotError on a section no register file of this
  /// capacity could hold: a different capacity, more entries than
  /// registers, a duplicate id, or an id no program can name.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  struct Register {
    WsrfEntry entry;
    std::uint64_t stamp = 0;  // insertion or refresh order
  };

  int register_of(arch::ObjectId id) const {
    return id < index_.size() ? index_[id] : -1;
  }
  /// Frees register `reg`, moving the last occupied register into the
  /// hole so registers [0, size_) stay the occupied ones.
  void vacate(int reg);

  int capacity_ = 0;
  int size_ = 0;
  /// capacity_ registers; [0, size_) are occupied, in no particular
  /// order (age lives in the stamps).
  std::vector<Register> regs_;
  /// index_[id] = register holding `id`, or -1.
  std::vector<std::int32_t> index_;
  std::uint64_t next_stamp_ = 0;
  std::size_t retirements_ = 0;
};

}  // namespace vlsip::ap

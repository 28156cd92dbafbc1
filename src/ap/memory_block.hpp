// Memory blocks (paper §2, Table 2): 64 KB SRAM objects that sit beside
// the object stack. They hold the logical-object *library* (from which
// cache-missed objects are loaded, §2.3), spilled objects written back by
// the virtual-hardware replacement (§2.5), and application data accessed
// by load/store objects.
//
// Memory objects are "treated as out of the stack" (§2.6.2): they have
// fixed positions on the linear array past the stack region, and accesses
// to them pay the worst-case global-wire delay.
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

struct MemoryBlockConfig {
  /// Words of storage (64 KB of 64-bit words).
  std::size_t words = 64 * 1024 / 8;
  /// Access latency in cycles (SRAM array + port).
  int access_latency = 4;
};

/// One 64 KB SRAM memory block with word addressing. The storage is
/// allocated on the first nonzero write or fill: a fused processor
/// brings up 16 banks per cluster and most served jobs never touch
/// them, so a never-written block costs no host memory and reads as
/// zero everywhere.
class MemoryBlock {
 public:
  explicit MemoryBlock(MemoryBlockConfig config = {});

  /// Returns to the constructed state: never written (the storage is
  /// freed), not poisoned.
  void reset(MemoryBlockConfig config);

  std::size_t size() const { return config_.words; }
  int access_latency() const { return config_.access_latency; }

  arch::Word read(std::size_t address) const;
  void write(std::size_t address, arch::Word value);

  /// Bulk initialisation helper for examples.
  void fill(std::size_t base, const std::vector<arch::Word>& values);

  // --- fault injection ---------------------------------------------------

  /// Marks the whole block defective: reads return the poison word and
  /// writes are dropped (a dead SRAM array keeps its ports but not its
  /// cells). Irreversible, like a real silicon defect.
  void poison();
  bool poisoned() const { return poisoned_; }

  /// The word a poisoned block returns on every read.
  static arch::Word poison_word();

  /// Checkpoint codec: data is sparse-encoded (only nonzero words), so
  /// a mostly-empty 64 KB block costs a few bytes in the snapshot.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  /// Allocates the zeroed storage if the block was never written.
  void materialise();

  MemoryBlockConfig config_;
  std::vector<arch::Word> data_;  // empty until first written
  bool poisoned_ = false;
};

/// The AP's full memory: `blocks` 64 KB memory objects side by side on
/// the linear array (16 per minimum AP, §4.1). Word addresses interleave
/// across blocks at word granularity, so streaming accesses hit the
/// banks round-robin and sustain one access per bank per cycle. Each
/// bank has one port: a second access while busy waits (bank conflict),
/// which the executor charges.
class MemorySystem {
 public:
  MemorySystem(int blocks, MemoryBlockConfig config = {});

  /// Returns to the constructed state for `blocks` banks: every bank
  /// never written and unpoisoned, no bank busy, no conflicts counted.
  void reset(int blocks, MemoryBlockConfig config);

  int block_count() const { return static_cast<int>(blocks_.size()); }
  /// Total words across all banks.
  std::size_t size() const;
  int access_latency() const { return config_.access_latency; }

  arch::Word read(std::size_t address) const;
  void write(std::size_t address, arch::Word value);
  void fill(std::size_t base, const std::vector<arch::Word>& values);

  /// Bank that serves `address` (word interleaving).
  int bank_of(std::size_t address) const;

  /// Poisons one bank (see MemoryBlock::poison).
  void poison_block(int bank);
  bool block_poisoned(int bank) const;
  int poisoned_blocks() const;

  /// Models the single port: returns the cycle the access *completes*
  /// when issued at `now` (>= now + access_latency; later if the bank
  /// is busy) and occupies the bank until then.
  std::uint64_t access_at(std::size_t address, std::uint64_t now);

  std::uint64_t bank_conflicts() const { return conflicts_; }

  const MemoryBlock& block(int i) const { return blocks_.at(i); }

  /// Checkpoint codec; the restored system must have the same block
  /// count and geometry (enforced by section tags + block counts).
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  MemoryBlockConfig config_;
  std::vector<MemoryBlock> blocks_;
  std::vector<std::uint64_t> bank_busy_until_;
  std::uint64_t conflicts_ = 0;
};

/// The logical-object library, stored across the AP's memory blocks.
/// Loading an object costs the memory access latency plus a transfer
/// cost; the configuration pipeline overlaps up to CFB-many loads.
///
/// Program ids are dense (library index == id, as ObjectSpace relies
/// on), so the library is one id-indexed table: re-storing a program
/// that is already held copies into the existing slots and allocates
/// nothing.
class ObjectLibrary {
 public:
  /// `load_latency`: cycles to fetch one logical object (SRAM access +
  /// configuration-word transfer).
  explicit ObjectLibrary(int load_latency = 8);

  /// Returns to the constructed state (empty, no write-backs), keeping
  /// every slot's storage for the next store().
  void reset(int load_latency);

  int load_latency() const { return load_latency_; }

  /// Requires id != kNoObject and id < arch::kMaxEncodedObjects.
  void store(const arch::LogicalObject& object);
  bool contains(arch::ObjectId id) const {
    return id < objects_.size() && objects_[id].id == id;
  }
  const arch::LogicalObject& fetch(arch::ObjectId id) const;
  std::size_t size() const { return size_; }

  /// Write-back of a replaced object (§2.5). The library already holds
  /// the object's logical image, so only the write-back is counted;
  /// write-backs of unknown objects are precondition errors.
  void write_back(arch::ObjectId id);

  std::size_t write_backs() const { return write_backs_; }

  /// Checkpoint codec: objects serialize via arch::save_object in
  /// ascending id order — deterministic bytes for identical state.
  /// restore() throws snapshot::SnapshotError on a duplicate id or an
  /// id no program can name (arch::kMaxEncodedObjects).
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  int load_latency_ = 0;
  /// objects_[id] holds object `id`; a slot whose id differs (the
  /// default kNoObject) is empty.
  std::vector<arch::LogicalObject> objects_;
  std::size_t size_ = 0;
  std::size_t write_backs_ = 0;
};

}  // namespace vlsip::ap

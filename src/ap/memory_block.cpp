#include "ap/memory_block.hpp"

#include <algorithm>
#include <string>

#include "arch/serialize.hpp"
#include "common/require.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::ap {

MemoryBlock::MemoryBlock(MemoryBlockConfig config) { reset(config); }

void MemoryBlock::reset(MemoryBlockConfig config) {
  VLSIP_REQUIRE(config.words > 0, "memory block must be non-empty");
  VLSIP_REQUIRE(config.access_latency >= 1, "latency must be positive");
  config_ = config;
  std::vector<arch::Word>().swap(data_);
  poisoned_ = false;
}

void MemoryBlock::materialise() {
  if (data_.empty()) data_.assign(config_.words, arch::make_word_u(0));
}

arch::Word MemoryBlock::read(std::size_t address) const {
  VLSIP_REQUIRE(address < config_.words, "read address out of range");
  if (poisoned_) return poison_word();
  return data_.empty() ? arch::make_word_u(0) : data_[address];
}

void MemoryBlock::write(std::size_t address, arch::Word value) {
  VLSIP_REQUIRE(address < config_.words, "write address out of range");
  if (poisoned_) return;  // dead cells absorb the write
  if (data_.empty() && value.u == 0) return;  // already reads as zero
  materialise();
  data_[address] = value;
}

void MemoryBlock::poison() { poisoned_ = true; }

arch::Word MemoryBlock::poison_word() {
  return arch::make_word_u(0xDEADDEADDEADDEADull);
}

void MemoryBlock::fill(std::size_t base,
                       const std::vector<arch::Word>& values) {
  VLSIP_REQUIRE(base + values.size() <= config_.words,
                "fill range out of bounds");
  if (values.empty()) return;
  materialise();
  std::copy(values.begin(), values.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(base));
}

MemorySystem::MemorySystem(int blocks, MemoryBlockConfig config) {
  reset(blocks, config);
}

void MemorySystem::reset(int blocks, MemoryBlockConfig config) {
  VLSIP_REQUIRE(blocks >= 1, "need at least one memory block");
  config_ = config;
  const auto n = static_cast<std::size_t>(blocks);
  blocks_.resize(n, MemoryBlock(config));
  for (auto& b : blocks_) b.reset(config);
  bank_busy_until_.assign(n, 0);
  conflicts_ = 0;
}

std::size_t MemorySystem::size() const {
  return blocks_.size() * config_.words;
}

int MemorySystem::bank_of(std::size_t address) const {
  VLSIP_REQUIRE(address < size(), "address out of range");
  return static_cast<int>(address % blocks_.size());
}

arch::Word MemorySystem::read(std::size_t address) const {
  VLSIP_REQUIRE(address < size(), "read address out of range");
  return blocks_[address % blocks_.size()].read(address / blocks_.size());
}

void MemorySystem::write(std::size_t address, arch::Word value) {
  VLSIP_REQUIRE(address < size(), "write address out of range");
  blocks_[address % blocks_.size()].write(address / blocks_.size(), value);
}

void MemorySystem::fill(std::size_t base,
                        const std::vector<arch::Word>& values) {
  VLSIP_REQUIRE(base + values.size() <= size(), "fill range out of bounds");
  for (std::size_t i = 0; i < values.size(); ++i) {
    write(base + i, values[i]);
  }
}

void MemorySystem::poison_block(int bank) {
  VLSIP_REQUIRE(bank >= 0 && bank < block_count(), "bank out of range");
  blocks_[static_cast<std::size_t>(bank)].poison();
}

bool MemorySystem::block_poisoned(int bank) const {
  VLSIP_REQUIRE(bank >= 0 && bank < block_count(), "bank out of range");
  return blocks_[static_cast<std::size_t>(bank)].poisoned();
}

int MemorySystem::poisoned_blocks() const {
  int n = 0;
  for (const auto& b : blocks_) {
    if (b.poisoned()) ++n;
  }
  return n;
}

std::uint64_t MemorySystem::access_at(std::size_t address,
                                      std::uint64_t now) {
  const auto bank = static_cast<std::size_t>(bank_of(address));
  std::uint64_t start = now;
  if (bank_busy_until_[bank] > now) {
    start = bank_busy_until_[bank];
    ++conflicts_;
  }
  const std::uint64_t done =
      start + static_cast<std::uint64_t>(config_.access_latency);
  bank_busy_until_[bank] = done;
  return done;
}

ObjectLibrary::ObjectLibrary(int load_latency) { reset(load_latency); }

void ObjectLibrary::reset(int load_latency) {
  VLSIP_REQUIRE(load_latency >= 1, "load latency must be positive");
  load_latency_ = load_latency;
  // An empty slot is one whose id differs from its index; the object's
  // buffers stay for the next store() to copy into.
  for (auto& slot : objects_) slot.id = arch::kNoObject;
  size_ = 0;
  write_backs_ = 0;
}

void ObjectLibrary::store(const arch::LogicalObject& object) {
  VLSIP_REQUIRE(object.id != arch::kNoObject, "object must have an id");
  VLSIP_REQUIRE(object.id < arch::kMaxEncodedObjects,
                "object id beyond the encodable ids");
  if (object.id >= objects_.size()) objects_.resize(object.id + 1);
  arch::LogicalObject& slot = objects_[object.id];
  if (slot.id != object.id) ++size_;
  slot = object;
}

const arch::LogicalObject& ObjectLibrary::fetch(arch::ObjectId id) const {
  VLSIP_REQUIRE(contains(id), "object not in library");
  return objects_[id];
}

void ObjectLibrary::write_back(arch::ObjectId id) {
  VLSIP_REQUIRE(contains(id), "write-back of object the library never held");
  ++write_backs_;
}

void MemoryBlock::save(snapshot::Writer& w) const {
  w.section("ap.memory_block");
  w.u64(config_.words);
  std::uint64_t nonzero = 0;
  for (const auto& word : data_) {
    if (word.u != 0) ++nonzero;
  }
  w.u64(nonzero);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (data_[i].u != 0) {
      w.u64(i);
      w.u64(data_[i].u);
    }
  }
  w.b(poisoned_);
}

void MemoryBlock::restore(snapshot::Reader& r) {
  r.section("ap.memory_block");
  const std::uint64_t words = r.u64();
  VLSIP_REQUIRE(words == config_.words,
                "snapshot memory-block geometry mismatch");
  const std::uint64_t nonzero = r.count(16);
  if (nonzero == 0) {
    std::vector<arch::Word>().swap(data_);  // an all-zero block needs none
  } else {
    data_.assign(config_.words, arch::make_word_u(0));
  }
  for (std::uint64_t i = 0; i < nonzero; ++i) {
    const std::uint64_t index = r.u64();
    VLSIP_REQUIRE(index < config_.words, "snapshot memory word out of range");
    data_[static_cast<std::size_t>(index)] = arch::make_word_u(r.u64());
  }
  poisoned_ = r.b();
}

void MemorySystem::save(snapshot::Writer& w) const {
  w.section("ap.memory_system");
  w.u64(blocks_.size());
  for (const auto& b : blocks_) b.save(w);
  w.vec_u64(bank_busy_until_);
  w.u64(conflicts_);
}

void MemorySystem::restore(snapshot::Reader& r) {
  r.section("ap.memory_system");
  const std::uint64_t n = r.u64();
  VLSIP_REQUIRE(n == blocks_.size(), "snapshot memory bank count mismatch");
  for (auto& b : blocks_) b.restore(r);
  bank_busy_until_ = r.vec_u64();
  VLSIP_REQUIRE(bank_busy_until_.size() == blocks_.size(),
                "snapshot bank-busy vector mismatch");
  conflicts_ = r.u64();
}

void ObjectLibrary::save(snapshot::Writer& w) const {
  w.section("ap.object_library");
  w.i32(load_latency_);
  w.u64(size_);
  for (arch::ObjectId id = 0; id < objects_.size(); ++id) {
    if (contains(id)) arch::save_object(w, objects_[id]);
  }
  w.u64(write_backs_);
}

void ObjectLibrary::restore(snapshot::Reader& r) {
  r.section("ap.object_library");
  const int load_latency = r.i32();
  const std::uint64_t n = r.count(27);
  std::vector<arch::LogicalObject> objects;
  for (std::uint64_t i = 0; i < n; ++i) {
    arch::LogicalObject object = arch::restore_object(r);
    const arch::ObjectId id = object.id;
    if (id >= arch::kMaxEncodedObjects) {
      throw snapshot::SnapshotError("object library holds id " +
                                    std::to_string(id) +
                                    ", which no program can name");
    }
    if (id >= objects.size()) objects.resize(id + 1);
    if (objects[id].id == id) {
      throw snapshot::SnapshotError("object library holds id " +
                                    std::to_string(id) + " twice");
    }
    objects[id] = std::move(object);
  }
  const std::uint64_t write_backs = r.u64();
  load_latency_ = load_latency;
  objects_ = std::move(objects);
  size_ = static_cast<std::size_t>(n);
  write_backs_ = static_cast<std::size_t>(write_backs);
}

}  // namespace vlsip::ap

#include "ap/object_space.hpp"

#include <algorithm>
#include <sstream>

#include "arch/serialize.hpp"
#include "common/require.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::ap {

ObjectSpace::ObjectSpace(int capacity) { reset(capacity); }

void ObjectSpace::reset(int capacity) {
  VLSIP_REQUIRE(capacity >= 1, "capacity must be positive");
  capacity_ = capacity;
  stack_.clear();
  stack_.reserve(static_cast<std::size_t>(capacity));
  std::fill(index_.begin(), index_.end(), kAbsent);
  version_ = 0;
}

int ObjectSpace::position_of(arch::ObjectId id) const {
  const auto pos = find(id);
  VLSIP_REQUIRE(pos.has_value(), "object is not resident");
  return *pos;
}

arch::ObjectId ObjectSpace::at(int position) const {
  VLSIP_REQUIRE(position >= 0 && position < size(), "position out of range");
  return stack_[static_cast<std::size_t>(position)];
}

arch::ObjectId ObjectSpace::bottom() const {
  VLSIP_REQUIRE(!empty(), "stack is empty");
  return stack_.back();
}

void ObjectSpace::reindex(std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    index_[stack_[i]] = static_cast<int>(i);
  }
}

void ObjectSpace::insert_top(arch::ObjectId id) {
  VLSIP_REQUIRE(id != arch::kNoObject, "kNoObject cannot be resident");
  VLSIP_REQUIRE(!full(), "object space is full");
  VLSIP_REQUIRE(!contains(id), "object already resident");
  if (id >= index_.size()) index_.resize(std::size_t{id} + 1, kAbsent);
  stack_.insert(stack_.begin(), id);
  reindex(0, stack_.size());
  ++version_;
}

arch::ObjectId ObjectSpace::evict_bottom() {
  VLSIP_REQUIRE(!empty(), "stack is empty");
  const arch::ObjectId id = stack_.back();
  stack_.pop_back();
  index_[id] = kAbsent;
  ++version_;
  return id;
}

void ObjectSpace::remove(arch::ObjectId id) {
  const auto pos = find(id);
  VLSIP_REQUIRE(pos.has_value(), "object is not resident");
  stack_.erase(stack_.begin() + *pos);
  index_[id] = kAbsent;
  reindex(static_cast<std::size_t>(*pos), stack_.size());
  ++version_;
}

int ObjectSpace::promote(arch::ObjectId id) {
  const auto pos = find(id);
  VLSIP_REQUIRE(pos.has_value(), "object is not resident");
  if (*pos == 0) return 0;
  // Only positions [0, old depth] move; everything below keeps its
  // position.
  std::rotate(stack_.begin(), stack_.begin() + *pos,
              stack_.begin() + *pos + 1);
  reindex(0, static_cast<std::size_t>(*pos) + 1);
  ++version_;
  return *pos;
}

std::optional<arch::ObjectId> ObjectSpace::reduce_capacity() {
  VLSIP_REQUIRE(capacity_ > 1, "cannot lose the last physical object");
  const bool was_full = full();
  --capacity_;
  if (was_full) return evict_bottom();
  return std::nullopt;
}

std::string ObjectSpace::render() const {
  std::ostringstream out;
  out << "top[";
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    if (i) out << " ";
    out << stack_[i];
  }
  out << "]bottom (" << size() << "/" << capacity_ << ")";
  return out.str();
}

void ObjectSpace::save(snapshot::Writer& w) const {
  w.section("ap.object_space");
  w.i32(capacity_);
  w.vec_u32(stack_);
  w.u64(version_);
}

void ObjectSpace::restore(snapshot::Reader& r) {
  r.section("ap.object_space");
  const int capacity = r.i32();
  std::vector<arch::ObjectId> stack = r.vec_u32();
  const std::uint64_t version = r.u64();
  if (capacity < 1 || stack.size() > static_cast<std::size_t>(capacity)) {
    throw snapshot::SnapshotError("object space holds more than its capacity");
  }
  std::vector<int> index;
  for (std::size_t i = 0; i < stack.size(); ++i) {
    const arch::ObjectId id = stack[i];
    if (id >= arch::kMaxEncodedObjects) {
      throw snapshot::SnapshotError("object space holds id " +
                                    std::to_string(id) +
                                    ", which no program can name");
    }
    if (id >= index.size()) index.resize(std::size_t{id} + 1, kAbsent);
    if (index[id] != kAbsent) {
      throw snapshot::SnapshotError("object space holds id " +
                                    std::to_string(id) + " twice");
    }
    index[id] = static_cast<int>(i);
  }
  capacity_ = capacity;
  stack_ = std::move(stack);
  index_ = std::move(index);
  version_ = version;
}

}  // namespace vlsip::ap

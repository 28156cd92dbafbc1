#include "ap/wsrf.hpp"

#include <algorithm>
#include <string>

#include "arch/serialize.hpp"
#include "common/require.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::ap {

Wsrf::Wsrf(int capacity) { reset(capacity); }

void Wsrf::reset(int capacity) {
  VLSIP_REQUIRE(capacity >= 1, "WSRF needs at least one register");
  capacity_ = capacity;
  regs_.assign(static_cast<std::size_t>(capacity), Register{});
  std::fill(index_.begin(), index_.end(), -1);
  size_ = 0;
  next_stamp_ = 0;
  retirements_ = 0;
}

bool Wsrf::insert(arch::ObjectId id) {
  VLSIP_REQUIRE(id < arch::kMaxEncodedObjects,
                "WSRF tag beyond the encodable object ids");
  if (const int reg = register_of(id); reg >= 0) {
    // Refresh: the entry becomes the youngest.
    regs_[static_cast<std::size_t>(reg)].stamp = next_stamp_++;
    return true;
  }
  if (size_ == capacity_) {
    // Retire the oldest inactive entry.
    int victim = -1;
    for (int i = 0; i < size_; ++i) {
      const Register& r = regs_[static_cast<std::size_t>(i)];
      if (!r.entry.active &&
          (victim < 0 ||
           r.stamp < regs_[static_cast<std::size_t>(victim)].stamp)) {
        victim = i;
      }
    }
    if (victim < 0) return false;  // all pinned
    vacate(victim);
    ++retirements_;
  }
  if (id >= index_.size()) index_.resize(std::size_t{id} + 1, -1);
  regs_[static_cast<std::size_t>(size_)] =
      Register{WsrfEntry{id, std::nullopt, false}, next_stamp_++};
  index_[id] = size_++;
  return true;
}

void Wsrf::vacate(int reg) {
  const auto hole = static_cast<std::size_t>(reg);
  index_[regs_[hole].entry.id] = -1;
  const auto last = static_cast<std::size_t>(--size_);
  if (hole != last) {
    regs_[hole] = regs_[last];
    index_[regs_[hole].entry.id] = reg;
  }
}

void Wsrf::set_channel(arch::ObjectId id, std::uint32_t channel) {
  const int reg = register_of(id);
  VLSIP_REQUIRE(reg >= 0, "no WSRF entry for object");
  regs_[static_cast<std::size_t>(reg)].entry.channel = channel;
}

void Wsrf::set_active(arch::ObjectId id, bool active) {
  const int reg = register_of(id);
  VLSIP_REQUIRE(reg >= 0, "no WSRF entry for object");
  regs_[static_cast<std::size_t>(reg)].entry.active = active;
}

void Wsrf::erase(arch::ObjectId id) {
  if (const int reg = register_of(id); reg >= 0) vacate(reg);
}

void Wsrf::clear() {
  for (int i = 0; i < size_; ++i) {
    index_[regs_[static_cast<std::size_t>(i)].entry.id] = -1;
  }
  size_ = 0;
}

void Wsrf::save(snapshot::Writer& w) const {
  w.section("ap.wsrf");
  w.i32(capacity_);
  std::vector<const Register*> oldest_first;
  oldest_first.reserve(static_cast<std::size_t>(size_));
  for (int i = 0; i < size_; ++i) {
    oldest_first.push_back(&regs_[static_cast<std::size_t>(i)]);
  }
  std::sort(oldest_first.begin(), oldest_first.end(),
            [](const Register* a, const Register* b) {
              return a->stamp < b->stamp;
            });
  w.u64(oldest_first.size());
  for (const Register* r : oldest_first) {
    const WsrfEntry& e = r->entry;
    w.u32(e.id);
    w.b(e.channel.has_value());
    w.u32(e.channel.value_or(0));
    w.b(e.active);
  }
  w.u64(retirements_);
}

void Wsrf::restore(snapshot::Reader& r) {
  r.section("ap.wsrf");
  const int capacity = r.i32();
  if (capacity < 1 || capacity != capacity_) {
    throw snapshot::SnapshotError(
        "WSRF capacity " + std::to_string(capacity) + " does not match " +
        std::to_string(capacity_) + " registers");
  }
  const std::uint64_t n = r.count(10);
  if (n > static_cast<std::uint64_t>(capacity)) {
    throw snapshot::SnapshotError("WSRF holds more entries than registers");
  }
  std::vector<WsrfEntry> entries;
  entries.reserve(static_cast<std::size_t>(n));
  std::vector<std::int32_t> index;
  for (std::uint64_t i = 0; i < n; ++i) {
    WsrfEntry e;
    e.id = r.u32();
    const bool has_channel = r.b();
    const std::uint32_t channel = r.u32();
    if (has_channel) e.channel = channel;
    e.active = r.b();
    if (e.id >= arch::kMaxEncodedObjects) {
      throw snapshot::SnapshotError("WSRF holds id " + std::to_string(e.id) +
                                    ", which no program can name");
    }
    if (e.id >= index.size()) index.resize(std::size_t{e.id} + 1, -1);
    if (index[e.id] != -1) {
      throw snapshot::SnapshotError("WSRF holds id " + std::to_string(e.id) +
                                    " twice");
    }
    index[e.id] = static_cast<std::int32_t>(i);
    entries.push_back(e);
  }
  const std::uint64_t retirements = r.u64();
  // Oldest first: stamps 0 .. n-1 reproduce the saved age order.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    regs_[i] = Register{entries[i], i};
  }
  size_ = static_cast<int>(entries.size());
  next_stamp_ = entries.size();
  index_ = std::move(index);
  retirements_ = static_cast<std::size_t>(retirements);
}

}  // namespace vlsip::ap

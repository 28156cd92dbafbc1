// Locates the scaling manager's live tables inside a snapshot byte
// stream, so tests can hand restore the malformed tables no manager
// produces (docs/SNAPSHOT.md, "Live state only").
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace vlsip::test_support {

/// Byte offsets, within one snapshot, of the region ownership map and
/// the live-processor table that follows it.
struct LiveTableAt {
  std::size_t owners = 0;        // first u32 of cluster_owner_
  std::size_t next_id = 0;       // u32 next processor id
  std::size_t count = 0;         // u64 live-processor count
  std::size_t first_record = 0;  // the lowest live id's record
};

inline std::uint64_t read_u64(const std::vector<std::uint8_t>& bytes,
                              std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}

inline void write_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
                      std::uint32_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
}

/// Walks the "topology.regions" section (u64 entry count; per entry a
/// u32 id, a u32 vector path and a ring flag; then the u32 ownership
/// vector) to the live table: u32 next id, two u64 released-FSM
/// totals, u64 count, then one record per live processor that starts
/// with its u32 id and u32 region.
inline LiveTableAt locate_live_table(const std::vector<std::uint8_t>& bytes) {
  constexpr std::string_view kTag = "topology.regions";
  const auto tag = std::search(bytes.begin(), bytes.end(), kTag.begin(),
                               kTag.end());
  EXPECT_NE(tag, bytes.end());
  std::size_t at = static_cast<std::size_t>(tag - bytes.begin()) + kTag.size();
  const std::uint64_t regions = read_u64(bytes, at);
  at += 8;
  for (std::uint64_t i = 0; i < regions; ++i) {
    at += 4;                            // id
    at += 8 + 4 * read_u64(bytes, at);  // path
    at += 1;                            // ring
  }
  LiveTableAt table;
  table.owners = at + 8;
  at = table.owners + 4 * read_u64(bytes, at);
  table.next_id = at;
  table.count = at + 4 + 8 + 8;
  table.first_record = table.count + 8;
  return table;
}

}  // namespace vlsip::test_support

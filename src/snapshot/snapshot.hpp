// Versioned deterministic binary checkpoints of chip state.
//
// A Snapshot is a flat byte buffer with a fixed header (magic +
// format version). Writer/Reader stream fixed-width little-endian
// primitives through it; every layer of the simulator contributes a
// tagged section (`section("ap.executor")` etc.), so a reader that
// drifts out of sync with the writer fails loudly on the next tag
// instead of silently misinterpreting bytes.
//
// Versioning rule: kVersion bumps whenever the byte layout changes.
// A reader accepts only its own version and rejects any other with
// SnapshotError — never a partial restore. There is no migration: no
// codec branches on a stream's version.
//
// Determinism: the encoding has no timestamps, pointers, or hash
// ordering; saving the same machine state twice yields byte-identical
// buffers, which is what lets CI diff checkpointed-vs-uninterrupted
// runs.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace vlsip::snapshot {

/// Raised on any malformed snapshot: bad magic, another version,
/// truncation, section-tag mismatch, or file I/O failure.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error(what) {}
};

/// "VSNP" — identifies a vlsip snapshot byte stream.
inline constexpr std::uint32_t kMagic = 0x56534E50u;
/// Stream version this build writes and the only one it reads. Bump on
/// any encoding change.
///   1: the flat full-state layout.
///   2: a retired incremental delta container (never reused).
///   3: CSD routes carry their claimed [lo, hi] span.
///   4: chip tables hold live state only: no delivered packets, no
///      packet-to-flow index, no released processor slots.
///   5: the vlsipc session header keeps only its path, capacity,
///      expected tokens and remaining budget; the program and its stats
///      come from the AP checkpoint after it.
inline constexpr std::uint32_t kVersion = 5;

/// Owning byte container. The header (magic + version) is written by
/// the first Writer attached and validated by every Reader.
class Snapshot {
 public:
  std::vector<std::uint8_t>& bytes() { return bytes_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  void clear() { bytes_.clear(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Appends primitives to a Snapshot. Constructing a Writer clears the
/// snapshot and stamps the header, so one Writer == one checkpoint.
class Writer {
 public:
  explicit Writer(Snapshot& snap) : out_(snap.bytes()) {
    out_.clear();
    u32(kMagic);
    u32(kVersion);
  }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  /// Structural guard: a short tag the Reader must match verbatim.
  void section(std::string_view tag) { str(tag); }

  void vec_u8(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    raw(v.data(), v.size());
  }
  void vec_u32(const std::vector<std::uint32_t>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(std::uint32_t));
  }
  void vec_u64(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(std::uint64_t));
  }
  void vec_bool(const std::vector<bool>& v) {
    u64(v.size());
    for (bool x : v) b(x);
  }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }

  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked sequential reads from a Snapshot. The constructor
/// validates the header: wrong magic and any version but kVersion throw.
class Reader {
 public:
  explicit Reader(const Snapshot& snap) : in_(snap.bytes()) {
    if (in_.size() < 8) throw SnapshotError("snapshot truncated: no header");
    if (u32() != kMagic) throw SnapshotError("snapshot has wrong magic");
    version_ = u32();
    if (version_ != kVersion) {
      throw SnapshotError("snapshot version " + std::to_string(version_) +
                          (version_ > kVersion ? " is newer" : " is older") +
                          " than this build's version " +
                          std::to_string(kVersion));
    }
  }

  std::uint32_t version() const { return version_; }
  std::size_t remaining() const { return in_.size() - pos_; }
  /// Bytes not yet consumed. Frame decoders check this is zero after
  /// reading a message so trailing garbage is rejected, not silently
  /// ignored — a truncated *count* fails inside the read, but extra
  /// bytes after a well-formed payload would otherwise pass.
  std::size_t bytes_remaining() const { return remaining(); }
  bool done() const { return pos_ == in_.size(); }

  std::uint8_t u8() {
    need(1);
    return in_[pos_++];
  }
  bool b() { return u8() != 0; }
  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t n = count(1);
    std::string s(static_cast<std::size_t>(n), '\0');
    raw(s.data(), s.size());
    return s;
  }
  /// Verifies the next tag matches; throws naming both on mismatch.
  void section(std::string_view tag) {
    const std::string got = str();
    if (got != tag) {
      throw SnapshotError("snapshot section mismatch: expected '" +
                          std::string(tag) + "', found '" + got + "'");
    }
  }

  /// Reads an element count and sanity-checks it against the bytes
  /// left (each element needs at least `min_elem_bytes`), so a corrupt
  /// length can never drive a giant allocation.
  std::uint64_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (min_elem_bytes > 0 && n > remaining() / min_elem_bytes) {
      throw SnapshotError("snapshot truncated: count exceeds payload");
    }
    return n;
  }

  std::vector<std::uint8_t> vec_u8() {
    std::vector<std::uint8_t> v(static_cast<std::size_t>(count(1)));
    raw(v.data(), v.size());
    return v;
  }
  std::vector<std::uint32_t> vec_u32() {
    std::vector<std::uint32_t> v(static_cast<std::size_t>(count(4)));
    raw(v.data(), v.size() * sizeof(std::uint32_t));
    return v;
  }
  std::vector<std::uint64_t> vec_u64() {
    std::vector<std::uint64_t> v(static_cast<std::size_t>(count(8)));
    raw(v.data(), v.size() * sizeof(std::uint64_t));
    return v;
  }
  std::vector<bool> vec_bool() {
    const std::uint64_t n = count(1);
    std::vector<bool> v(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) v[i] = b();
    return v;
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) {
      throw SnapshotError("snapshot truncated at byte " +
                          std::to_string(pos_));
    }
  }
  void raw(void* p, std::size_t n) {
    need(n);
    // n == 0 legitimately pairs with a null destination (an empty
    // vector's data()), which memcpy's nonnull contract forbids.
    if (n != 0) std::memcpy(p, in_.data() + pos_, n);
    pos_ += n;
  }

  const std::vector<std::uint8_t>& in_;
  /// Starts at 0; the constructor's header reads advance it past magic
  /// and version before any payload is touched.
  std::size_t pos_ = 0;
  std::uint32_t version_ = 0;
};

/// Writes the snapshot bytes to `path`; throws SnapshotError on I/O
/// failure.
void write_file(const Snapshot& snap, const std::string& path);

/// Reads a snapshot back; header validation happens when a Reader is
/// attached, not here.
Snapshot read_file(const std::string& path);

}  // namespace vlsip::snapshot

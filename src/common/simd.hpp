// Portable SIMD kernels for the cycle engine's flat data-structure
// scans (activity bitwords, CSD per-channel claim counts, NoC
// flit-ring queue lengths).
//
// Every kernel exists twice: a scalar reference in simd::scalar (always
// compiled, the semantic ground truth) and a vector path selected at
// compile time from the target ISA. Dispatch is compile-time — there is
// no function-pointer indirection on the hot path — with one
// relaxed-atomic escape hatch, set_force_scalar(), so differential
// tests can run SIMD-vs-scalar in a single process and require
// bit-identical simulation results (the same discipline as the
// dense-vs-event sweep).
//
// ISA selection (see the root CMakeLists' VLSIP_SIMD options):
//   VLSIP_SIMD_LEVEL 3  AVX2    (-mavx2; 4 x u64 / 32 x u8 per vector)
//   VLSIP_SIMD_LEVEL 2  SSE4.2  (-msse4.2; 2 x u64 / 16 x u8)
//   VLSIP_SIMD_LEVEL 1  NEON    (aarch64 default; 2 x u64 / 16 x u8)
//   VLSIP_SIMD_LEVEL 0  scalar  (any target; also -DVLSIP_SIMD=OFF)
//
// Kernels are *order-exact*: first_nonzero_* return the smallest index,
// masks map lane i to bit i. That is what lets callers keep the
// dense-scan visit order — and therefore bit-identical behaviour — while
// testing 64 ids (or 32 queue slots) per instruction.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#if !defined(VLSIP_SIMD_DISABLE)
#if defined(__AVX2__)
#define VLSIP_SIMD_LEVEL 3
#include <immintrin.h>
#elif defined(__SSE4_2__)
#define VLSIP_SIMD_LEVEL 2
#include <nmmintrin.h>
#include <smmintrin.h>
#elif defined(__ARM_NEON)
#define VLSIP_SIMD_LEVEL 1
#include <arm_neon.h>
#else
#define VLSIP_SIMD_LEVEL 0
#endif
#else
#define VLSIP_SIMD_LEVEL 0
#endif

namespace vlsip::simd {

/// Compile-time ISA tier actually built in (see table above).
inline constexpr int kLevel = VLSIP_SIMD_LEVEL;

inline constexpr const char* level_name() {
  switch (kLevel) {
    case 3: return "avx2";
    case 2: return "sse4.2";
    case 1: return "neon";
    default: return "scalar";
  }
}

/// Runtime escape hatch for differential testing: when set, every
/// dispatched kernel takes its scalar reference path. Relaxed atomics —
/// the load compiles to a plain byte read on the hot path; tests toggle
/// it only between runs, never concurrently with one.
inline std::atomic<bool>& force_scalar_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}
inline void set_force_scalar(bool on) {
  force_scalar_flag().store(on, std::memory_order_relaxed);
}
inline bool forced_scalar() {
  return force_scalar_flag().load(std::memory_order_relaxed);
}

// ---- scalar reference kernels ---------------------------------------------
//
// These are the semantics; the vector paths below must agree on every
// input (tests/test_common.cpp sweeps them differentially).

namespace scalar {

/// Index of the first nonzero word in [words, words+n), or n.
inline std::size_t first_nonzero_word(const std::uint64_t* words,
                                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (words[i] != 0) return i;
  }
  return n;
}

/// Index of the first nonzero byte in [bytes, bytes+n), or n.
inline std::size_t first_nonzero_byte(const std::uint8_t* bytes,
                                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (bytes[i] != 0) return i;
  }
  return n;
}

/// Bit i of the result = lanes[i] != 0. Requires n <= 32.
inline std::uint32_t nonzero_mask_u16(const std::uint16_t* lanes,
                                      std::size_t n) {
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (lanes[i] != 0) mask |= (1u << i);
  }
  return mask;
}

/// Bit i of the result = lanes[i] < bound. Requires n <= 32.
inline std::uint32_t lt_mask_u16(const std::uint16_t* lanes, std::size_t n,
                                 std::uint16_t bound) {
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (lanes[i] < bound) mask |= (1u << i);
  }
  return mask;
}

/// Number of nonzero u32 lanes in [lanes, lanes+n).
inline std::size_t count_nonzero_u32(const std::uint32_t* lanes,
                                     std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (lanes[i] != 0) ++count;
  }
  return count;
}

/// Total population count over [words, words+n).
inline std::size_t popcount_words(const std::uint64_t* words,
                                  std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(__builtin_popcountll(words[i]));
  }
  return total;
}

/// Maximum word in [words, words+n); 0 for an empty range.
inline std::uint64_t max_u64(const std::uint64_t* words, std::size_t n) {
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (words[i] > best) best = words[i];
  }
  return best;
}

}  // namespace scalar

// ---- vector kernels --------------------------------------------------------

#if VLSIP_SIMD_LEVEL == 3 || VLSIP_SIMD_LEVEL == 2

namespace detail {

/// movemask over 16-bit compares yields 2 identical bits per lane;
/// compress the even bits so lane i maps to result bit i.
inline std::uint32_t compress_even_bits(std::uint32_t x) {
  x &= 0x55555555u;
  x = (x | (x >> 1)) & 0x33333333u;
  x = (x | (x >> 2)) & 0x0F0F0F0Fu;
  x = (x | (x >> 4)) & 0x00FF00FFu;
  x = (x | (x >> 8)) & 0x0000FFFFu;
  return x;
}

}  // namespace detail

#endif

#if VLSIP_SIMD_LEVEL == 3  // AVX2

namespace detail {

inline std::size_t first_nonzero_word_impl(const std::uint64_t* words,
                                           std::size_t n) {
  std::size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(words + i));
    // Lane j zero -> 8 set mask bits at j*8; any clear bit = nonzero.
    const std::uint32_t eqz = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi64(v, zero)));
    if (eqz != 0xFFFFFFFFu) {
      return i + static_cast<std::size_t>(__builtin_ctz(~eqz)) / 8;
    }
  }
  return i + scalar::first_nonzero_word(words + i, n - i);
}

inline std::size_t first_nonzero_byte_impl(const std::uint8_t* bytes,
                                           std::size_t n) {
  std::size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bytes + i));
    const std::uint32_t eqz = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)));
    if (eqz != 0xFFFFFFFFu) {
      return i + static_cast<std::size_t>(__builtin_ctz(~eqz));
    }
  }
  return i + scalar::first_nonzero_byte(bytes + i, n - i);
}

inline std::uint32_t nonzero_mask_u16_impl(const std::uint16_t* lanes,
                                           std::size_t n) {
  std::uint32_t mask = 0;
  std::size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 16 <= n; i += 16) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lanes + i));
    const __m256i eqz = _mm256_cmpeq_epi16(v, zero);
    const std::uint32_t m2 = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(eqz));
    mask |= (compress_even_bits(~m2) & 0xFFFFu) << i;
  }
  if (i < n) mask |= scalar::nonzero_mask_u16(lanes + i, n - i) << i;
  return mask;
}

inline std::uint32_t lt_mask_u16_impl(const std::uint16_t* lanes,
                                      std::size_t n, std::uint16_t bound) {
  std::uint32_t mask = 0;
  std::size_t i = 0;
  if (bound == 0) return 0;
  const __m256i b1 = _mm256_set1_epi16(static_cast<short>(bound - 1));
  for (; i + 16 <= n; i += 16) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lanes + i));
    // Unsigned lane < bound  <=>  min(lane, bound-1) == lane.
    const __m256i lt = _mm256_cmpeq_epi16(_mm256_min_epu16(v, b1), v);
    const std::uint32_t m2 =
        static_cast<std::uint32_t>(_mm256_movemask_epi8(lt));
    mask |= (compress_even_bits(m2) & 0xFFFFu) << i;
  }
  if (i < n) mask |= scalar::lt_mask_u16(lanes + i, n - i, bound) << i;
  return mask;
}

inline std::size_t count_nonzero_u32_impl(const std::uint32_t* lanes,
                                          std::size_t n) {
  std::size_t i = 0;
  std::size_t zeros = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 8 <= n; i += 8) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lanes + i));
    const std::uint32_t eqz = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi32(v, zero)));
    zeros += static_cast<std::size_t>(__builtin_popcount(eqz)) / 4;
  }
  std::size_t count = (i - zeros);
  return count + scalar::count_nonzero_u32(lanes + i, n - i);
}

inline std::size_t popcount_words_impl(const std::uint64_t* words,
                                       std::size_t n) {
  // Hardware popcnt on the scalar registers already saturates the port;
  // unroll by 4 to hide the load latency.
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    total += static_cast<std::size_t>(__builtin_popcountll(words[i])) +
             static_cast<std::size_t>(__builtin_popcountll(words[i + 1])) +
             static_cast<std::size_t>(__builtin_popcountll(words[i + 2])) +
             static_cast<std::size_t>(__builtin_popcountll(words[i + 3]));
  }
  return total + scalar::popcount_words(words + i, n - i);
}

inline std::uint64_t max_u64_impl(const std::uint64_t* words,
                                  std::size_t n) {
  // AVX2 has no unsigned 64-bit max; flip the sign bit and use the
  // signed compare to build a blend.
  std::size_t i = 0;
  const __m256i flip = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  __m256i best = _mm256_setzero_si256();
  bool any = false;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(words + i));
    if (!any) {
      best = v;
      any = true;
      continue;
    }
    const __m256i gt = _mm256_cmpgt_epi64(_mm256_xor_si256(v, flip),
                                          _mm256_xor_si256(best, flip));
    best = _mm256_blendv_epi8(best, v, gt);
  }
  std::uint64_t out = 0;
  if (any) {
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best);
    out = scalar::max_u64(lanes, 4);
  }
  const std::uint64_t tail = scalar::max_u64(words + i, n - i);
  return out > tail ? out : tail;
}

}  // namespace detail

#elif VLSIP_SIMD_LEVEL == 2  // SSE4.2

namespace detail {

inline std::size_t first_nonzero_word_impl(const std::uint64_t* words,
                                           std::size_t n) {
  std::size_t i = 0;
  const __m128i zero = _mm_setzero_si128();
  for (; i + 2 <= n; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(words + i));
    const std::uint32_t eqz =
        static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi64(v, zero)));
    if (eqz != 0xFFFFu) {
      return i + static_cast<std::size_t>(__builtin_ctz(~eqz & 0xFFFFu)) / 8;
    }
  }
  return i + scalar::first_nonzero_word(words + i, n - i);
}

inline std::size_t first_nonzero_byte_impl(const std::uint8_t* bytes,
                                           std::size_t n) {
  std::size_t i = 0;
  const __m128i zero = _mm_setzero_si128();
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + i));
    const std::uint32_t eqz =
        static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(v, zero)));
    if (eqz != 0xFFFFu) {
      return i + static_cast<std::size_t>(__builtin_ctz(~eqz & 0xFFFFu));
    }
  }
  return i + scalar::first_nonzero_byte(bytes + i, n - i);
}

inline std::uint32_t nonzero_mask_u16_impl(const std::uint16_t* lanes,
                                           std::size_t n) {
  std::uint32_t mask = 0;
  std::size_t i = 0;
  const __m128i zero = _mm_setzero_si128();
  for (; i + 8 <= n; i += 8) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes + i));
    const std::uint32_t m2 =
        static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi16(v, zero)));
    mask |= (compress_even_bits(~m2 & 0xFFFFu) & 0xFFu) << i;
  }
  if (i < n) mask |= scalar::nonzero_mask_u16(lanes + i, n - i) << i;
  return mask;
}

inline std::uint32_t lt_mask_u16_impl(const std::uint16_t* lanes,
                                      std::size_t n, std::uint16_t bound) {
  std::uint32_t mask = 0;
  std::size_t i = 0;
  if (bound == 0) return 0;
  const __m128i b1 = _mm_set1_epi16(static_cast<short>(bound - 1));
  for (; i + 8 <= n; i += 8) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes + i));
    const __m128i lt = _mm_cmpeq_epi16(_mm_min_epu16(v, b1), v);
    const std::uint32_t m2 =
        static_cast<std::uint32_t>(_mm_movemask_epi8(lt));
    mask |= (compress_even_bits(m2) & 0xFFu) << i;
  }
  if (i < n) mask |= scalar::lt_mask_u16(lanes + i, n - i, bound) << i;
  return mask;
}

inline std::size_t count_nonzero_u32_impl(const std::uint32_t* lanes,
                                          std::size_t n) {
  std::size_t i = 0;
  std::size_t zeros = 0;
  const __m128i zero = _mm_setzero_si128();
  for (; i + 4 <= n; i += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes + i));
    const std::uint32_t eqz =
        static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi32(v, zero)));
    zeros += static_cast<std::size_t>(__builtin_popcount(eqz)) / 4;
  }
  return (i - zeros) + scalar::count_nonzero_u32(lanes + i, n - i);
}

inline std::size_t popcount_words_impl(const std::uint64_t* words,
                                       std::size_t n) {
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    total += static_cast<std::size_t>(__builtin_popcountll(words[i])) +
             static_cast<std::size_t>(__builtin_popcountll(words[i + 1])) +
             static_cast<std::size_t>(__builtin_popcountll(words[i + 2])) +
             static_cast<std::size_t>(__builtin_popcountll(words[i + 3]));
  }
  return total + scalar::popcount_words(words + i, n - i);
}

inline std::uint64_t max_u64_impl(const std::uint64_t* words,
                                  std::size_t n) {
  return scalar::max_u64(words, n);
}

}  // namespace detail

#elif VLSIP_SIMD_LEVEL == 1  // NEON

namespace detail {

inline std::size_t first_nonzero_word_impl(const std::uint64_t* words,
                                           std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t v = vld1q_u64(words + i);
    if (vgetq_lane_u64(vorrq_u64(v, vextq_u64(v, v, 1)), 0) != 0) {
      return i + (words[i] != 0 ? 0 : 1);
    }
  }
  return i + scalar::first_nonzero_word(words + i, n - i);
}

inline std::size_t first_nonzero_byte_impl(const std::uint8_t* bytes,
                                           std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t v = vld1q_u8(bytes + i);
    if (vmaxvq_u8(v) != 0) {
      return i + scalar::first_nonzero_byte(bytes + i, 16);
    }
  }
  return i + scalar::first_nonzero_byte(bytes + i, n - i);
}

inline std::uint32_t nonzero_mask_u16_impl(const std::uint16_t* lanes,
                                           std::size_t n) {
  return scalar::nonzero_mask_u16(lanes, n);
}

inline std::uint32_t lt_mask_u16_impl(const std::uint16_t* lanes,
                                      std::size_t n, std::uint16_t bound) {
  return scalar::lt_mask_u16(lanes, n, bound);
}

inline std::size_t count_nonzero_u32_impl(const std::uint32_t* lanes,
                                          std::size_t n) {
  return scalar::count_nonzero_u32(lanes, n);
}

inline std::size_t popcount_words_impl(const std::uint64_t* words,
                                       std::size_t n) {
  std::size_t i = 0;
  std::uint64_t total = 0;
  for (; i + 2 <= n; i += 2) {
    const uint8x16_t v = vreinterpretq_u8_u64(vld1q_u64(words + i));
    total += vaddvq_u8(vcntq_u8(v));
  }
  return static_cast<std::size_t>(total) +
         scalar::popcount_words(words + i, n - i);
}

inline std::uint64_t max_u64_impl(const std::uint64_t* words,
                                  std::size_t n) {
  return scalar::max_u64(words, n);
}

}  // namespace detail

#endif  // VLSIP_SIMD_LEVEL

// ---- dispatched entry points ----------------------------------------------

#if VLSIP_SIMD_LEVEL > 0
#define VLSIP_SIMD_DISPATCH(fn, ...)                             \
  (forced_scalar() ? scalar::fn(__VA_ARGS__)                     \
                   : detail::fn##_impl(__VA_ARGS__))
#else
#define VLSIP_SIMD_DISPATCH(fn, ...) scalar::fn(__VA_ARGS__)
#endif

inline std::size_t first_nonzero_word(const std::uint64_t* words,
                                      std::size_t n) {
  return VLSIP_SIMD_DISPATCH(first_nonzero_word, words, n);
}

inline std::size_t first_nonzero_byte(const std::uint8_t* bytes,
                                      std::size_t n) {
  return VLSIP_SIMD_DISPATCH(first_nonzero_byte, bytes, n);
}

inline std::uint32_t nonzero_mask_u16(const std::uint16_t* lanes,
                                      std::size_t n) {
  return VLSIP_SIMD_DISPATCH(nonzero_mask_u16, lanes, n);
}

inline std::uint32_t lt_mask_u16(const std::uint16_t* lanes, std::size_t n,
                                 std::uint16_t bound) {
  return VLSIP_SIMD_DISPATCH(lt_mask_u16, lanes, n, bound);
}

inline std::size_t count_nonzero_u32(const std::uint32_t* lanes,
                                     std::size_t n) {
  return VLSIP_SIMD_DISPATCH(count_nonzero_u32, lanes, n);
}

inline std::size_t popcount_words(const std::uint64_t* words,
                                  std::size_t n) {
  return VLSIP_SIMD_DISPATCH(popcount_words, words, n);
}

inline std::uint64_t max_u64(const std::uint64_t* words, std::size_t n) {
  return VLSIP_SIMD_DISPATCH(max_u64, words, n);
}

#undef VLSIP_SIMD_DISPATCH

}  // namespace vlsip::simd

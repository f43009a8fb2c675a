#ifndef QCONT_BASE_SIMD_H_
#define QCONT_BASE_SIMD_H_

/// Portable byte-wise SIMD primitives for the tag-filtered probe kernels
/// (DESIGN.md §16). The probe tables keep a 1-byte tag per slot (7 hash
/// bits + a set high bit; 0 marks an empty slot), so a single vector
/// compare over a 16-slot probe group filters the group down to the slots
/// that can possibly hold a key before any full key compare runs.
///
/// Three implementations share one contract:
///   - SSE2 on x86-64 (always available there),
///   - NEON on AArch64,
///   - a scalar SWAR fallback, also selected by -DQCONT_NO_SIMD.
/// All three return *identical* bitmasks for identical inputs — bit i of a
/// mask corresponds to byte i of the group — so a scalar build produces
/// bit-identical probe results AND bit-identical probe counters to a
/// vector build (the counters are derived from these masks only). The
/// differential suite (tests/probe_kernel_test.cc) pins the SIMD paths
/// against `MatchBytes16Scalar` on random inputs; CI builds the scalar
/// fallback in a dedicated QCONT_NO_SIMD matrix leg.

#include <cstdint>
#include <cstring>

#if !defined(QCONT_NO_SIMD)
#if defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#define QCONT_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define QCONT_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !QCONT_NO_SIMD

namespace qcont {

/// Which kernel this build selected; surfaced by benches and the CLI so a
/// JSON capture records what it measured.
inline const char* SimdKernelName() {
#if defined(QCONT_SIMD_SSE2)
  return "sse2";
#elif defined(QCONT_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

/// Best-effort read prefetch of the cache line holding `p` (no-op where
/// unsupported). `ProbeMany` issues these over a key block's home slots a
/// fixed distance ahead of the resolving pass.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

/// Scalar SWAR half-group compare (the building block of
/// MatchBytes16Scalar): bit i of the result is set iff tags[i] == needle,
/// for i in [0, 8). Zero-byte detection on the XOR-ed word must be exact
/// per byte, so it uses the carry-free form ~((lo7 + 0x7f..) | x | 0x7f..)
/// — the borrow-based (x - 0x01..) & ~x & 0x80.. trick falsely flags bytes
/// above a true zero and would desync the mask from the vector kernels.
inline std::uint32_t MatchBytes8Scalar(const std::uint8_t* tags,
                                       std::uint8_t needle) {
  std::uint64_t word;
  std::memcpy(&word, tags, 8);
  const std::uint64_t pat = 0x0101010101010101ULL * needle;
  const std::uint64_t x = word ^ pat;  // zero byte <=> match
  constexpr std::uint64_t k7f = 0x7f7f7f7f7f7f7f7fULL;
  const std::uint64_t zeros = ~(((x & k7f) + k7f) | x | k7f);
  // Compact the per-byte high bits into the low 8 result bits.
  std::uint32_t mask = 0;
  for (int i = 0; i < 8; ++i) {
    if ((zeros >> (8 * i + 7)) & 1u) mask |= 1u << i;
  }
  return mask;
}

/// Scalar reference for the 16-byte group compare (and the QCONT_NO_SIMD
/// implementation). Bit i of the result is set iff tags[i] == needle.
inline std::uint32_t MatchBytes16Scalar(const std::uint8_t* tags,
                                        std::uint8_t needle) {
  return MatchBytes8Scalar(tags, needle) |
         (MatchBytes8Scalar(tags + 8, needle) << 8);
}

/// Vectorized 16-byte group compare: bit i set iff tags[i] == needle.
/// Bit-identical to MatchBytes16Scalar by contract.
inline std::uint32_t MatchBytes16(const std::uint8_t* tags,
                                  std::uint8_t needle) {
#if defined(QCONT_SIMD_SSE2)
  const __m128i group =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags));
  const __m128i pat = _mm_set1_epi8(static_cast<char>(needle));
  return static_cast<std::uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(group, pat)));
#elif defined(QCONT_SIMD_NEON)
  const uint8x16_t group = vld1q_u8(tags);
  const uint8x16_t eq = vceqq_u8(group, vdupq_n_u8(needle));
  // Collapse each lane's 0xFF/0x00 into one bit: AND with a per-lane bit
  // weight, then pairwise-add across the vector.
  const uint8x16_t weights = {1, 2, 4, 8, 16, 32, 64, 128,
                              1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t masked = vandq_u8(eq, weights);
  const uint8x8_t lo = vget_low_u8(masked), hi = vget_high_u8(masked);
  return static_cast<std::uint32_t>(vaddv_u8(lo)) |
         (static_cast<std::uint32_t>(vaddv_u8(hi)) << 8);
#else
  return MatchBytes16Scalar(tags, needle);
#endif
}

}  // namespace qcont

#endif  // QCONT_BASE_SIMD_H_

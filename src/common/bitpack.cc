#include "common/bitpack.h"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#define XRANK_BITPACK_SSE2 1
#elif defined(__aarch64__)
#include <arm_neon.h>
#define XRANK_BITPACK_NEON 1
#endif

namespace xrank::bitpack {

namespace {

// Scalar core shared by every dispatch path for non-byte-aligned widths.
// The bulk of the values take one unaligned little-endian 64-bit load each
// (any 32-bit value straddles at most 5 bytes, so an 8-byte load that fits
// before in_end always covers it); the last few values — where a full load
// would read past in_end — fall back to a byte-refilled u64 window, which
// never exceeds 39 significant bits (31 leftover + 8 new).
bool UnpackScalarCore(const uint8_t* in, const uint8_t* in_end, size_t n,
                      unsigned width, uint32_t* out) {
  if (width == 0) {
    std::memset(out, 0, n * sizeof(uint32_t));
    return true;
  }
  const uint32_t mask =
      width == 32 ? 0xFFFFFFFFu : ((uint32_t{1} << width) - 1);
  size_t i = 0;
  if (width < 8) {
    // Eight consecutive values span exactly `width` bytes, so each group of
    // eight starts byte-aligned and fits one 64-bit load (8 * 7 = 56 bits).
    while (i + 8 <= n) {
      const uint8_t* p = in + (i >> 3) * width;
      if (p + sizeof(uint64_t) > in_end) break;
      uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      out[i] = static_cast<uint32_t>(word) & mask;
      out[i + 1] = static_cast<uint32_t>(word >> width) & mask;
      out[i + 2] = static_cast<uint32_t>(word >> (2 * width)) & mask;
      out[i + 3] = static_cast<uint32_t>(word >> (3 * width)) & mask;
      out[i + 4] = static_cast<uint32_t>(word >> (4 * width)) & mask;
      out[i + 5] = static_cast<uint32_t>(word >> (5 * width)) & mask;
      out[i + 6] = static_cast<uint32_t>(word >> (6 * width)) & mask;
      out[i + 7] = static_cast<uint32_t>(word >> (7 * width)) & mask;
      i += 8;
    }
  }
  while (i < n) {
    size_t bit = i * width;
    const uint8_t* p = in + (bit >> 3);
    if (p + sizeof(uint64_t) > in_end) break;
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    out[i] = static_cast<uint32_t>(word >> (bit & 7)) & mask;
    ++i;
  }
  if (i == n) return true;
  size_t bit = i * width;
  const uint8_t* p = in + (bit >> 3);
  unsigned skip = static_cast<unsigned>(bit & 7);
  uint64_t window = 0;
  unsigned bits = 0;
  if (p < in_end) {
    window = static_cast<uint64_t>(*p++) >> skip;
    bits = 8 - skip;
  }
  for (; i < n; ++i) {
    while (bits < width) {
      if (p == in_end) return false;
      window |= static_cast<uint64_t>(*p++) << bits;
      bits += 8;
    }
    out[i] = static_cast<uint32_t>(window) & mask;
    window >>= width;
    bits -= width;
  }
  return true;
}

#if defined(XRANK_BITPACK_SSE2)

void Widen8Sse2(const uint8_t* in, size_t n, uint32_t* out) {
  size_t i = 0;
  const __m128i zero = _mm_setzero_si128();
  for (; i + 16 <= n; i += 16) {
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    __m128i lo = _mm_unpacklo_epi8(v, zero);
    __m128i hi = _mm_unpackhi_epi8(v, zero);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_unpacklo_epi16(lo, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 4),
                     _mm_unpackhi_epi16(lo, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 8),
                     _mm_unpacklo_epi16(hi, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 12),
                     _mm_unpackhi_epi16(hi, zero));
  }
  for (; i < n; ++i) out[i] = in[i];
}

void Widen16Sse2(const uint8_t* in, size_t n, uint32_t* out) {
  size_t i = 0;
  const __m128i zero = _mm_setzero_si128();
  for (; i + 8 <= n; i += 8) {
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i * 2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_unpacklo_epi16(v, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 4),
                     _mm_unpackhi_epi16(v, zero));
  }
  for (; i < n; ++i) {
    uint16_t v;
    std::memcpy(&v, in + i * 2, sizeof(v));
    out[i] = v;
  }
}

bool UnpackSse2(const uint8_t* in, const uint8_t* in_end, size_t n,
                unsigned width, uint32_t* out) {
  // Bounds were validated by UnpackBits; byte-aligned widths are
  // little-endian arrays, everything else takes the scalar core.
  switch (width) {
    case 8:
      Widen8Sse2(in, n, out);
      return true;
    case 16:
      Widen16Sse2(in, n, out);
      return true;
    case 32:
      std::memcpy(out, in, n * sizeof(uint32_t));
      return true;
    default:
      return UnpackScalarCore(in, in_end, n, width, out);
  }
}

#elif defined(XRANK_BITPACK_NEON)

void Widen8Neon(const uint8_t* in, size_t n, uint32_t* out) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint8x16_t v = vld1q_u8(in + i);
    uint16x8_t lo = vmovl_u8(vget_low_u8(v));
    uint16x8_t hi = vmovl_u8(vget_high_u8(v));
    vst1q_u32(out + i, vmovl_u16(vget_low_u16(lo)));
    vst1q_u32(out + i + 4, vmovl_u16(vget_high_u16(lo)));
    vst1q_u32(out + i + 8, vmovl_u16(vget_low_u16(hi)));
    vst1q_u32(out + i + 12, vmovl_u16(vget_high_u16(hi)));
  }
  for (; i < n; ++i) out[i] = in[i];
}

void Widen16Neon(const uint8_t* in, size_t n, uint32_t* out) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint16x8_t v = vld1q_u16(reinterpret_cast<const uint16_t*>(in + i * 2));
    vst1q_u32(out + i, vmovl_u16(vget_low_u16(v)));
    vst1q_u32(out + i + 4, vmovl_u16(vget_high_u16(v)));
  }
  for (; i < n; ++i) {
    uint16_t v;
    std::memcpy(&v, in + i * 2, sizeof(v));
    out[i] = v;
  }
}

bool UnpackNeon(const uint8_t* in, const uint8_t* in_end, size_t n,
                unsigned width, uint32_t* out) {
  switch (width) {
    case 8:
      Widen8Neon(in, n, out);
      return true;
    case 16:
      Widen16Neon(in, n, out);
      return true;
    case 32:
      std::memcpy(out, in, n * sizeof(uint32_t));
      return true;
    default:
      return UnpackScalarCore(in, in_end, n, width, out);
  }
}

#endif

using UnpackFn = bool (*)(const uint8_t*, const uint8_t*, size_t, unsigned,
                          uint32_t*);

struct Kernel {
  const char* name;
  UnpackFn fn;
};

Kernel PickKernel() {
  const char* no_simd = std::getenv("XRANK_NO_SIMD");
  if (no_simd != nullptr && no_simd[0] == '1') {
    return {"scalar", &UnpackScalarCore};
  }
#if defined(XRANK_BITPACK_SSE2)
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("sse2")) return {"sse2", &UnpackSse2};
#else
  return {"sse2", &UnpackSse2};  // SSE2 is baseline on x86-64
#endif
#elif defined(XRANK_BITPACK_NEON)
  return {"neon", &UnpackNeon};  // NEON is baseline on aarch64
#endif
  return {"scalar", &UnpackScalarCore};
}

const Kernel& ActiveKernel() {
  static const Kernel kernel = PickKernel();
  return kernel;
}

}  // namespace

void PackBits(const uint32_t* in, size_t n, unsigned width, uint8_t* out) {
  if (width == 0) return;
  uint64_t window = 0;
  unsigned bits = 0;
  for (size_t i = 0; i < n; ++i) {
    window |= static_cast<uint64_t>(in[i]) << bits;
    bits += width;
    while (bits >= 8) {
      *out++ = static_cast<uint8_t>(window);
      window >>= 8;
      bits -= 8;
    }
  }
  if (bits > 0) *out = static_cast<uint8_t>(window);
}

bool UnpackBits(const uint8_t* in, const uint8_t* in_end, size_t n,
                unsigned width, uint32_t* out) {
  if (width > 32) return false;
  if (in > in_end ||
      PackedBytes(n, width) > static_cast<size_t>(in_end - in)) {
    return false;
  }
  return ActiveKernel().fn(in, in_end, n, width, out);
}

bool UnpackBitsPortable(const uint8_t* in, const uint8_t* in_end, size_t n,
                        unsigned width, uint32_t* out) {
  if (width > 32) return false;
  if (in > in_end ||
      PackedBytes(n, width) > static_cast<size_t>(in_end - in)) {
    return false;
  }
  return UnpackScalarCore(in, in_end, n, width, out);
}

const char* UnpackKernelName() { return ActiveKernel().name; }

}  // namespace xrank::bitpack

#ifndef XRANK_COMMON_BITPACK_H_
#define XRANK_COMMON_BITPACK_H_

#include <cstddef>
#include <cstdint>

namespace xrank::bitpack {

// LSB-first sequential bit packing: value i occupies bits
// [i*width, (i+1)*width) of the output stream, low bits first within each
// byte. This is the payload layout of the bp128 posting codec's fixed-size
// blocks (see index/codec.cc); widths of 8/16/32 degenerate to little-endian
// byte arrays, which is what the SIMD fast paths exploit.

// Bytes needed to hold `n` values of `width` bits.
inline constexpr size_t PackedBytes(size_t n, unsigned width) {
  return (n * width + 7) / 8;
}

// Bits needed to represent v (0 for v == 0).
inline constexpr unsigned BitWidth(uint32_t v) {
  unsigned w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

// Packs n `width`-bit values into out, which must have room for
// PackedBytes(n, width) bytes. width <= 32 and every input must fit in
// `width` bits; callers derive `width` from the block maximum so both hold
// by construction. width == 0 writes nothing.
void PackBits(const uint32_t* in, size_t n, unsigned width, uint8_t* out);

// Unpacks n `width`-bit values from [in, in_end). Returns false (without
// touching out past the failure point) if width > 32 or the packed data
// would extend past in_end; neither the scalar nor the SIMD kernels ever
// read at or beyond in_end.
bool UnpackBits(const uint8_t* in, const uint8_t* in_end, size_t n,
                unsigned width, uint32_t* out);

// Always-scalar reference implementation of UnpackBits (same contract).
// Exposed so tests can cross-check the dispatched kernel against it.
bool UnpackBitsPortable(const uint8_t* in, const uint8_t* in_end, size_t n,
                        unsigned width, uint32_t* out);

// Name of the unpack kernel selected by runtime dispatch ("scalar", "sse2"
// or "neon"). Set XRANK_NO_SIMD=1 in the environment (before first use) to
// force the scalar kernel.
const char* UnpackKernelName();

}  // namespace xrank::bitpack

#endif  // XRANK_COMMON_BITPACK_H_

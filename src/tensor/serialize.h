// Byte-level serialization for tensors and weight vectors.
//
// The protocol hashes and transmits model weights (checkpoints, proofs,
// commitments), so serialization must be canonical: little-endian IEEE-754
// fp32, dimensions as little-endian int64, no padding. Two parties hashing
// the same weights must produce identical bytes.
//
// The canonical fp32 codec below is the one definition of how a float
// vector becomes bytes: `[u64 count][count x LE fp32]`. Every producer and
// consumer of those bytes (serialize_floats, serialize_state, the state
// hasher, the checkpoint spill file, the chunked wire encoder) goes through
// it. On little-endian hosts the payload IS the vector's memory and moves
// with one memcpy; other hosts take the byte-swapping fallback.

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace rpol {

using Bytes = std::vector<std::uint8_t>;

// Appends primitives in canonical little-endian form.
void append_u32(Bytes& out, std::uint32_t v);
void append_u64(Bytes& out, std::uint64_t v);
void append_i64(Bytes& out, std::int64_t v);
void append_f32(Bytes& out, float v);

std::uint64_t read_u64(const Bytes& in, std::size_t& offset);
std::int64_t read_i64(const Bytes& in, std::size_t& offset);
float read_f32(const Bytes& in, std::size_t& offset);

// Tensor wire format: rank (i64), dims (i64 each), data (f32 each).
Bytes serialize_tensor(const Tensor& t);
Tensor deserialize_tensor(const Bytes& in, std::size_t& offset);

// Flat weight vector wire format: count (u64), data (f32 each).
Bytes serialize_floats(const std::vector<float>& v);
std::vector<float> deserialize_floats(const Bytes& in, std::size_t& offset);

// ---------------------------------------------------------------------------
// Canonical fp32 codec.

static_assert(sizeof(float) == 4, "canonical encoding assumes fp32");

// Bytes of the full encoding of `count` floats: the u64 count prefix plus
// the 4-byte-per-float payload.
constexpr std::uint64_t encoded_floats_size(std::uint64_t count) {
  return 8 + 4 * count;
}

// Little-endian u64 to and from 8 raw bytes.
void store_u64_le(std::uint64_t v, std::uint8_t* out);
std::uint64_t load_u64_le(const std::uint8_t* in);

// Writes bytes [byte_pos, byte_pos + n) of the payload encoding of the float
// array `src` into `out`; the window may start and end inside a float.
void encode_f32_le(const float* src, std::uint64_t byte_pos, std::size_t n,
                   std::uint8_t* out);
// Decodes `count` floats from their 4*count payload bytes.
void decode_f32_le(const std::uint8_t* in, std::size_t count, float* dst);

// Hands the payload encoding of src[0, count) to
// `sink(const std::uint8_t*, std::size_t)`, in order: one call over the
// array's own memory on little-endian hosts, bounded chunks of a staging
// buffer elsewhere.
template <class Sink>
void write_f32_le(const float* src, std::size_t count, Sink&& sink) {
  if constexpr (std::endian::native == std::endian::little) {
    sink(reinterpret_cast<const std::uint8_t*>(src), 4 * count);
  } else {
    constexpr std::size_t kChunk = 256;
    std::uint8_t chunk[4 * kChunk];
    for (std::size_t i = 0; i < count; i += kChunk) {
      const std::size_t take = std::min(kChunk, count - i);
      encode_f32_le(src + i, 0, 4 * take, chunk);
      sink(static_cast<const std::uint8_t*>(chunk), 4 * take);
    }
  }
}

// The inverse: fills dst[0, count) from payload bytes that
// `source(std::uint8_t* buf, std::size_t n)` writes into `buf`, in order.
// Little-endian hosts read straight into the array's memory.
template <class Source>
void read_f32_le(float* dst, std::size_t count, Source&& source) {
  if constexpr (std::endian::native == std::endian::little) {
    source(reinterpret_cast<std::uint8_t*>(dst), 4 * count);
  } else {
    constexpr std::size_t kChunk = 256;
    std::uint8_t chunk[4 * kChunk];
    for (std::size_t i = 0; i < count; i += kChunk) {
      const std::size_t take = std::min(kChunk, count - i);
      source(static_cast<std::uint8_t*>(chunk), 4 * take);
      decode_f32_le(chunk, take, dst + i);
    }
  }
}

// Appends the full encoding of `v` (count prefix, then payload) to `out`.
void append_floats(Bytes& out, const std::vector<float>& v);

}  // namespace rpol

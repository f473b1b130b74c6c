#include "tensor/serialize.h"

#include <cstring>
#include <stdexcept>

namespace rpol {

void store_u64_le(std::uint64_t v, std::uint8_t* out) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t load_u64_le(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

void encode_f32_le(const float* src, std::uint64_t byte_pos, std::size_t n,
                   std::uint8_t* out) {
  if (n == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, reinterpret_cast<const std::uint8_t*>(src) + byte_pos, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t byte = byte_pos + i;
      const auto bits = std::bit_cast<std::uint32_t>(src[byte / 4]);
      out[i] = static_cast<std::uint8_t>(bits >> (8 * (byte % 4)));
    }
  }
}

void decode_f32_le(const std::uint8_t* in, std::size_t count, float* dst) {
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, in, 4 * count);
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t bits = 0;
      for (int b = 0; b < 4; ++b) {
        bits |= static_cast<std::uint32_t>(in[4 * i + b]) << (8 * b);
      }
      dst[i] = std::bit_cast<float>(bits);
    }
  }
}

void append_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_u64(Bytes& out, std::uint64_t v) {
  std::uint8_t le[8];
  store_u64_le(v, le);
  out.insert(out.end(), le, le + 8);
}

void append_i64(Bytes& out, std::int64_t v) {
  append_u64(out, static_cast<std::uint64_t>(v));
}

void append_f32(Bytes& out, float v) {
  append_u32(out, std::bit_cast<std::uint32_t>(v));
}

namespace {
void check_avail(const Bytes& in, std::size_t offset, std::size_t need) {
  if (offset + need > in.size()) {
    throw std::out_of_range("serialized buffer truncated");
  }
}

// Appends the payload encoding of src[0, count) to `out`.
void append_payload(Bytes& out, const float* src, std::size_t count) {
  write_f32_le(src, count, [&](const std::uint8_t* p, std::size_t n) {
    out.insert(out.end(), p, p + n);
  });
}
}  // namespace

std::uint64_t read_u64(const Bytes& in, std::size_t& offset) {
  check_avail(in, offset, 8);
  const std::uint64_t v = load_u64_le(in.data() + offset);
  offset += 8;
  return v;
}

std::int64_t read_i64(const Bytes& in, std::size_t& offset) {
  return static_cast<std::int64_t>(read_u64(in, offset));
}

float read_f32(const Bytes& in, std::size_t& offset) {
  check_avail(in, offset, 4);
  float v = 0.0F;
  decode_f32_le(in.data() + offset, 1, &v);
  offset += 4;
  return v;
}

Bytes serialize_tensor(const Tensor& t) {
  Bytes out;
  out.reserve(8 + 8 * t.rank() + 4 * static_cast<std::size_t>(t.numel()));
  append_i64(out, static_cast<std::int64_t>(t.rank()));
  for (const auto d : t.shape()) append_i64(out, d);
  append_payload(out, t.vec().data(), t.vec().size());
  return out;
}

Tensor deserialize_tensor(const Bytes& in, std::size_t& offset) {
  const std::int64_t rank = read_i64(in, offset);
  if (rank < 0 || rank > 8) throw std::invalid_argument("bad tensor rank");
  Shape shape(static_cast<std::size_t>(rank));
  for (auto& d : shape) d = read_i64(in, offset);
  const std::int64_t n = shape_numel(shape);
  std::vector<float> data(static_cast<std::size_t>(n));
  check_avail(in, offset, 4 * data.size());
  decode_f32_le(in.data() + offset, data.size(), data.data());
  offset += 4 * data.size();
  return Tensor(std::move(shape), std::move(data));
}

void append_floats(Bytes& out, const std::vector<float>& v) {
  append_u64(out, v.size());
  append_payload(out, v.data(), v.size());
}

Bytes serialize_floats(const std::vector<float>& v) {
  Bytes out;
  out.reserve(encoded_floats_size(v.size()));
  append_floats(out, v);
  return out;
}

std::vector<float> deserialize_floats(const Bytes& in, std::size_t& offset) {
  const std::uint64_t n = read_u64(in, offset);
  check_avail(in, offset, 0);
  if (n > (in.size() - offset) / 4) throw std::invalid_argument("bad float count");
  std::vector<float> v(static_cast<std::size_t>(n));
  decode_f32_le(in.data() + offset, v.size(), v.data());
  offset += 4 * v.size();
  return v;
}

}  // namespace rpol

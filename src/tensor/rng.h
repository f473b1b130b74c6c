// Deterministic pseudo-random number generation for the whole system.
//
// Everything in RPoL that touches randomness — model initialization, dataset
// synthesis, batch selection, LSH hash families, simulated hardware noise —
// must be reproducible bit-for-bit across runs and platforms, because the
// verification protocol re-executes training steps and compares the results.
// We therefore avoid std::mt19937 / std::normal_distribution (whose outputs
// are implementation-defined for floating point) and implement a fixed
// algorithm stack:
//
//   * splitmix64 for seed expansion,
//   * xoshiro256** as the core generator,
//   * an explicit Box-Muller transform for normal variates.
//
// Box-Muller goes through libm's log, sin and cos, so a normal's bits are
// those of the linked libm (glibc documents 1-2 ulp for each). The bulk
// generator next_normals() evaluates the transform with its own vector
// log/sincos and keeps a result only when an error bound far wider than
// libm's proves that both round to the same float; every other pair is
// recomputed by the one scalar transform, detail::box_muller(). Its output
// therefore equals next_normal()'s bit for bit (DESIGN.md section 6).

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rpol {

// splitmix64 step; used to expand a single 64-bit seed into generator state.
std::uint64_t splitmix64(std::uint64_t& state);

// Deterministic PRNG (xoshiro256**). Copyable value type; copying forks the
// stream, which is occasionally useful in tests but should be avoided in
// protocol code (derive sub-seeds instead, see derive_seed()).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Raw 64 random bits.
  std::uint64_t next_u64();

  // Uniform in [0, bound). bound must be > 0. Uses rejection sampling to
  // avoid modulo bias (bias matters: batch selection must be uniform).
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform float in [0, 1) with 24 bits of randomness.
  float next_float();

  // Uniform double in [0, 1) with 53 bits of randomness.
  double next_double();

  // Standard normal variate via Box-Muller. Caches the second variate of
  // each pair so consecutive calls consume uniforms in a fixed pattern.
  float next_normal();

  // Writes n normals to out[0, n): bitwise the values of n successive
  // next_normal() calls, leaving the generator state and the cached variate
  // exactly as those calls would. Works in fixed stack chunks; no heap.
  void next_normals(float* out, std::size_t n);

  // x[i] += scale * next_normal() for i in [0, n), in that order and with
  // the same float rounding as the per-element loop.
  void add_normals(float* x, std::size_t n, float scale);

  // Convenience fills.
  void fill_normal(std::vector<float>& out, float mean, float stddev);
  void fill_uniform(std::vector<float>& out, float lo, float hi);

  // Fisher-Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::array<std::uint64_t, 4> s_{};
  bool has_cached_normal_ = false;
  float cached_normal_ = 0.0F;
};

// Derives a statistically independent sub-seed from (seed, stream_id).
// Used to give each worker / device / epoch its own stream without
// correlated outputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream_id);

namespace detail {

// Pairs per stack chunk of Rng::next_normals (4 KiB of uniforms).
inline constexpr std::size_t kNormalChunkPairs = 256;

// The Box-Muller pair transform of uniforms u1 in (0, 1) and u2 in [0, 1):
// z0 = radius * cos(angle), z1 = radius * sin(angle), each rounded to float.
// The scalar reference for every normal the generator returns.
void box_muller(double u1, double u2, float& z0, float& z1);

// box_muller(u1[i], u2[i], z[2i], z[2i + 1]) for i in [0, n), bit for bit.
// Returns how many pairs the vector path could not prove and handed to the
// scalar transform (always n without AVX2+FMA).
std::size_t box_muller_pairs(const double* u1, const double* u2,
                             std::size_t n, float* z);

}  // namespace detail

}  // namespace rpol

#include "tensor/rng.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace rpol {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// One xoshiro256** step, inlined into every caller in this file.
inline std::uint64_t xoshiro_next(std::uint64_t* s) {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

inline double to_unit_double(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

// The two uniforms of one Box-Muller pair; u1 is kept away from zero so
// log() is finite.
inline void draw_box_muller_uniforms(std::uint64_t* s, double& u1,
                                     double& u2) {
  do {
    u1 = to_unit_double(xoshiro_next(s));
  } while (u1 <= 1e-300);
  u2 = to_unit_double(xoshiro_next(s));
}

constexpr double kTwoPi = 2.0 * 3.141592653589793238462643;
}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed expansion: xoshiro state must not be all-zero; splitmix64 of any
  // seed guarantees that with overwhelming probability, and we force a
  // non-zero word as a belt-and-braces measure.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() { return xoshiro_next(s_.data()); }

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Lemire-style rejection: draw until the value falls in the largest
  // multiple of `bound` that fits in 64 bits.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

float Rng::next_float() {
  return static_cast<float>(next_u64() >> 40) * 0x1.0p-24F;
}

double Rng::next_double() { return to_unit_double(next_u64()); }

float Rng::next_normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  double u2 = 0.0;
  draw_box_muller_uniforms(s_.data(), u1, u2);
  float z0 = 0.0F;
  detail::box_muller(u1, u2, z0, cached_normal_);
  has_cached_normal_ = true;
  return z0;
}

void Rng::next_normals(float* out, std::size_t n) {
  if (n == 0) return;
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    *out++ = cached_normal_;
    --n;
  }
  // Whole pairs go through the bulk transform; the state lives in locals
  // meanwhile so the uniform loop keeps it in registers.
  std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
  double u1[detail::kNormalChunkPairs];
  double u2[detail::kNormalChunkPairs];
  for (std::size_t pairs = n / 2; pairs > 0;) {
    const std::size_t m = std::min(pairs, detail::kNormalChunkPairs);
    for (std::size_t i = 0; i < m; ++i) {
      draw_box_muller_uniforms(s, u1[i], u2[i]);
    }
    detail::box_muller_pairs(u1, u2, m, out);
    out += 2 * m;
    pairs -= m;
  }
  for (int w = 0; w < 4; ++w) s_[w] = s[w];
  // An odd count ends on the first half of a pair; its second is cached.
  if (n % 2 != 0) *out = next_normal();
}

void Rng::add_normals(float* x, std::size_t n, float scale) {
  float z[2 * detail::kNormalChunkPairs];
  while (n > 0) {
    const std::size_t m = std::min(n, 2 * detail::kNormalChunkPairs);
    next_normals(z, m);
    for (std::size_t i = 0; i < m; ++i) x[i] += scale * z[i];
    x += m;
    n -= m;
  }
}

void Rng::fill_normal(std::vector<float>& out, float mean, float stddev) {
  next_normals(out.data(), out.size());
  for (auto& v : out) v = mean + stddev * v;
}

void Rng::fill_uniform(std::vector<float>& out, float lo, float hi) {
  for (auto& v : out) v = lo + (hi - lo) * next_float();
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(next_below(i));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream_id) {
  // Two rounds of splitmix over a mix of seed and stream id. The golden-ratio
  // multiplier decorrelates adjacent stream ids.
  std::uint64_t state = seed ^ (stream_id * 0x9e3779b97f4a7c15ULL + 0x85ebca6bULL);
  (void)splitmix64(state);
  return splitmix64(state);
}

namespace detail {

void box_muller(double u1, double u2, float& z0, float& z1) {
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = kTwoPi * u2;
  z1 = static_cast<float>(radius * std::sin(angle));
  z0 = static_cast<float>(radius * std::cos(angle));
}

#if defined(__AVX2__) && defined(__FMA__)
namespace {

// log(x) for 4 normal doubles x > 0, to about 2^-51 relative error. The
// exponent split x = 2^e * m with m in [sqrt(1/2), sqrt(2)) is made in the
// integer domain; then log(m) = 2 atanh(s), s = (m - 1) / (m + 1), |s| <=
// 0.1716, by its series through s^19 (the first dropped term is below
// 2^-55 of the sum).
inline __m256d log4(__m256d x) {
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i one_bits = _mm256_set1_epi64x(0x3ff0000000000000LL);
  // Adding 1.0 - sqrt(1/2) in bit space carries into the exponent field
  // exactly when the mantissa reaches sqrt(2).
  const __m256i t = _mm256_add_epi64(
      bits, _mm256_set1_epi64x(0x3ff0000000000000LL - 0x3fe6a09e667f3bcdLL));
  const __m256i biased_e = _mm256_srli_epi64(t, 52);
  const __m256d m = _mm256_castsi256_pd(_mm256_add_epi64(
      _mm256_sub_epi64(bits, _mm256_slli_epi64(biased_e, 52)), one_bits));
  // biased_e (< 2^11) to double through the 2^52 magic number.
  const __m256d e = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          biased_e, _mm256_set1_epi64x(0x4330000000000000LL))),
      _mm256_set1_pd(0x1p52 + 1023.0));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d s =
      _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d z = _mm256_mul_pd(s, s);
  __m256d p = _mm256_set1_pd(1.0 / 19);
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 17));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 15));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 13));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 11));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 9));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 7));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 5));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 3));
  p = _mm256_fmadd_pd(p, z, one);
  const __m256d log_m = _mm256_mul_pd(_mm256_add_pd(s, s), p);
  return _mm256_fmadd_pd(e, _mm256_set1_pd(0.69314718055994530942), log_m);
}

// cos and sin of 4 angles in [0, 2 pi), to about 2^-52 relative error.
// Cody-Waite reduction r = a - k pi/2, k = round(a * 2/pi) in [0, 4], with a
// two-part pi/2: the first step is exact (the product is exact inside the
// FMA and the difference is representable), so |r - exact| <= ulp(r)/2 + 2^-106.
// Taylor series on |r| <= pi/4: sin through r^15, cos through r^16.
inline void sincos4(__m256d a, __m256d& c, __m256d& s) {
  const __m256d k = _mm256_round_pd(
      _mm256_mul_pd(a, _mm256_set1_pd(0.63661977236758134308)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(k, _mm256_set1_pd(1.5707963267948966), a);
  r = _mm256_fnmadd_pd(k, _mm256_set1_pd(6.123233995736766e-17), r);
  const __m256d z = _mm256_mul_pd(r, r);

  __m256d ps = _mm256_set1_pd(-1.0 / 1307674368000.0);
  ps = _mm256_fmadd_pd(ps, z, _mm256_set1_pd(1.0 / 6227020800.0));
  ps = _mm256_fmadd_pd(ps, z, _mm256_set1_pd(-1.0 / 39916800.0));
  ps = _mm256_fmadd_pd(ps, z, _mm256_set1_pd(1.0 / 362880.0));
  ps = _mm256_fmadd_pd(ps, z, _mm256_set1_pd(-1.0 / 5040.0));
  ps = _mm256_fmadd_pd(ps, z, _mm256_set1_pd(1.0 / 120.0));
  ps = _mm256_fmadd_pd(ps, z, _mm256_set1_pd(-1.0 / 6.0));
  const __m256d sin_r = _mm256_fmadd_pd(_mm256_mul_pd(ps, z), r, r);

  __m256d pc = _mm256_set1_pd(1.0 / 20922789888000.0);
  pc = _mm256_fmadd_pd(pc, z, _mm256_set1_pd(-1.0 / 87178291200.0));
  pc = _mm256_fmadd_pd(pc, z, _mm256_set1_pd(1.0 / 479001600.0));
  pc = _mm256_fmadd_pd(pc, z, _mm256_set1_pd(-1.0 / 3628800.0));
  pc = _mm256_fmadd_pd(pc, z, _mm256_set1_pd(1.0 / 40320.0));
  pc = _mm256_fmadd_pd(pc, z, _mm256_set1_pd(-1.0 / 720.0));
  pc = _mm256_fmadd_pd(pc, z, _mm256_set1_pd(1.0 / 24.0));
  pc = _mm256_fmadd_pd(pc, z, _mm256_set1_pd(-0.5));
  const __m256d cos_r = _mm256_fmadd_pd(pc, z, _mm256_set1_pd(1.0));

  // Quadrant q = k mod 4: odd q swaps cos and sin, cos is negated for
  // q in {1, 2} and sin for q in {2, 3}.
  const __m256i q = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k));
  const __m256d swap = _mm256_castsi256_pd(_mm256_slli_epi64(q, 63));
  const __m256i cos_sign = _mm256_slli_epi64(
      _mm256_add_epi64(q, _mm256_set1_epi64x(1)), 62);
  const __m256i sin_sign = _mm256_slli_epi64(q, 62);
  const __m256i sign_bit = _mm256_set1_epi64x(0x8000000000000000ULL);
  c = _mm256_xor_pd(_mm256_blendv_pd(cos_r, sin_r, swap),
                    _mm256_castsi256_pd(_mm256_and_si256(cos_sign, sign_bit)));
  s = _mm256_xor_pd(_mm256_blendv_pd(sin_r, cos_r, swap),
                    _mm256_castsi256_pd(_mm256_and_si256(sin_sign, sign_bit)));
}

// The float that every double within `err` of d rounds to, as int bits,
// with all-ones in `ok` lanes where [d - err, d + err] rounds to one float.
inline __m128 proven_float(__m256d d, __m256d err, __m128i& ok) {
  const __m128 lo = _mm256_cvtpd_ps(_mm256_sub_pd(d, err));
  const __m128 hi = _mm256_cvtpd_ps(_mm256_add_pd(d, err));
  ok = _mm_cmpeq_epi32(_mm_castps_si128(lo), _mm_castps_si128(hi));
  return lo;
}

}  // namespace

// Four pairs per iteration. A pair is kept only when, for both of its
// values D, the interval [D - E, D + E] with E = 2^-40 |D| + 2^-60 radius
// rounds to a single float: the vector log and sincos above and libm's are
// each far inside that bound of the exact values, and radius and angle are
// computed by the very operations box_muller() uses (sqrt and the 2 pi
// product are correctly rounded), so the scalar double lies in the interval
// and rounds to the same float. Every other pair, and the n mod 4 tail, is
// recomputed by box_muller().
std::size_t box_muller_pairs(const double* u1, const double* u2,
                             std::size_t n, float* z) {
  std::size_t fallbacks = 0;
  std::size_t i = 0;
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  for (; i + 4 <= n; i += 4) {
    const __m256d radius = _mm256_sqrt_pd(_mm256_mul_pd(
        _mm256_set1_pd(-2.0), log4(_mm256_loadu_pd(u1 + i))));
    const __m256d angle =
        _mm256_mul_pd(_mm256_set1_pd(kTwoPi), _mm256_loadu_pd(u2 + i));
    __m256d cos_a;
    __m256d sin_a;
    sincos4(angle, cos_a, sin_a);
    const __m256d dc = _mm256_mul_pd(radius, cos_a);
    const __m256d ds = _mm256_mul_pd(radius, sin_a);
    const __m256d abs_err = _mm256_mul_pd(radius, _mm256_set1_pd(0x1p-60));
    const __m256d rel = _mm256_set1_pd(0x1p-40);
    __m128i ok_c;
    __m128i ok_s;
    const __m128 fc = proven_float(
        dc, _mm256_fmadd_pd(_mm256_and_pd(dc, abs_mask), rel, abs_err), ok_c);
    const __m128 fs = proven_float(
        ds, _mm256_fmadd_pd(_mm256_and_pd(ds, abs_mask), rel, abs_err), ok_s);
    float* out = z + 2 * i;
    _mm_storeu_ps(out, _mm_unpacklo_ps(fc, fs));
    _mm_storeu_ps(out + 4, _mm_unpackhi_ps(fc, fs));
    const int ok = _mm_movemask_ps(_mm_castsi128_ps(_mm_and_si128(ok_c, ok_s)));
    if (ok != 0xF) {
      for (int lane = 0; lane < 4; ++lane) {
        if ((ok >> lane & 1) != 0) continue;
        const std::size_t j = i + static_cast<std::size_t>(lane);
        box_muller(u1[j], u2[j], z[2 * j], z[2 * j + 1]);
        ++fallbacks;
      }
    }
  }
  for (; i < n; ++i) {
    box_muller(u1[i], u2[i], z[2 * i], z[2 * i + 1]);
    ++fallbacks;
  }
  return fallbacks;
}
#else
std::size_t box_muller_pairs(const double* u1, const double* u2,
                             std::size_t n, float* z) {
  for (std::size_t i = 0; i < n; ++i) {
    box_muller(u1[i], u2[i], z[2 * i], z[2 * i + 1]);
  }
  return n;
}
#endif

}  // namespace detail

}  // namespace rpol

#include "lsh/pstable.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "obs/obs.h"
#include "tensor/rng.h"

namespace rpol::lsh {
namespace {

// floor((dot + offset) / r) as an int64. The cast is undefined for NaN,
// +-inf and anything outside [-2^63, 2^63), all of which a worker can
// reach (inf weights re-execute to a NaN model). Those buckets are pinned
// to INT64_MIN, the value x86's cvttsd2si produces for them.
std::int64_t bucket_index(double dot, double offset, double r) {
  const double v = std::floor((dot + offset) / r);
  if (!(v >= -0x1p63 && v < 0x1p63)) {
    return std::numeric_limits<std::int64_t>::min();
  }
  return static_cast<std::int64_t>(v);
}

// One row's dot product, summed in increasing d: the reference order every
// path below reproduces bit for bit.
double projection_dot(const float* proj, const float* x, std::int64_t dim) {
  double dot = 0.0;
  for (std::int64_t d = 0; d < dim; ++d) {
    dot += static_cast<double>(proj[d]) * x[d];
  }
  return dot;
}

#if defined(__AVX2__)
// Dot products of 4*kGroups consecutive projection rows with x in ONE pass
// over d. Each d-step loads 4 floats from each row, transposes every 4x4
// tile so a register holds one d across 4 rows, and adds the exact
// float*float products into that row's lane in increasing d with separate
// mul and add — the same sequence of roundings as `dot += p[d] * x[d]`.
template <int kGroups>
void block_dots(const float* rows, std::int64_t dim, const float* x,
                double* out) {
  __m256d acc[kGroups];
  for (int g = 0; g < kGroups; ++g) acc[g] = _mm256_setzero_pd();
  std::int64_t d = 0;
  for (; d + 4 <= dim; d += 4) {
    const __m256d x0 = _mm256_set1_pd(x[d]);
    const __m256d x1 = _mm256_set1_pd(x[d + 1]);
    const __m256d x2 = _mm256_set1_pd(x[d + 2]);
    const __m256d x3 = _mm256_set1_pd(x[d + 3]);
    for (int g = 0; g < kGroups; ++g) {
      const float* p = rows + static_cast<std::size_t>(4 * g * dim + d);
      __m128 c0 = _mm_loadu_ps(p);
      __m128 c1 = _mm_loadu_ps(p + dim);
      __m128 c2 = _mm_loadu_ps(p + 2 * dim);
      __m128 c3 = _mm_loadu_ps(p + 3 * dim);
      _MM_TRANSPOSE4_PS(c0, c1, c2, c3);  // cj = column d+j of the 4 rows
      acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(_mm256_cvtps_pd(c0), x0));
      acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(_mm256_cvtps_pd(c1), x1));
      acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(_mm256_cvtps_pd(c2), x2));
      acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(_mm256_cvtps_pd(c3), x3));
    }
  }
  for (int g = 0; g < kGroups; ++g) _mm256_storeu_pd(out + 4 * g, acc[g]);
  for (int i = 0; i < 4 * kGroups; ++i) {
    const float* p = rows + static_cast<std::size_t>(i * dim);
    for (std::int64_t e = d; e < dim; ++e) {
      out[i] += static_cast<double>(p[e]) * x[e];
    }
  }
}
#endif

}  // namespace

bool lsh_match(const LshDigest& a, const LshDigest& b) {
  if (a.groups.size() != b.groups.size()) return false;
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    if (digest_equal(a.groups[g], b.groups[g])) return true;
  }
  return false;
}

Bytes serialize_lsh_digest(const LshDigest& digest) {
  Bytes out;
  append_u64(out, digest.groups.size());
  for (const auto& g : digest.groups) out.insert(out.end(), g.begin(), g.end());
  return out;
}

PStableLsh::PStableLsh(const LshConfig& config) : config_(config) {
  if (config_.dim <= 0) throw std::invalid_argument("LSH dim must be positive");
  if (config_.params.k < 1 || config_.params.l < 1 || config_.params.r <= 0.0) {
    throw std::invalid_argument("invalid LSH parameters");
  }
  obs::count("lsh.family_build", 1);
  const std::int64_t rows =
      static_cast<std::int64_t>(config_.params.k) * config_.params.l;
  Rng rng(derive_seed(config_.seed, /*stream=*/0x15A));
  projections_.resize(static_cast<std::size_t>(rows * config_.dim));
  rng.fill_normal(projections_, 0.0F, 1.0F);
  offsets_.resize(static_cast<std::size_t>(rows));
  for (auto& b : offsets_) b = rng.next_double() * config_.params.r;
}

std::vector<std::vector<std::int64_t>> PStableLsh::buckets(
    const std::vector<float>& x) const {
  const std::int64_t dim = config_.dim;
  if (static_cast<std::int64_t>(x.size()) != dim) {
    throw std::invalid_argument("LSH input dimension mismatch");
  }
  const int k = config_.params.k, l = config_.params.l;
  const std::int64_t rows = static_cast<std::int64_t>(k) * l;
  const float* proj = projections_.data();
  std::vector<double> dots(static_cast<std::size_t>(rows));
  std::int64_t row = 0;
#if defined(__AVX2__)
  // 16-row blocks, then one 4/8/12-row block: at most 3 rows go scalar.
  for (; row + 16 <= rows; row += 16) {
    block_dots<4>(proj + row * dim, dim, x.data(), &dots[row]);
  }
  switch ((rows - row) / 4) {
    case 3: block_dots<3>(proj + row * dim, dim, x.data(), &dots[row]); break;
    case 2: block_dots<2>(proj + row * dim, dim, x.data(), &dots[row]); break;
    case 1: block_dots<1>(proj + row * dim, dim, x.data(), &dots[row]); break;
    default: break;
  }
  row += (rows - row) / 4 * 4;
#endif
  for (; row < rows; ++row) {
    dots[static_cast<std::size_t>(row)] =
        projection_dot(proj + row * dim, x.data(), dim);
  }

  std::vector<std::vector<std::int64_t>> out(static_cast<std::size_t>(l));
  for (int g = 0; g < l; ++g) {
    auto& group = out[static_cast<std::size_t>(g)];
    group.resize(static_cast<std::size_t>(k));
    for (int f = 0; f < k; ++f) {
      const std::size_t i = static_cast<std::size_t>(g) * k + f;
      group[static_cast<std::size_t>(f)] =
          bucket_index(dots[i], offsets_[i], config_.params.r);
    }
  }
  return out;
}

LshDigest PStableLsh::hash(const std::vector<float>& x) const {
  const auto bucket_values = buckets(x);
  LshDigest digest;
  digest.groups.reserve(bucket_values.size());
  for (const auto& group : bucket_values) {
    Bytes encoded;
    for (const auto v : group) append_i64(encoded, v);
    digest.groups.push_back(sha256(encoded));
  }
  return digest;
}

}  // namespace rpol::lsh

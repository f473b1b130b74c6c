// Unit tests for the tensor substrate: RNG determinism and distribution,
// the pinned normal stream and the bulk normal generator's exactness,
// tensor arithmetic, matmul/im2col kernels, canonical serialization.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "tensor/layout.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace rpol {
namespace {

// ---------------------------------------------------------------------------
// Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, FloatsInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float f = rng.next_float();
    EXPECT_GE(f, 0.0F);
    EXPECT_LT(f, 1.0F);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NormalHasCorrectMoments) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.next_normal();
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(9);
  const auto perm = rng.permutation(257);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, DeriveSeedDecorrelatesStreams) {
  const std::uint64_t s1 = derive_seed(100, 0);
  const std::uint64_t s2 = derive_seed(100, 1);
  EXPECT_NE(s1, s2);
  // Streams from adjacent ids should not be shifted copies.
  Rng a(s1), b(s2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// ---------------------------------------------------------------------------
// Normal stream: pinned bits, and the bulk generator against n scalar draws

std::uint32_t bits_of(float f) { return std::bit_cast<std::uint32_t>(f); }

// n successive next_normal() draws: the oracle next_normals must equal.
std::vector<float> scalar_normals(Rng& rng, std::size_t n) {
  std::vector<float> out(n);
  for (auto& v : out) v = rng.next_normal();
  return out;
}

// Bitwise comparison reporting the first differing index.
void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits_of(got[i]), bits_of(want[i]))
        << what << ": first mismatch at " << i << " of " << got.size();
  }
}

// Bulk and scalar twins of one seed must agree on the floats and on the
// state behind them: the cached variate (the next normal) and the next raw
// draw.
void expect_bulk_matches_scalar(Rng& bulk, Rng& scalar, std::size_t n) {
  std::vector<float> got(n);
  bulk.next_normals(got.data(), n);
  expect_same_bits(got, scalar_normals(scalar, n), "next_normals");
  ASSERT_EQ(bits_of(bulk.next_normal()), bits_of(scalar.next_normal()))
      << "cached variate after n=" << n;
  ASSERT_EQ(bulk.next_u64(), scalar.next_u64()) << "state after n=" << n;
}

// SHA-256 of the little-endian float bytes of the first 2^20 normals. A
// change to the uniforms, the Box-Muller expression or the linked libm's
// log/sin/cos shows here before it shows in any training golden.
TEST(NormalStream, GoldenDigestsOfFirstMillionDraws) {
  const std::pair<std::uint64_t, const char*> golden[] = {
      {1, "6374b71034c84c6fa96c8e22e8a1682f6504d629ce1e51fc485859936446a0b8"},
      {7919,
       "d488145ad0e597efb98019a2780d61c4a33387af0c54add4025b814e4701c68a"},
      {0xC0FFEE,
       "7a3bc374e9b36966c078624e91c926c6edb1d692ebe1220a11f7fdbfe1ed754c"}};
  for (const auto& [seed, want] : golden) {
    Rng rng(seed);
    Sha256 h;
    for (int i = 0; i < (1 << 20); ++i) {
      const std::uint32_t b = bits_of(rng.next_normal());
      const std::uint8_t le[4] = {
          static_cast<std::uint8_t>(b), static_cast<std::uint8_t>(b >> 8),
          static_cast<std::uint8_t>(b >> 16), static_cast<std::uint8_t>(b >> 24)};
      h.update(le, sizeof le);
    }
    EXPECT_EQ(digest_to_hex(h.finish()), want) << "seed " << seed;
  }
}

TEST(NormalStream, BulkEqualsScalarAtEdgeCounts) {
  constexpr std::size_t kChunk = 2 * detail::kNormalChunkPairs;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{7}, kChunk - 1, kChunk, kChunk + 1, 2 * kChunk + 1,
        std::size_t{1000000}}) {
    for (const bool cached : {false, true}) {
      Rng bulk(1000 + n), scalar(1000 + n);
      if (cached) {  // leave a second variate cached ahead of the bulk call
        ASSERT_EQ(bits_of(bulk.next_normal()), bits_of(scalar.next_normal()));
      }
      expect_bulk_matches_scalar(bulk, scalar, n);
    }
  }
}

TEST(NormalStream, BulkAndScalarCallsInterleave) {
  Rng bulk(77), scalar(77);
  Rng sizes(78);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = static_cast<std::size_t>(sizes.next_below(1200));
    std::vector<float> got(n);
    bulk.next_normals(got.data(), n);
    expect_same_bits(got, scalar_normals(scalar, n), "interleaved bulk");
    const std::size_t singles = static_cast<std::size_t>(sizes.next_below(3));
    for (std::size_t i = 0; i < singles; ++i) {
      ASSERT_EQ(bits_of(bulk.next_normal()), bits_of(scalar.next_normal()));
    }
  }
  ASSERT_EQ(bulk.next_u64(), scalar.next_u64());
}

// fill_normal and add_normals keep the per-element float expressions.
TEST(NormalStream, FillAndAddMatchPerElementLoops) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{1537}}) {
    Rng bulk(90 + n), scalar(90 + n);
    std::vector<float> got(n);
    bulk.fill_normal(got, 0.5F, 0.3F);
    std::vector<float> want(n);
    for (auto& v : want) v = 0.5F + 0.3F * scalar.next_normal();
    expect_same_bits(got, want, "fill_normal");
    for (std::size_t i = 0; i < n; ++i) want[i] += 0.01F * scalar.next_normal();
    bulk.add_normals(got.data(), n, 0.01F);
    expect_same_bits(got, want, "add_normals");
    ASSERT_EQ(bulk.next_u64(), scalar.next_u64());
  }
}

// Ten million normals over several seeds, in uneven bulk calls.
TEST(NormalStream, TenMillionBulkNormalsEqualScalar) {
  constexpr std::size_t kPerSeed = 2000003;
  for (const std::uint64_t seed : {3ULL, 5ULL, 8ULL, 13ULL, 21ULL}) {
    Rng bulk(seed), scalar(seed);
    expect_bulk_matches_scalar(bulk, scalar, kPerSeed);
  }
}

// The pair transform at the edges of its inputs: u1 at both ends of its
// range and around the sqrt(1/2) exponent split, u2 one ulp either side of
// the quadrant boundaries, each placed in every lane of a 4-pair group and
// in the scalar tail.
TEST(NormalStream, PairTransformEdgeInputs) {
  const double below_one = std::nextafter(1.0, 0.0);
  const double half_sqrt2 = 0.70710678118654752440;
  std::vector<double> u1s = {0x1p-53,     0x1p-52,   below_one,
                             0.5,         0.25,      std::nextafter(0.5, 0.0),
                             half_sqrt2,  std::nextafter(half_sqrt2, 0.0),
                             std::nextafter(half_sqrt2, 1.0), 0.9999};
  std::vector<double> u2s;
  for (const double q : {0.0, 0.25, 0.5, 0.75}) {
    u2s.push_back(q);
    u2s.push_back(std::nextafter(q, 1.0));
    if (q > 0.0) u2s.push_back(std::nextafter(q, 0.0));
  }
  u2s.push_back(below_one);
  std::vector<double> a;
  std::vector<double> b;
  for (const double u1 : u1s) {
    for (const double u2 : u2s) {
      a.push_back(u1);
      b.push_back(u2);
    }
  }
  for (std::size_t shift = 0; shift < 5; ++shift) {
    std::vector<double> u1(a.begin() + static_cast<std::ptrdiff_t>(shift), a.end());
    std::vector<double> u2(b.begin() + static_cast<std::ptrdiff_t>(shift), b.end());
    std::vector<float> got(2 * u1.size());
    detail::box_muller_pairs(u1.data(), u2.data(), u1.size(), got.data());
    for (std::size_t i = 0; i < u1.size(); ++i) {
      float z0 = 0.0F;
      float z1 = 0.0F;
      detail::box_muller(u1[i], u2[i], z0, z1);
      ASSERT_EQ(bits_of(got[2 * i]), bits_of(z0))
          << "u1=" << u1[i] << " u2=" << u2[i];
      ASSERT_EQ(bits_of(got[2 * i + 1]), bits_of(z1))
          << "u1=" << u1[i] << " u2=" << u2[i];
    }
  }
}

// Distance from d to the nearest midpoint between two adjacent floats, the
// points where float rounding flips.
double distance_to_float_midpoint(double d) {
  const float f = static_cast<float>(d);
  if (static_cast<double>(f) == d) return std::fabs(d);
  const float g = std::nextafter(f, d > f ? INFINITY : -INFINITY);
  return std::fabs(d - 0.5 * (static_cast<double>(f) + static_cast<double>(g)));
}

// The rounding test is what makes the vector path exact: a pair whose
// scalar double lies within 2^-42 |D| of a float midpoint is inside the
// 2^-40 |D| interval of the vector value, so it must be handed to the
// scalar transform, and the returned count must say so for every one. The
// pairs come from the generator's own uniforms; about one in 10^5 is that
// close. On ordinary pairs the vector path keeps nearly every lane.
TEST(NormalStream, NearMidpointPairsFallBackToScalar) {
  constexpr double kTwoPi = 2.0 * 3.141592653589793238462643;
  constexpr std::size_t kWanted = 32;
  std::vector<double> near_u1;
  std::vector<double> near_u2;
  Rng rng(4242);
  while (near_u1.size() < kWanted) {
    double u1 = 0.0;
    do {
      u1 = rng.next_double();
    } while (u1 <= 1e-300);
    const double u2 = rng.next_double();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = kTwoPi * u2;
    for (const double d : {radius * std::cos(angle), radius * std::sin(angle)}) {
      if (distance_to_float_midpoint(d) <= 0x1p-42 * std::fabs(d)) {
        near_u1.push_back(u1);
        near_u2.push_back(u2);
        break;
      }
    }
  }
  std::vector<float> got(2 * kWanted);
  EXPECT_EQ(detail::box_muller_pairs(near_u1.data(), near_u2.data(), kWanted,
                                     got.data()),
            kWanted);
  for (std::size_t i = 0; i < kWanted; ++i) {
    float z0 = 0.0F;
    float z1 = 0.0F;
    detail::box_muller(near_u1[i], near_u2[i], z0, z1);
    ASSERT_EQ(bits_of(got[2 * i]), bits_of(z0)) << "pair " << i;
    ASSERT_EQ(bits_of(got[2 * i + 1]), bits_of(z1)) << "pair " << i;
  }
#if defined(__AVX2__) && defined(__FMA__)
  constexpr std::size_t kOrdinary = 4096;
  std::vector<double> u1(kOrdinary);
  std::vector<double> u2(kOrdinary);
  for (std::size_t i = 0; i < kOrdinary; ++i) {
    u1[i] = 1.0 - rng.next_double();
    u2[i] = rng.next_double();
  }
  std::vector<float> z(2 * kOrdinary);
  EXPECT_LE(detail::box_muller_pairs(u1.data(), u2.data(), kOrdinary, z.data()),
            kOrdinary / 64);
#endif
}

// ---------------------------------------------------------------------------
// Tensor

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.rank(), 2u);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.at(i), 0.0F);
}

TEST(Tensor, DataMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0F, 2.0F, 3.0F}), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at2(2, 1), 6.0F);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, ElementwiseArithmetic) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  a += b;
  EXPECT_EQ(a.at(2), 33.0F);
  a -= b;
  EXPECT_EQ(a.at(1), 2.0F);
  a *= 2.0F;
  EXPECT_EQ(a.at(0), 2.0F);
  a.add_scaled(b, 0.1F);
  EXPECT_NEAR(a.at(2), 9.0F, 1e-5F);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2}), b({3});
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW(a.add_scaled(b, 1.0F), std::invalid_argument);
}

TEST(Tensor, L2NormAndDistance) {
  Tensor a({2}, {3, 4});
  EXPECT_DOUBLE_EQ(a.l2_norm(), 5.0);
  Tensor b({2}, {0, 0});
  EXPECT_DOUBLE_EQ(l2_distance(a, b), 5.0);
  EXPECT_THROW(l2_distance(std::vector<float>{1}, std::vector<float>{1, 2}),
               std::invalid_argument);
}

TEST(Tensor, At4Indexing) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 42.0F;
  EXPECT_EQ(t.at(t.numel() - 1), 42.0F);
}

TEST(Tensor, RandnUsesStddev) {
  Rng rng(13);
  const Tensor t = Tensor::randn({10000}, rng, 0.5F);
  double sq = 0.0;
  for (const float v : t.vec()) sq += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(sq / 10000.0), 0.5, 0.02);
}

// ---------------------------------------------------------------------------
// Ops

TEST(Ops, MatmulHandValues) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c.at2(0, 0), 58.0F);
  EXPECT_EQ(c.at2(0, 1), 64.0F);
  EXPECT_EQ(c.at2(1, 0), 139.0F);
  EXPECT_EQ(c.at2(1, 1), 154.0F);
}

TEST(Ops, MatmulShapeChecks) {
  const Tensor a({2, 3});
  const Tensor b({2, 2});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Ops, TransposedVariantsAgree) {
  Rng rng(17);
  const Tensor a = Tensor::randn({4, 5}, rng);
  const Tensor b = Tensor::randn({5, 6}, rng);
  const Tensor c = matmul(a, b);

  // a^T has shape (5,4): matmul_tn(a^T, b) == a * b.
  Tensor at({5, 4});
  for (std::int64_t i = 0; i < 4; ++i)
    for (std::int64_t j = 0; j < 5; ++j) at.at2(j, i) = a.at2(i, j);
  const Tensor c_tn = matmul_tn(at, b);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c.at(i), c_tn.at(i), 1e-4F);
  }

  // b^T has shape (6,5): matmul_nt(a, b^T) == a * b.
  Tensor bt({6, 5});
  for (std::int64_t i = 0; i < 5; ++i)
    for (std::int64_t j = 0; j < 6; ++j) bt.at2(j, i) = b.at2(i, j);
  const Tensor c_nt = matmul_nt(a, bt);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c.at(i), c_nt.at(i), 1e-4F);
  }
}

TEST(Ops, Im2ColIdentityKernel) {
  // 1x1 kernel, stride 1, no padding: columns are the input itself.
  Conv2dSpec spec{2, 1, 1, 1, 0};
  Tensor input({1, 2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  const Tensor cols = im2col(input, spec);
  EXPECT_EQ(cols.shape(), (Shape{2, 4}));
  EXPECT_EQ(cols.at2(0, 0), 1.0F);
  EXPECT_EQ(cols.at2(1, 3), 8.0F);
}

TEST(Ops, Im2ColPaddingZeroFills) {
  Conv2dSpec spec{1, 1, 3, 1, 1};
  Tensor input({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor cols = im2col(input, spec);
  // Patch row 0 = kernel position (0,0): output (0,0) sees padded zero.
  EXPECT_EQ(cols.at2(0, 0), 0.0F);
  // Center kernel position (1,1) row index = 4: output (0,0) sees input(0,0).
  EXPECT_EQ(cols.at2(4, 0), 1.0F);
}

TEST(Ops, Col2ImIsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining property
  // the conv backward pass relies on.
  Rng rng(23);
  Conv2dSpec spec{3, 2, 3, 2, 1};
  const Shape in_shape{2, 3, 6, 6};
  const Tensor x = Tensor::randn(in_shape, rng);
  const Tensor cols = im2col(x, spec);
  const Tensor y = Tensor::randn(cols.shape(), rng);
  const Tensor back = col2im(y, spec, in_shape);

  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < cols.numel(); ++i) {
    lhs += static_cast<double>(cols.at(i)) * y.at(i);
  }
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x.at(i)) * back.at(i);
  }
  EXPECT_NEAR(lhs, rhs, std::abs(lhs) * 1e-4 + 1e-4);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(29);
  const Tensor logits = Tensor::randn({5, 7}, rng, 3.0F);
  const Tensor probs = softmax_rows(logits);
  for (std::int64_t r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < 7; ++c) {
      EXPECT_GT(probs.at2(r, c), 0.0F);
      sum += probs.at2(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxNumericallyStable) {
  const Tensor logits({1, 3}, {1000.0F, 1000.0F, 1000.0F});
  const Tensor probs = softmax_rows(logits);
  for (std::int64_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(probs.at2(0, c), 1.0F / 3.0F, 1e-5F);
  }
}

TEST(Ops, ArgmaxRow) {
  const Tensor t({2, 3}, {1, 5, 2, 9, 0, 3});
  EXPECT_EQ(argmax_row(t, 0), 1);
  EXPECT_EQ(argmax_row(t, 1), 0);
}

// ---------------------------------------------------------------------------
// Blocked layouts & packed GEMM (tensor/layout.h). Parity expectations here
// are BITWISE (EXPECT_EQ on floats): the direct/packed kernels promise
// bit-identical results to the im2col + GEMM fallback, not merely close
// ones — that is what keeps checkpoint hashes stable across paths.

TEST(Layout, NchwBlockRoundTrip) {
  Rng rng(41);
  for (const std::int64_t c : {1, 5, 8, 19}) {
    const Tensor x = Tensor::randn({2, c, 3, 4}, rng);
    const Tensor blocked = layout::nchw_to_nchw8c(x);
    EXPECT_EQ(blocked.shape(), (Shape{2, layout::blocks(c), 3, 4, 8}));
    const Tensor back = layout::nchw8c_to_nchw(blocked, c);
    ASSERT_EQ(back.shape(), x.shape());
    for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(back.at(i), x.at(i));
  }
}

TEST(Layout, NchwBlockPadsLanesWithZeros) {
  Rng rng(43);
  const std::int64_t c = 5;  // 3 padded lanes in the single block
  const Tensor x = Tensor::randn({1, c, 2, 2}, rng);
  const Tensor blocked = layout::nchw_to_nchw8c(x);
  const float* p = blocked.data();
  for (std::int64_t i = 0; i < 2 * 2; ++i) {
    for (std::int64_t lane = c; lane < 8; ++lane) {
      EXPECT_EQ(p[i * 8 + lane], 0.0F);
    }
  }
}

TEST(Layout, WeightBlockRoundTrip) {
  Rng rng(47);
  for (const auto& [o, c, k] : {std::tuple<std::int64_t, std::int64_t,
                                           std::int64_t>{7, 5, 3},
                                {8, 8, 1},
                                {16, 3, 3}}) {
    const Conv2dSpec spec{c, o, k, 1, k / 2};
    const Tensor w = Tensor::randn({o, c * k * k}, rng);
    const Tensor blocked = layout::oihw_to_oihw8i8o(w, spec);
    const Tensor back = layout::oihw8i8o_to_oihw(blocked, spec);
    ASSERT_EQ(back.shape(), w.shape());
    for (std::int64_t i = 0; i < w.numel(); ++i) EXPECT_EQ(back.at(i), w.at(i));
  }
}

TEST(Layout, PackedNtGemmBitwiseEqualsUnpacked) {
  Rng rng(53);
  // n = 11 exercises the zero-padded final panel; m = 5 the GEMM row tail.
  const Tensor a = Tensor::randn({5, 13}, rng);
  const Tensor b = Tensor::randn({11, 13}, rng);
  const Tensor ref = matmul_nt(a, b);
  const PackedPanels packed = pack_nt_panels(b);
  const Tensor got = matmul_nt_packed(a, packed);
  ASSERT_EQ(got.shape(), ref.shape());
  for (std::int64_t i = 0; i < ref.numel(); ++i) EXPECT_EQ(got.at(i), ref.at(i));
}

TEST(Layout, PackedNtGemmShapeMismatchThrows) {
  const Tensor a({2, 4});
  const PackedPanels packed = pack_nt_panels(Tensor({3, 5}));
  EXPECT_THROW(matmul_nt_packed(a, packed), std::invalid_argument);
}

// Reference conv forward: the exact im2col + GEMM computation Conv2d's
// fallback path performs, producing NCHW output.
Tensor conv_ref_forward(const Tensor& x, const Tensor& w, const Conv2dSpec& spec) {
  const Tensor cols = im2col(x, spec);
  const Tensor gemm = matmul(w, cols);
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = spec.out_size(x.dim(2)), ow = spec.out_size(x.dim(3));
  Tensor out({n, spec.out_channels, oh, ow});
  for (std::int64_t img = 0; img < n; ++img)
    for (std::int64_t oc = 0; oc < spec.out_channels; ++oc)
      for (std::int64_t i = 0; i < oh * ow; ++i)
        out.at((img * spec.out_channels + oc) * oh * ow + i) =
            gemm.at2(oc, img * oh * ow + i);
  return out;
}

TEST(Layout, DirectForwardBitwiseEqualsIm2colGemm) {
  Rng rng(59);
  const std::vector<Conv2dSpec> specs = {
      {5, 7, 3, 1, 1},   // unaligned channels, 3x3 stride 1
      {5, 7, 3, 2, 1},   // 3x3 stride 2
      {8, 16, 1, 1, 0},  // aligned 1x1
      {3, 9, 1, 2, 0},   // 1x1 stride 2
  };
  for (const Conv2dSpec& spec : specs) {
    const Tensor x = Tensor::randn({2, spec.in_channels, 6, 6}, rng);
    const Tensor w = Tensor::randn(
        {spec.out_channels, spec.in_channels * spec.kernel * spec.kernel}, rng);
    const Tensor ref = conv_ref_forward(x, w, spec);
    const Tensor xb = layout::nchw_to_nchw8c(x, spec.padding);
    const layout::ConvWeightPack pack = layout::make_conv_weight_pack(w, spec);
    const Tensor yb = layout::conv2d_direct_forward(xb, pack.blocked, Tensor(),
                                                    spec, 6, 6);
    const Tensor y = layout::nchw8c_to_nchw(yb, spec.out_channels);
    ASSERT_EQ(y.shape(), ref.shape());
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      ASSERT_EQ(y.at(i), ref.at(i))
          << "kernel=" << spec.kernel << " stride=" << spec.stride
          << " element " << i;
    }
  }
}

TEST(Layout, DirectBackwardWeightsBitwiseEqualsGemm) {
  Rng rng(61);
  for (const Conv2dSpec spec :
       {Conv2dSpec{5, 7, 3, 1, 1}, Conv2dSpec{4, 6, 3, 2, 1},
        Conv2dSpec{5, 9, 1, 1, 0}}) {
    const std::int64_t oh = spec.out_size(6), ow = spec.out_size(6);
    const Tensor x = Tensor::randn({2, spec.in_channels, 6, 6}, rng);
    const Tensor dy = Tensor::randn({2, spec.out_channels, oh, ow}, rng);
    // Reference: dW = dY_gemm * cols^T.
    const Tensor cols = im2col(x, spec);
    Tensor dy_gemm({spec.out_channels, 2 * oh * ow});
    for (std::int64_t img = 0; img < 2; ++img)
      for (std::int64_t oc = 0; oc < spec.out_channels; ++oc)
        for (std::int64_t i = 0; i < oh * ow; ++i)
          dy_gemm.at2(oc, img * oh * ow + i) =
              dy.at((img * spec.out_channels + oc) * oh * ow + i);
    const Tensor ref = matmul_nt(dy_gemm, cols);
    Tensor got(ref.shape());
    layout::conv2d_direct_backward_weights(
        layout::nchw_to_nchw8c(dy), layout::nchw_to_nchw8c(x, spec.padding),
        spec, 6, 6, got);
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      ASSERT_EQ(got.at(i), ref.at(i))
          << "kernel=" << spec.kernel << " stride=" << spec.stride
          << " element " << i;
    }
  }
}

TEST(Layout, DirectBackwardDataBitwiseEqualsGemm) {
  Rng rng(67);
  for (const Conv2dSpec spec :
       {Conv2dSpec{5, 7, 3, 1, 1}, Conv2dSpec{4, 6, 3, 2, 1},
        Conv2dSpec{5, 9, 1, 1, 0}}) {
    const Shape in_shape{2, spec.in_channels, 6, 6};
    const std::int64_t oh = spec.out_size(6), ow = spec.out_size(6);
    const Tensor w = Tensor::randn(
        {spec.out_channels, spec.in_channels * spec.kernel * spec.kernel}, rng);
    const Tensor dy = Tensor::randn({2, spec.out_channels, oh, ow}, rng);
    Tensor dy_gemm({spec.out_channels, 2 * oh * ow});
    for (std::int64_t img = 0; img < 2; ++img)
      for (std::int64_t oc = 0; oc < spec.out_channels; ++oc)
        for (std::int64_t i = 0; i < oh * ow; ++i)
          dy_gemm.at2(oc, img * oh * ow + i) =
              dy.at((img * spec.out_channels + oc) * oh * ow + i);
    const Tensor ref = col2im(matmul_tn(w, dy_gemm), spec, in_shape);
    const layout::ConvWeightPack pack = layout::make_conv_weight_pack(w, spec);
    const Tensor got = layout::conv2d_direct_backward_data(dy, pack.transposed,
                                                           spec, in_shape);
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      ASSERT_EQ(got.at(i), ref.at(i))
          << "kernel=" << spec.kernel << " stride=" << spec.stride
          << " element " << i;
    }
  }
}

TEST(Layout, DirectConvGateDefaultsOnAndOverrides) {
  // The build never sets RPOL_DIRECT_CONV in tier-1 runs, so the default
  // must be enabled; the programmatic override must win in both directions.
  const bool initial = layout::direct_conv_enabled();
  layout::set_direct_conv_enabled(false);
  EXPECT_FALSE(layout::direct_conv_enabled());
  layout::set_direct_conv_enabled(true);
  EXPECT_TRUE(layout::direct_conv_enabled());
  layout::set_direct_conv_enabled(initial);
}

TEST(Layout, DirectConvSupportsOnlySmallKernels) {
  EXPECT_TRUE(layout::direct_conv_supports(Conv2dSpec{3, 8, 3, 1, 1}));
  EXPECT_TRUE(layout::direct_conv_supports(Conv2dSpec{3, 8, 1, 1, 0}));
  EXPECT_FALSE(layout::direct_conv_supports(Conv2dSpec{3, 8, 7, 2, 3}));
  EXPECT_FALSE(layout::direct_conv_supports(Conv2dSpec{3, 8, 5, 1, 2}));
}

TEST(Tensor, ResizeReuseKeepsCapacity) {
  Tensor t({4, 4});
  t.fill(1.0F);
  const float* before = t.data();
  t.clear_keep_capacity();
  EXPECT_EQ(t.numel(), 0);
  t.resize_reuse({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.data(), before);  // vector capacity was reused, no realloc
}

// ---------------------------------------------------------------------------
// Serialization

TEST(Serialize, PrimitivesRoundTrip) {
  Bytes buf;
  append_u64(buf, 0xDEADBEEFCAFEF00DULL);
  append_i64(buf, -42);
  append_f32(buf, 3.25F);
  std::size_t off = 0;
  EXPECT_EQ(read_u64(buf, off), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(read_i64(buf, off), -42);
  EXPECT_EQ(read_f32(buf, off), 3.25F);
  EXPECT_EQ(off, buf.size());
}

TEST(Serialize, TruncatedBufferThrows) {
  Bytes buf;
  append_u64(buf, 1);
  buf.pop_back();
  std::size_t off = 0;
  EXPECT_THROW(read_u64(buf, off), std::out_of_range);
}

TEST(Serialize, TensorRoundTrip) {
  Rng rng(31);
  const Tensor t = Tensor::randn({2, 3, 4}, rng);
  const Bytes buf = serialize_tensor(t);
  std::size_t off = 0;
  const Tensor u = deserialize_tensor(buf, off);
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(u.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(u.at(i), t.at(i));
}

TEST(Serialize, FloatsRoundTrip) {
  const std::vector<float> v{1.5F, -2.25F, 0.0F, 1e-30F};
  const Bytes buf = serialize_floats(v);
  std::size_t off = 0;
  const auto u = deserialize_floats(buf, off);
  EXPECT_EQ(u, v);
}

TEST(Serialize, CanonicalBytesAreStable) {
  // Two identical tensors serialize to identical bytes — the property that
  // makes commitment hashes comparable across parties.
  const Tensor a({2}, {1.0F, -0.0F});
  const Tensor b({2}, {1.0F, -0.0F});
  EXPECT_EQ(serialize_tensor(a), serialize_tensor(b));
}

TEST(Serialize, BadFloatCountThrows) {
  Bytes buf;
  append_u64(buf, 1000);  // claims 1000 floats, provides none
  std::size_t off = 0;
  EXPECT_THROW(deserialize_floats(buf, off), std::invalid_argument);
}

}  // namespace
}  // namespace rpol

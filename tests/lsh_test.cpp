// LSH tests: the analytic collision-probability model is validated against
// Monte-Carlo measurements of the actual hash family; parameter tuning must
// hit the paper's Pr(alpha) >= 95% / Pr(beta) <= 5% working point; and the
// match-probability surface must be monotone in c, k, and l (property
// sweeps, Fig. 1's qualitative content).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "lsh/pstable.h"
#include "lsh/tuning.h"
#include "tensor/rng.h"

namespace rpol::lsh {
namespace {

// Empirical single-function collision rate for distance c and width r.
double empirical_collision_rate(double c, double r, int trials,
                                std::uint64_t seed) {
  // One-dimensional projections suffice: collisions depend only on the
  // projected difference, which is N(0, c^2) for any dimension.
  Rng rng(seed);
  int collisions = 0;
  for (int t = 0; t < trials; ++t) {
    const double x = 10.0 * rng.next_double();
    const double y = x + c * rng.next_normal();
    const double b = r * rng.next_double();
    if (std::floor((x + b) / r) == std::floor((y + b) / r)) ++collisions;
  }
  return static_cast<double>(collisions) / trials;
}

TEST(Probability, NormCdfReferencePoints) {
  EXPECT_NEAR(norm_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(norm_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(norm_cdf(-1.959963985), 0.025, 1e-6);
}

TEST(Probability, CollisionProbabilityLimits) {
  EXPECT_DOUBLE_EQ(collision_probability(0.0, 1.0), 1.0);
  EXPECT_LT(collision_probability(100.0, 1.0), 0.02);
  EXPECT_GT(collision_probability(0.01, 1.0), 0.98);
  EXPECT_THROW(collision_probability(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(collision_probability(-1.0, 1.0), std::invalid_argument);
}

class CollisionMonteCarlo
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(CollisionMonteCarlo, AnalyticMatchesEmpirical) {
  const auto [c, r] = GetParam();
  const double analytic = collision_probability(c, r);
  const double empirical = empirical_collision_rate(c, r, 40000, 1234);
  EXPECT_NEAR(analytic, empirical, 0.015) << "c=" << c << " r=" << r;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CollisionMonteCarlo,
    ::testing::Values(std::pair{0.5, 1.0}, std::pair{1.0, 1.0},
                      std::pair{2.0, 1.0}, std::pair{4.0, 1.0},
                      std::pair{1.0, 4.0}, std::pair{0.25, 2.0},
                      std::pair{3.0, 2.0}));

TEST(Probability, MatchProbabilityMonotoneDecreasingInDistance) {
  const LshParams params{1.0, 4, 4};
  double prev = 1.1;
  for (double c = 0.1; c < 10.0; c *= 1.5) {
    const double p = match_probability(c, params);
    EXPECT_LT(p, prev);
    prev = p;
  }
}

class MatchMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(MatchMonotonicity, IncreasingInLDecreasingInK) {
  const double c = GetParam();
  for (int k = 1; k <= 6; ++k) {
    // More groups (OR) can only raise the match probability.
    double prev_l = -1.0;
    for (int l = 1; l <= 6; ++l) {
      const double p = match_probability(c, {1.0, k, l});
      EXPECT_GE(p + 1e-12, prev_l) << "k=" << k << " l=" << l;
      prev_l = p;
    }
  }
  for (int l = 1; l <= 6; ++l) {
    // More functions per group (AND) can only lower it.
    double prev_k = 2.0;
    for (int k = 1; k <= 6; ++k) {
      const double p = match_probability(c, {1.0, k, l});
      EXPECT_LE(p - 1e-12, prev_k) << "k=" << k << " l=" << l;
      prev_k = p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, MatchMonotonicity,
                         ::testing::Values(0.2, 0.5, 1.0, 2.0, 5.0));

TEST(Probability, MatchProbabilityFormula) {
  // Pr = 1 - (1 - p^k)^l must reduce to p for k = l = 1.
  const double p1 = collision_probability(0.7, 1.3);
  EXPECT_NEAR(match_probability(0.7, {1.3, 1, 1}), p1, 1e-12);
}

TEST(Probability, FnrFprIntegralsBehave) {
  // A tight error distribution near 0 with a tolerant family => tiny FNR.
  const LshParams params = optimize_lsh(0.1, 0.5, 16).params;
  const double fnr = expected_fnr(normal_pdf(0.08, 0.01), 0.5, params);
  EXPECT_LT(fnr, 0.10);
  // Spoof distances far beyond beta => tiny FPR.
  const double fpr = expected_fpr(normal_pdf(2.0, 0.1), 0.5, 4.0, params);
  EXPECT_LT(fpr, 0.10);
  EXPECT_THROW(expected_fnr(normal_pdf(0, 1), 0.0, params), std::invalid_argument);
  EXPECT_THROW(expected_fpr(normal_pdf(0, 1), 1.0, 1.0, params),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Tuning

TEST(Tuning, NearPaperWorkingPointAtK16) {
  // Sec. VII-D uses beta = 5 alpha with K_lsh = 16 and quotes the working
  // point Pr(alpha) = 95% / Pr(beta) = 5%. Under the strict k*l <= K budget
  // of Eq. (6) the exactly-95/5 point is infeasible at K = 16 (the Pareto
  // frontier passes through ~92.9% / 6.3%); the optimizer must land on that
  // frontier for every scale of alpha.
  for (const double alpha : {0.01, 0.1, 1.0, 10.0}) {
    const TuningResult result = optimize_lsh(alpha, 5.0 * alpha, 16);
    EXPECT_GE(result.pr_alpha, 0.92) << "alpha=" << alpha;
    EXPECT_LE(result.pr_beta, 0.07) << "alpha=" << alpha;
    EXPECT_LE(result.params.k * result.params.l, 16);
  }
}

TEST(Tuning, HitsPaperWorkingPointAtK24) {
  // A budget of 24 hash functions reaches the paper's quoted guarantees.
  for (const double alpha : {0.01, 1.0, 10.0}) {
    const TuningResult result = optimize_lsh(alpha, 5.0 * alpha, 24);
    EXPECT_GE(result.pr_alpha, 0.95) << "alpha=" << alpha;
    EXPECT_LE(result.pr_beta, 0.05) << "alpha=" << alpha;
  }
}

TEST(Tuning, ScaleInvariance) {
  // The optimum is scale-free: (alpha, beta) and (10 alpha, 10 beta) give
  // the same k, l and probabilities with r scaled accordingly.
  const TuningResult a = optimize_lsh(0.1, 0.5, 16);
  const TuningResult b = optimize_lsh(1.0, 5.0, 16);
  EXPECT_EQ(a.params.k, b.params.k);
  EXPECT_EQ(a.params.l, b.params.l);
  EXPECT_NEAR(a.pr_alpha, b.pr_alpha, 0.02);
  EXPECT_NEAR(a.pr_beta, b.pr_beta, 0.02);
}

TEST(Tuning, RespectsBudget) {
  for (const int budget : {1, 2, 4, 8, 32}) {
    const TuningResult result = optimize_lsh(1.0, 5.0, budget);
    EXPECT_LE(result.params.k * result.params.l, budget);
    EXPECT_GE(result.params.k, 1);
    EXPECT_GE(result.params.l, 1);
  }
}

TEST(Tuning, LargerBudgetNeverHurts) {
  const TuningResult small = optimize_lsh(1.0, 3.0, 4);
  const TuningResult large = optimize_lsh(1.0, 3.0, 64);
  EXPECT_LE(large.objective, small.objective + 1e-12);
}

TEST(Tuning, TighterSeparationIsHarder) {
  const TuningResult tight = optimize_lsh(1.0, 1.5, 16);
  const TuningResult wide = optimize_lsh(1.0, 10.0, 16);
  EXPECT_LT(wide.objective, tight.objective);
}

TEST(Tuning, InvalidInputsThrow) {
  EXPECT_THROW(optimize_lsh(0.0, 1.0, 16), std::invalid_argument);
  EXPECT_THROW(optimize_lsh(2.0, 1.0, 16), std::invalid_argument);
  EXPECT_THROW(optimize_lsh(1.0, 2.0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PStableLsh (the actual hash family)

std::vector<float> random_vec(std::int64_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(dim));
  rng.fill_normal(v, 0.0F, 1.0F);
  return v;
}

std::vector<float> displaced(const std::vector<float>& v, double distance,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> direction(v.size());
  rng.fill_normal(direction, 0.0F, 1.0F);
  double norm = 0.0;
  for (const float d : direction) norm += static_cast<double>(d) * d;
  norm = std::sqrt(norm);
  std::vector<float> out = v;
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] += static_cast<float>(distance * direction[i] / norm);
  }
  return out;
}

TEST(PStableLsh, DeterministicForConfig) {
  const LshConfig cfg{{1.0, 3, 4}, 64, 99};
  PStableLsh a(cfg), b(cfg);
  const auto v = random_vec(64, 5);
  EXPECT_TRUE(lsh_match(a.hash(v), b.hash(v)));
  EXPECT_EQ(a.buckets(v), b.buckets(v));
}

TEST(PStableLsh, DifferentSeedsDifferentFamilies) {
  LshConfig cfg{{1.0, 3, 4}, 64, 99};
  PStableLsh a(cfg);
  cfg.seed = 100;
  PStableLsh b(cfg);
  const auto v = random_vec(64, 5);
  EXPECT_NE(a.buckets(v), b.buckets(v));
}

TEST(PStableLsh, IdenticalVectorsAlwaysMatch) {
  const LshConfig cfg{{0.5, 4, 4}, 128, 7};
  PStableLsh lsh(cfg);
  for (std::uint64_t s = 0; s < 10; ++s) {
    const auto v = random_vec(128, s);
    EXPECT_TRUE(lsh_match(lsh.hash(v), lsh.hash(v)));
  }
}

TEST(PStableLsh, DimensionMismatchThrows) {
  const LshConfig cfg{{1.0, 2, 2}, 32, 1};
  PStableLsh lsh(cfg);
  EXPECT_THROW(lsh.hash(random_vec(16, 1)), std::invalid_argument);
}

TEST(PStableLsh, InvalidConfigThrows) {
  EXPECT_THROW(PStableLsh({{1.0, 0, 2}, 32, 1}), std::invalid_argument);
  EXPECT_THROW(PStableLsh({{0.0, 2, 2}, 32, 1}), std::invalid_argument);
  EXPECT_THROW(PStableLsh({{1.0, 2, 2}, 0, 1}), std::invalid_argument);
}

TEST(PStableLsh, EmpiricalMatchRateTracksAnalytic) {
  // Tuned for (alpha=0.5, beta=2.5): vectors at alpha should almost always
  // match; vectors at beta almost never. This is the end-to-end fuzzy
  // matching property RPoLv2 verification relies on.
  const TuningResult tuned = optimize_lsh(0.5, 2.5, 16);
  const LshConfig cfg{tuned.params, 256, 11};

  int near_matches = 0, far_matches = 0;
  constexpr int kTrials = 120;
  for (int t = 0; t < kTrials; ++t) {
    // A fresh family per trial: match probability is over the random family.
    LshConfig trial_cfg = cfg;
    trial_cfg.seed = static_cast<std::uint64_t>(1000 + t);
    PStableLsh lsh(trial_cfg);
    const auto base = random_vec(256, static_cast<std::uint64_t>(t));
    const auto near = displaced(base, 0.5, static_cast<std::uint64_t>(t) + 1);
    const auto far = displaced(base, 2.5, static_cast<std::uint64_t>(t) + 2);
    near_matches += lsh_match(lsh.hash(base), lsh.hash(near)) ? 1 : 0;
    far_matches += lsh_match(lsh.hash(base), lsh.hash(far)) ? 1 : 0;
  }
  EXPECT_GE(near_matches, static_cast<int>(0.85 * kTrials));
  EXPECT_LE(far_matches, static_cast<int>(0.15 * kTrials));
}

TEST(PStableLsh, DigestSerializationStable) {
  const LshConfig cfg{{1.0, 2, 3}, 16, 3};
  PStableLsh lsh(cfg);
  const auto v = random_vec(16, 2);
  const LshDigest d = lsh.hash(v);
  EXPECT_EQ(d.groups.size(), 3u);
  EXPECT_EQ(serialize_lsh_digest(d), serialize_lsh_digest(lsh.hash(v)));
}

TEST(PStableLsh, MatchRequiresSameGroupCount) {
  const LshConfig a_cfg{{1.0, 2, 2}, 16, 3};
  const LshConfig b_cfg{{1.0, 2, 3}, 16, 3};
  PStableLsh a(a_cfg), b(b_cfg);
  const auto v = random_vec(16, 4);
  EXPECT_FALSE(lsh_match(a.hash(v), b.hash(v)));
}

// ---------------------------------------------------------------------------
// The projection kernel against the scalar reference loop

// The family as the constructor draws it, hashed by the scalar loop the
// vector kernel replaced: each row summed in increasing d. Inputs must keep
// every bucket inside the int64 range.
std::vector<std::vector<std::int64_t>> reference_buckets(
    const LshConfig& cfg, const std::vector<float>& x) {
  const int k = cfg.params.k, l = cfg.params.l;
  const std::int64_t rows = static_cast<std::int64_t>(k) * l;
  Rng rng(derive_seed(cfg.seed, /*stream=*/0x15A));
  std::vector<float> projections(static_cast<std::size_t>(rows * cfg.dim));
  rng.fill_normal(projections, 0.0F, 1.0F);
  std::vector<double> offsets(static_cast<std::size_t>(rows));
  for (auto& b : offsets) b = rng.next_double() * cfg.params.r;

  std::vector<std::vector<std::int64_t>> out(static_cast<std::size_t>(l));
  for (int g = 0; g < l; ++g) {
    auto& group = out[static_cast<std::size_t>(g)];
    group.resize(static_cast<std::size_t>(k));
    for (int f = 0; f < k; ++f) {
      const std::int64_t row = static_cast<std::int64_t>(g) * k + f;
      const float* proj =
          projections.data() + static_cast<std::size_t>(row * cfg.dim);
      double dot = 0.0;
      for (std::int64_t d = 0; d < cfg.dim; ++d) {
        dot += static_cast<double>(proj[d]) * x[static_cast<std::size_t>(d)];
      }
      const double v = std::floor(
          (dot + offsets[static_cast<std::size_t>(row)]) / cfg.params.r);
      EXPECT_LT(std::fabs(v), 0x1p62) << "reference bucket out of range";
      group[static_cast<std::size_t>(f)] = static_cast<std::int64_t>(v);
    }
  }
  return out;
}

TEST(PStableLsh, KernelBitwiseEqualToScalarLoop) {
  // r = 2^-55 turns every bucket into dot * 2^55 (exact: a power-of-two
  // division of a value the tiny offset cannot move), so for |dot| >= 1/8
  // buckets agree only if the dot products agree to the last bit. The
  // k*l sweep covers 16-row blocks, 4/8/12-row tails and scalar rows; the
  // dim sweep covers every d % 4 tail.
  for (const int kl : {1, 2, 3, 4, 5, 6, 15, 16, 17, 32, 33}) {
    const int l = kl % 2 == 0 ? 2 : 1;
    for (const std::int64_t dim : {1, 2, 3, 4, 5, 97, 1031}) {
      const LshConfig cfg{{0x1p-55, kl / l, l}, dim,
                          static_cast<std::uint64_t>(kl * 7919 + dim)};
      std::vector<float> x = random_vec(dim, static_cast<std::uint64_t>(dim));
      for (float& v : x) v *= 0.5F;  // keeps |dot| * 2^55 far below 2^63
      EXPECT_EQ(PStableLsh(cfg).buckets(x), reference_buckets(cfg, x))
          << "k*l=" << kl << " dim=" << dim;
    }
  }
}

TEST(PStableLsh, GoldenBucketsAtWideShape) {
  // k=4, l=4 is what calibration picks on every benchmark workload; the
  // values were produced by the scalar loop before the vector kernel.
  const LshConfig cfg{{1.0 / 64.0, 4, 4}, 1031, 2023};
  const std::vector<std::vector<std::int64_t>> golden = {
      {156, 1984, 1300, -91},
      {2653, 273, -1199, -3055},
      {-1178, 1786, -2335, -192},
      {2903, 948, -3809, -417}};
  EXPECT_EQ(PStableLsh(cfg).buckets(random_vec(1031, 77)), golden);
}

TEST(PStableLsh, NonFiniteAndHugeProjectionsPinToInt64Min) {
  // A checkpoint with inf weights re-executes to a NaN model, which the
  // manager then hashes: every such bucket is INT64_MIN, never UB.
  const LshConfig cfg{{1.0, 4, 4}, 97, 5};
  const PStableLsh lsh(cfg);
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::vector<std::vector<std::int64_t>> all_min(
      4, std::vector<std::int64_t>(4, kMin));
  const std::vector<float> base = random_vec(97, 3);

  std::vector<float> nan_x = base;
  nan_x[40] = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> inf_x = base;
  inf_x[0] = std::numeric_limits<float>::infinity();
  std::vector<float> ninf_x = base;
  ninf_x[96] = -std::numeric_limits<float>::infinity();
  std::vector<float> huge_x(97, 1e38F), nhuge_x(97, -1e38F), mixed_x = base;
  for (float& v : mixed_x) v = v < 0.0F ? -1e38F : 1e38F;
  for (const auto* x : {&nan_x, &inf_x, &ninf_x, &huge_x, &nhuge_x, &mixed_x}) {
    EXPECT_EQ(lsh.buckets(*x), all_min);
    EXPECT_EQ(lsh.hash(*x), lsh.hash(*x));
  }
  // A finite input still hashes to ordinary buckets.
  EXPECT_NE(lsh.buckets(base), all_min);
}

}  // namespace
}  // namespace rpol::lsh

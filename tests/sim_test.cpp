// Tests for the simulation substrate: device noise model (perturb_gradients
// against its per-element reference loop), WAN model,
// real-model descriptors, statistics (KS normality test).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "sim/cost.h"
#include "sim/device.h"
#include "sim/model_specs.h"
#include "sim/network.h"
#include "sim/stats.h"

namespace rpol::sim {
namespace {

// ---------------------------------------------------------------------------
// Devices

TEST(Device, RegistryOrderedByThroughput) {
  const auto devices = all_devices();
  ASSERT_EQ(devices.size(), 4u);
  EXPECT_EQ(devices[0].name, "G3090");
  EXPECT_DOUBLE_EQ(devices[0].tflops_fp32, 35.7);
  EXPECT_EQ(devices[3].name, "GT4");
  EXPECT_DOUBLE_EQ(devices[3].tflops_fp32, 8.1);
}

TEST(Device, NoiseGrowsWithThroughput) {
  // Fig. 4 trend: faster GPUs produce larger reproduction errors.
  EXPECT_GT(device_g3090().noise_rel, device_ga10().noise_rel);
  EXPECT_GT(device_ga10().noise_rel, device_gp100().noise_rel);
  EXPECT_GT(device_gp100().noise_rel, device_gt4().noise_rel);
}

// The per-element loop perturb_gradients replaced, kept as its oracle: one
// next_normal() per element of every trainable, non-empty param whose noise
// sigma is positive, in param order.
void reference_perturb(Rng& rng, double noise_rel,
                       const std::vector<nn::Param*>& params) {
  for (nn::Param* p : params) {
    if (!p->trainable) continue;
    float* g = p->grad.data();
    const std::int64_t n = p->grad.numel();
    if (n == 0) continue;
    double sq = 0.0;
    for (std::int64_t i = 0; i < n; ++i) sq += static_cast<double>(g[i]) * g[i];
    const float rms = static_cast<float>(std::sqrt(sq / static_cast<double>(n)));
    const float sigma = static_cast<float>(noise_rel) * rms;
    if (sigma <= 0.0F) continue;
    for (std::int64_t i = 0; i < n; ++i) g[i] += sigma * rng.next_normal();
  }
}

// DeviceExecution's stream: derive_seed(run, FNV-1a 64 of the device name).
std::uint64_t device_stream_seed(const std::string& name, std::uint64_t run) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return derive_seed(run, h);
}

TEST(Device, PerturbGradientsMatchesPerElementReference) {
  // Sizes 0, 1, 3 and 4097; an all-zero grad and a frozen param draw
  // nothing; a NaN grad draws (its sigma is NaN, not <= 0); odd sizes leave
  // a cached normal that the next param must pick up.
  const std::vector<std::int64_t> sizes = {3, 0, 1, 5, 4097, 2, 7, 1};
  const auto make_params = [&](std::vector<nn::Param>& store) {
    store.clear();
    Rng fill(17);
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      store.emplace_back(std::to_string(k), Tensor({sizes[k]}));
      auto& g = store.back().grad;
      for (std::int64_t i = 0; i < g.numel(); ++i) {
        g.data()[i] = fill.next_float() - 0.5F;
      }
    }
    std::fill_n(store[3].grad.data(), 5, 0.0F);              // all-zero grad
    store[5].grad.data()[1] = std::numeric_limits<float>::quiet_NaN();
    store[6].trainable = false;
    std::vector<nn::Param*> ptrs;
    for (auto& p : store) ptrs.push_back(&p);
    return ptrs;
  };
  const DeviceProfile profile = device_g3090();
  DeviceExecution device(profile, 123);
  Rng oracle(device_stream_seed(profile.name, 123));
  std::vector<nn::Param> got_store;
  std::vector<nn::Param> want_store;
  const auto got = make_params(got_store);
  const auto want = make_params(want_store);
  for (int step = 0; step < 3; ++step) {  // the cache also carries across steps
    device.perturb_gradients(got);
    reference_perturb(oracle, profile.noise_rel, want);
    for (std::size_t k = 0; k < got.size(); ++k) {
      for (std::int64_t i = 0; i < got[k]->grad.numel(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got[k]->grad.data()[i]),
                  std::bit_cast<std::uint32_t>(want[k]->grad.data()[i]))
            << "step " << step << " param " << k << " element " << i;
      }
    }
  }
  EXPECT_TRUE(std::isnan(got[5]->grad.data()[0]));
  EXPECT_EQ(got[3]->grad.data()[0], 0.0F);
}

TEST(Device, ComputeSecondsScalesInversely) {
  const double flops = 1e12;
  EXPECT_LT(device_g3090().compute_seconds(flops),
            device_gt4().compute_seconds(flops));
}

TEST(Device, PerturbationIsZeroMeanAndScaled) {
  nn::Param p("w", Tensor({10000}));
  p.grad = Tensor::full({10000}, 1.0F);
  DeviceExecution exec(device_g3090(), 5);
  exec.perturb_gradients({&p});
  double sum = 0.0, sq = 0.0;
  for (std::int64_t i = 0; i < 10000; ++i) {
    const double d = static_cast<double>(p.grad.at(i)) - 1.0;
    sum += d;
    sq += d * d;
  }
  const double mean = sum / 10000.0;
  const double sd = std::sqrt(sq / 10000.0);
  EXPECT_NEAR(mean, 0.0, 3e-5);
  // grad rms is 1, so sd should be ~noise_rel of the device.
  EXPECT_NEAR(sd, device_g3090().noise_rel, device_g3090().noise_rel * 0.2);
}

TEST(Device, SameRunSeedReproduces) {
  nn::Param p1("w", Tensor({64}));
  nn::Param p2("w", Tensor({64}));
  p1.grad = Tensor::full({64}, 2.0F);
  p2.grad = Tensor::full({64}, 2.0F);
  DeviceExecution a(device_ga10(), 9);
  DeviceExecution b(device_ga10(), 9);
  a.perturb_gradients({&p1});
  b.perturb_gradients({&p2});
  EXPECT_EQ(p1.grad.vec(), p2.grad.vec());
}

TEST(Device, DifferentRunSeedsDiverge) {
  nn::Param p1("w", Tensor({64}));
  nn::Param p2("w", Tensor({64}));
  p1.grad = Tensor::full({64}, 2.0F);
  p2.grad = Tensor::full({64}, 2.0F);
  DeviceExecution a(device_ga10(), 9);
  DeviceExecution b(device_ga10(), 10);
  a.perturb_gradients({&p1});
  b.perturb_gradients({&p2});
  EXPECT_NE(p1.grad.vec(), p2.grad.vec());
}

TEST(Device, NonTrainableGradsUntouched) {
  nn::Param buf("b", Tensor({16}), /*train=*/false);
  buf.grad = Tensor::full({16}, 3.0F);
  DeviceExecution exec(device_g3090(), 1);
  exec.perturb_gradients({&buf});
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_EQ(buf.grad.at(i), 3.0F);
}

TEST(Device, ZeroGradientStaysZero) {
  // Noise is relative to gradient magnitude: a zero gradient gains nothing.
  nn::Param p("w", Tensor({16}));
  DeviceExecution exec(device_g3090(), 1);
  exec.perturb_gradients({&p});
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_EQ(p.grad.at(i), 0.0F);
}

// ---------------------------------------------------------------------------
// Network

TEST(Network, TransferTimeMatchesBandwidth) {
  Network net(NetworkSpec{10e9, 100e6, 0.0}, 1);
  // 100 Mbps worker link: 12.5 MB/s => 125 MB takes 10 s.
  const double t = net.upload(0, 125'000'000ULL, 1);
  EXPECT_NEAR(t, 10.0, 1e-6);
}

TEST(Network, ManagerLinkSharedAcrossConcurrentStreams) {
  Network net(NetworkSpec{10e9, 1e9, 0.0}, 200);
  // 200 concurrent workers share 10 Gbps: each sees 50 Mbps < its own 1 Gbps.
  const double t = net.download(0, 1'000'000ULL, 200);
  EXPECT_NEAR(t, 8e6 / 50e6, 1e-9);
}

TEST(Network, CountersAccumulate) {
  Network net(NetworkSpec{}, 2);
  net.upload(0, 100, 1);
  net.upload(1, 50, 1);
  net.download(0, 30, 1);
  EXPECT_EQ(net.worker_traffic(0).bytes_sent, 100u);
  EXPECT_EQ(net.worker_traffic(1).bytes_sent, 50u);
  EXPECT_EQ(net.worker_traffic(0).bytes_received, 30u);
  EXPECT_EQ(net.manager_traffic().bytes_received, 150u);
  EXPECT_EQ(net.manager_traffic().bytes_sent, 30u);
  EXPECT_EQ(net.total_bytes(), 180u);
  net.reset_counters();
  EXPECT_EQ(net.total_bytes(), 0u);
}

TEST(Network, LatencyAdds) {
  Network net(NetworkSpec{10e9, 100e6, 0.5}, 1);
  EXPECT_NEAR(net.upload(0, 0, 1), 0.5, 1e-12);
}

TEST(Network, InvalidUsageThrows) {
  EXPECT_THROW(Network(NetworkSpec{}, 0), std::invalid_argument);
  Network net(NetworkSpec{}, 1);
  EXPECT_THROW(net.upload(0, 1, 0), std::invalid_argument);
  EXPECT_THROW(net.upload(5, 1, 1), std::out_of_range);
}

TEST(Network, FormatGb) {
  EXPECT_EQ(format_gb(1024ULL * 1024 * 1024), "1.00GB");
  EXPECT_EQ(format_gb(1536ULL * 1024 * 1024), "1.50GB");
}

// ---------------------------------------------------------------------------
// Cost model

TEST(Cost, PaperConstants) {
  const CostModel prices;
  EXPECT_NEAR(prices.compute_cost(3600.0), 1.33, 1e-9);
  EXPECT_NEAR(prices.comm_cost(1024ULL * 1024 * 1024), 0.12, 1e-9);
  EXPECT_NEAR(prices.storage_cost(100ULL * 1024 * 1024 * 1024, 1.0), 5.0, 1e-9);
}

TEST(Cost, BreakdownTotals) {
  CostBreakdown b{1.0, 2.0, 0.5};
  EXPECT_DOUBLE_EQ(b.total(), 3.5);
}

// ---------------------------------------------------------------------------
// Real model specs

TEST(ModelSpecs, PaperSizes) {
  EXPECT_NEAR(static_cast<double>(real_resnet50().weight_bytes) / (1024.0 * 1024.0),
              90.7, 0.1);
  EXPECT_NEAR(static_cast<double>(real_vgg16().weight_bytes) / (1024.0 * 1024.0),
              527.0, 0.5);
  EXPECT_EQ(real_imagenet().num_examples, 1'281'167ULL);
}

// ---------------------------------------------------------------------------
// Statistics

TEST(Stats, MomentsHandValues) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(max_value(xs), 4.0);
  EXPECT_DOUBLE_EQ(min_value(xs), 1.0);
  EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Stats, KsAcceptsNormalSample) {
  Rng rng(31337);
  std::vector<double> xs(400);
  for (auto& x : xs) x = 5.0 + 2.0 * rng.next_normal();
  const KsTestResult result = ks_normality_test(xs);
  EXPECT_TRUE(result.normal_at_5pct) << "p=" << result.p_value;
}

TEST(Stats, KsRejectsUniformSample) {
  Rng rng(99);
  std::vector<double> xs(800);
  for (auto& x : xs) x = rng.next_double();
  const KsTestResult result = ks_normality_test(xs);
  // A uniform sample is decidedly non-normal at this size.
  EXPECT_FALSE(result.normal_at_5pct) << "p=" << result.p_value;
}

TEST(Stats, KsRejectsBimodalSample) {
  Rng rng(123);
  std::vector<double> xs(600);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = (i % 2 == 0 ? -4.0 : 4.0) + 0.3 * rng.next_normal();
  }
  EXPECT_FALSE(ks_normality_test(xs).normal_at_5pct);
}

TEST(Stats, KsDegenerateInputs) {
  EXPECT_THROW(ks_normality_test({1.0, 2.0}), std::invalid_argument);
  const KsTestResult constant = ks_normality_test({1.0, 1.0, 1.0, 1.0});
  EXPECT_FALSE(constant.normal_at_5pct);
}

}  // namespace
}  // namespace rpol::sim

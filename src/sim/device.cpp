#include "sim/device.h"

#include <cmath>

namespace rpol::sim {

double noise_rel_for_tflops(double tflops) {
  // sqrt scaling: noise grows sub-linearly with throughput, matching the
  // paper's "slightly increase as GPU performance improves".
  return 1.7e-4 * std::sqrt(tflops / 10.0);
}

namespace {
DeviceProfile make_device(std::string name, double tflops) {
  DeviceProfile d;
  d.name = std::move(name);
  d.tflops_fp32 = tflops;
  d.noise_rel = noise_rel_for_tflops(tflops);
  return d;
}
}  // namespace

DeviceProfile device_g3090() { return make_device("G3090", 35.7); }
DeviceProfile device_ga10() { return make_device("GA10", 31.2); }
DeviceProfile device_gp100() { return make_device("GP100", 10.6); }
DeviceProfile device_gt4() { return make_device("GT4", 8.1); }

std::vector<DeviceProfile> all_devices() {
  return {device_g3090(), device_ga10(), device_gp100(), device_gt4()};
}

namespace {
// Deterministic (cross-platform) name hash: FNV-1a 64.
std::uint64_t name_hash(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}
}  // namespace

DeviceExecution::DeviceExecution(DeviceProfile profile, std::uint64_t run_seed)
    : profile_(std::move(profile)),
      rng_(derive_seed(run_seed, name_hash(profile_.name))) {}

void DeviceExecution::perturb_gradients(const std::vector<nn::Param*>& params) {
  if (profile_.noise_rel <= 0.0) return;
  for (nn::Param* p : params) {
    if (!p->trainable) continue;
    float* g = p->grad.data();
    const std::int64_t n = p->grad.numel();
    if (n == 0) continue;
    double sq = 0.0;
    for (std::int64_t i = 0; i < n; ++i) sq += static_cast<double>(g[i]) * g[i];
    const float rms = static_cast<float>(std::sqrt(sq / static_cast<double>(n)));
    const float sigma = static_cast<float>(profile_.noise_rel) * rms;
    if (sigma <= 0.0F) continue;
    rng_.add_normals(g, static_cast<std::size_t>(n), sigma);
  }
}

}  // namespace rpol::sim

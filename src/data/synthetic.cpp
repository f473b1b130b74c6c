#include "data/synthetic.h"

#include <cmath>

namespace rpol::data {

Dataset make_synthetic_images(const SyntheticImageConfig& cfg) {
  Rng rng(cfg.seed);
  const std::int64_t pixels = cfg.channels * cfg.image_size * cfg.image_size;

  // Per-class pattern: a smooth 2-D sinusoid with class-specific frequency,
  // phase and per-channel amplitude. Smooth patterns give conv nets an edge
  // over chance quickly, like low-level image statistics do on CIFAR.
  // Shared carrier for phase-coded mode (drawn once per dataset).
  const float band = cfg.max_frequency - cfg.min_frequency;
  const float shared_fx = cfg.min_frequency + band * rng.next_float();
  const float shared_fy = cfg.min_frequency + band * rng.next_float();
  std::vector<float> shared_amp(static_cast<std::size_t>(cfg.channels));
  rng.fill_uniform(shared_amp, 0.5F, 1.0F);

  std::vector<std::vector<float>> patterns(
      static_cast<std::size_t>(cfg.num_classes));
  for (std::size_t cls = 0; cls < patterns.size(); ++cls) {
    auto& pattern = patterns[cls];
    pattern.resize(static_cast<std::size_t>(pixels));
    float fx = 0.0F, fy = 0.0F, phase = 0.0F;
    std::vector<float> channel_amp;
    if (cfg.phase_coded) {
      fx = shared_fx;
      fy = shared_fy;
      phase = 6.2831853F * static_cast<float>(cls) /
              static_cast<float>(cfg.num_classes);
      channel_amp = shared_amp;
    } else {
      fx = cfg.min_frequency + band * rng.next_float();
      fy = cfg.min_frequency + band * rng.next_float();
      phase = 6.2831853F * rng.next_float();
      channel_amp.resize(static_cast<std::size_t>(cfg.channels));
      rng.fill_uniform(channel_amp, -1.0F, 1.0F);
    }
    std::size_t p = 0;
    for (std::int64_t c = 0; c < cfg.channels; ++c) {
      for (std::int64_t y = 0; y < cfg.image_size; ++y) {
        for (std::int64_t x = 0; x < cfg.image_size; ++x) {
          const float yy = static_cast<float>(y) / static_cast<float>(cfg.image_size);
          const float xx = static_cast<float>(x) / static_cast<float>(cfg.image_size);
          pattern[p++] = cfg.pattern_scale *
                         channel_amp[static_cast<std::size_t>(c)] *
                         std::sin(6.2831853F * (fx * xx + fy * yy) + phase);
        }
      }
    }
  }

  std::vector<float> examples(
      static_cast<std::size_t>(cfg.num_examples * pixels));
  std::vector<std::int64_t> labels(static_cast<std::size_t>(cfg.num_examples));
  for (std::int64_t i = 0; i < cfg.num_examples; ++i) {
    const std::int64_t cls = i % cfg.num_classes;  // balanced classes
    labels[static_cast<std::size_t>(i)] = cls;
    float* dst = examples.data() + static_cast<std::size_t>(i * pixels);
    const auto& pattern = patterns[static_cast<std::size_t>(cls)];
    rng.next_normals(dst, static_cast<std::size_t>(pixels));
    for (std::int64_t p = 0; p < pixels; ++p) {
      dst[p] = pattern[static_cast<std::size_t>(p)] + cfg.noise_stddev * dst[p];
    }
  }
  return Dataset({cfg.channels, cfg.image_size, cfg.image_size},
                 std::move(examples), std::move(labels), cfg.num_classes);
}

Dataset make_synthetic_blobs(const SyntheticBlobConfig& cfg) {
  Rng rng(cfg.seed);
  std::vector<std::vector<float>> centers(static_cast<std::size_t>(cfg.num_classes));
  for (auto& center : centers) {
    center.resize(static_cast<std::size_t>(cfg.features));
    rng.fill_normal(center, 0.0F, cfg.class_separation);
  }
  std::vector<float> examples(
      static_cast<std::size_t>(cfg.num_examples * cfg.features));
  std::vector<std::int64_t> labels(static_cast<std::size_t>(cfg.num_examples));
  for (std::int64_t i = 0; i < cfg.num_examples; ++i) {
    const std::int64_t cls = i % cfg.num_classes;
    labels[static_cast<std::size_t>(i)] = cls;
    float* dst = examples.data() + static_cast<std::size_t>(i * cfg.features);
    const auto& center = centers[static_cast<std::size_t>(cls)];
    rng.next_normals(dst, static_cast<std::size_t>(cfg.features));
    for (std::int64_t f = 0; f < cfg.features; ++f) {
      dst[f] = center[static_cast<std::size_t>(f)] + cfg.noise_stddev * dst[f];
    }
  }
  return Dataset({cfg.features}, std::move(examples), std::move(labels),
                 cfg.num_classes);
}

}  // namespace rpol::data

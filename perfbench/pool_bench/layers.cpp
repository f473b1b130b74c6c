#include "layers.h"

#include <functional>
#include <stdexcept>

#include "core/ckptstore.h"
#include "core/commitment.h"
#include "nn/layers.h"
#include "runtime/thread_pool.h"
#include "sim/stats.h"
#include "tracer.h"

namespace perfbench {

namespace {

constexpr int kWarmup = 2;
constexpr int kTimed = 21;

double median_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    ms.push_back((now_s() - t0) * 1e3);
  }
  return sim::percentile(ms, 50.0);
}

enum class Kind { kConv, kBn, kRelu, kLinear };

struct LayerSpec {
  Kind kind = Kind::kRelu;
  Conv2dSpec conv;               // kConv
  std::int64_t channels = 0;     // kBn
  std::int64_t in_features = 0;  // kLinear
  std::int64_t out_features = 0;
  Shape input;
};

// The primitive layers of the workload's model, with their input shapes,
// in the order nn/models.cpp builds them (a BasicBlock's residual add and
// the global average pool are not timed).
std::vector<LayerSpec> mini_resnet18_layers(std::int64_t batch) {
  // conv_pool: width 4, 8x8 RGB inputs, one BasicBlock per stage, 10 classes.
  const std::int64_t width = 4;
  std::vector<LayerSpec> out;
  auto conv = [&](std::int64_t in, std::int64_t o, std::int64_t k,
                  std::int64_t stride, std::int64_t pad, std::int64_t size) {
    LayerSpec s;
    s.kind = Kind::kConv;
    s.conv = Conv2dSpec{in, o, k, stride, pad};
    s.input = {batch, in, size, size};
    out.push_back(s);
  };
  auto bn_relu = [&](std::int64_t c, std::int64_t size, bool relu) {
    LayerSpec s;
    s.kind = Kind::kBn;
    s.channels = c;
    s.input = {batch, c, size, size};
    out.push_back(s);
    if (relu) {
      s.kind = Kind::kRelu;
      out.push_back(s);
    }
  };
  std::int64_t size = 8;
  conv(3, width, 3, 1, 1, size);
  bn_relu(width, size, true);
  std::int64_t in = width;
  const std::int64_t widths[4] = {width, 2 * width, 4 * width, 8 * width};
  const std::int64_t strides[4] = {1, 2, 2, 2};
  for (int stage = 0; stage < 4; ++stage) {
    const std::int64_t o = widths[stage];
    const std::int64_t stride = strides[stage];
    const std::int64_t next = (size + 2 - 3) / stride + 1;
    conv(in, o, 3, stride, 1, size);
    bn_relu(o, next, true);
    conv(o, o, 3, 1, 1, next);
    bn_relu(o, next, false);
    if (stride != 1 || in != o) {
      conv(in, o, 1, stride, 0, size);
      bn_relu(o, next, false);
    }
    LayerSpec r;
    r.kind = Kind::kRelu;
    r.input = {batch, o, next, next};
    out.push_back(r);
    in = o;
    size = next;
  }
  LayerSpec fc;
  fc.kind = Kind::kLinear;
  fc.in_features = in;
  fc.out_features = 10;
  fc.input = {batch, in};
  out.push_back(fc);
  return out;
}

std::vector<LayerSpec> mlp_layers(std::int64_t batch, std::int64_t in,
                                  const std::vector<std::int64_t>& hidden,
                                  std::int64_t classes) {
  std::vector<LayerSpec> out;
  for (const std::int64_t h : hidden) {
    LayerSpec l;
    l.kind = Kind::kLinear;
    l.in_features = in;
    l.out_features = h;
    l.input = {batch, in};
    out.push_back(l);
    LayerSpec r;
    r.kind = Kind::kRelu;
    r.input = {batch, h};
    out.push_back(r);
    in = h;
  }
  LayerSpec head;
  head.kind = Kind::kLinear;
  head.in_features = in;
  head.out_features = classes;
  head.input = {batch, in};
  out.push_back(head);
  return out;
}

std::vector<LayerSpec> model_layers(const std::string& workload,
                                    std::int64_t batch) {
  if (workload == "conv_pool") return mini_resnet18_layers(batch);
  if (workload == "manager_fanout") return mlp_layers(batch, 8, {8}, 4);
  if (workload == "wide_stream") return mlp_layers(batch, 64, {512, 512}, 10);
  throw std::invalid_argument("no layer list for workload " + workload);
}

std::unique_ptr<nn::Layer> make_layer(const LayerSpec& spec, Rng& rng) {
  switch (spec.kind) {
    case Kind::kConv:
      return std::make_unique<nn::Conv2d>(spec.conv, rng, /*bias=*/false);
    case Kind::kBn:
      return std::make_unique<nn::BatchNorm2d>(spec.channels);
    case Kind::kRelu:
      return std::make_unique<nn::ReLU>();
    case Kind::kLinear:
      return std::make_unique<nn::Linear>(spec.in_features, spec.out_features,
                                          rng);
  }
  throw std::logic_error("unknown layer kind");
}

double conv_forward_flop(const LayerSpec& spec) {
  const Conv2dSpec& c = spec.conv;
  const std::int64_t out_size = c.out_size(spec.input[2]);
  return 2.0 * static_cast<double>(spec.input[0] * c.out_channels * out_size *
                                   out_size * c.in_channels * c.kernel *
                                   c.kernel);
}

// Times forward and backward of one layer; returns {fwd_ms, bwd_ms}.
std::pair<double, double> time_layer(const LayerSpec& spec, Rng& rng) {
  std::unique_ptr<nn::Layer> layer = make_layer(spec, rng);
  const Tensor input = Tensor::randn(spec.input, rng);
  const Tensor grad = Tensor::randn(layer->output_shape(spec.input), rng);
  for (int i = 0; i < kWarmup; ++i) {
    layer->forward(input, /*training=*/true);
    layer->backward(grad);
  }
  std::vector<double> fwd, bwd;
  for (int i = 0; i < kTimed; ++i) {
    const double t0 = now_s();
    layer->forward(input, /*training=*/true);
    const double t1 = now_s();
    layer->backward(grad);
    const double t2 = now_s();
    fwd.push_back((t1 - t0) * 1e3);
    bwd.push_back((t2 - t1) * 1e3);
  }
  return {sim::percentile(fwd, 50.0), sim::percentile(bwd, 50.0)};
}

}  // namespace

NnMicro time_nn_layers(const std::string& workload, std::int64_t batch) {
  NnMicro m;
  Rng rng(0x5EED);
  const std::vector<LayerSpec> layers = model_layers(workload, batch);
  for (const LayerSpec& spec : layers) {
    if (spec.kind == Kind::kConv) {
      // Forward, input gradient and weight gradient: three products.
      m.conv_gflop_per_step += 3.0 * conv_forward_flop(spec) * 1e-9;
    }
  }
  bool has_conv = false;
  for (const LayerSpec& spec : layers) {
    const auto [fwd, bwd] = time_layer(spec, rng);
    switch (spec.kind) {
      case Kind::kConv:
        has_conv = true;
        m.conv_fwd_ms += fwd;
        m.conv_bwd_ms += bwd;
        break;
      case Kind::kBn:
        m.bn_fwd_ms += fwd;
        m.bn_bwd_ms += bwd;
        break;
      case Kind::kRelu:
        m.relu_fwd_ms += fwd;
        m.relu_bwd_ms += bwd;
        break;
      case Kind::kLinear:
        m.linear_fwd_ms += fwd;
        m.linear_bwd_ms += bwd;
        break;
    }
  }
  double timed_gflop = m.conv_gflop_per_step;
  if (!has_conv) {
    m.conv_is_control = true;
    const std::vector<LayerSpec> control = mini_resnet18_layers(16);
    timed_gflop = 0.0;
    for (const LayerSpec& spec : control) {
      if (spec.kind != Kind::kConv && spec.kind != Kind::kBn) continue;
      const auto [fwd, bwd] = time_layer(spec, rng);
      if (spec.kind == Kind::kConv) {
        timed_gflop += 3.0 * conv_forward_flop(spec) * 1e-9;
        m.conv_fwd_ms += fwd;
        m.conv_bwd_ms += bwd;
      } else {
        m.bn_fwd_ms += fwd;
        m.bn_bwd_ms += bwd;
      }
    }
  }
  m.conv_gflops = timed_gflop / ((m.conv_fwd_ms + m.conv_bwd_ms) * 1e-3);
  return m;
}

double time_train_step_ms(const nn::ModelFactory& factory,
                          const core::Hyperparams& hp,
                          const data::Dataset& train, int threads) {
  const int saved = runtime::threads();
  runtime::set_threads(threads);
  core::StepExecutor executor(factory, hp);
  const data::DatasetView view = data::DatasetView::whole(train);
  const core::DeterministicSelector selector(0xBE7C4);
  std::int64_t step = 0;
  for (int i = 0; i < kWarmup; ++i) {
    executor.run_steps(step++, 1, view, selector, nullptr);
  }
  const double ms = median_ms(kTimed, [&] {
    executor.run_steps(step++, 1, view, selector, nullptr);
  });
  runtime::set_threads(saved);
  return ms;
}

ExecutorMicro time_executor(const nn::ModelFactory& factory,
                            const core::Hyperparams& hp,
                            const data::Dataset& train,
                            const data::DatasetView& test) {
  ExecutorMicro m;
  m.train_step_ms = time_train_step_ms(factory, hp, train, runtime::threads());
  core::StepExecutor executor(factory, hp);
  executor.evaluate(test);
  m.eval_ms = median_ms(5, [&] { executor.evaluate(test); });
  return m;
}

StateMicro time_state_ops(const core::TrainState& state,
                          const std::vector<bool>& mask,
                          const lsh::LshConfig& lsh_config,
                          std::int64_t checkpoints) {
  StateMicro m;
  const lsh::PStableLsh hasher(lsh_config);
  const std::vector<float> trainable = core::extract_trainable(state.model, mask);
  hasher.hash(trainable);
  m.lsh_hash_ms = median_ms(kTimed, [&] { hasher.hash(trainable); });

  core::CommitmentBuilder builder(core::CommitmentVersion::kV2, &hasher, &mask);
  builder.add_checkpoint(state);
  m.commit_add_ms = median_ms(kTimed, [&] { builder.add_checkpoint(state); });

  core::hash_state(state);
  const double hash_ms = median_ms(kTimed, [&] { core::hash_state(state); });
  m.state_hash_mb_s =
      static_cast<double>(state.byte_size()) / 1e6 / (hash_ms * 1e-3);

  // Stores as a streaming worker fills them: `checkpoints` appends against
  // a two-state hot budget, then a fetch of the first (spilled) state.
  std::vector<double> append_ms, fetch_ms;
  for (int store_i = 0; store_i < 3; ++store_i) {
    core::CkptStoreConfig cfg;
    cfg.budget_bytes = 2 * state.byte_size();
    core::CheckpointStore store(cfg);
    for (std::int64_t c = 0; c < checkpoints; ++c) {
      const double t0 = now_s();
      store.append(state);
      append_ms.push_back((now_s() - t0) * 1e3);
    }
    for (std::int64_t c = 0; c + 2 < checkpoints && c < 4; ++c) {
      if (store.is_hot(c)) continue;
      const double t0 = now_s();
      store.fetch(c);
      fetch_ms.push_back((now_s() - t0) * 1e3);
    }
  }
  m.ckpt_append_ms = sim::percentile(append_ms, 50.0);
  m.ckpt_fetch_cold_ms = sim::percentile(fetch_ms, 50.0);
  return m;
}

}  // namespace perfbench

// Shared tiny training task for protocol-level tests: an MLP on Gaussian
// blobs, small enough that full epochs take milliseconds but structured
// exactly like the paper's tasks (deterministic factory, i.i.d. partitions,
// checkpointed SGDM training on noisy simulated devices). Also the worker
// policies that break the epoch's shape.

#pragma once

#include "core/pool.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "nn/models.h"

namespace rpol::testing {

struct TinyTask {
  data::Dataset dataset;
  nn::ModelFactory factory;
  core::Hyperparams hp;

  static TinyTask make(std::uint64_t seed = 21, std::int64_t steps = 10,
                       std::int64_t interval = 3) {
    data::SyntheticBlobConfig data_cfg;
    data_cfg.num_classes = 4;
    data_cfg.num_examples = 512;
    data_cfg.features = 16;
    // Moderate separation + lr: the task must NOT converge within one
    // epoch, so gradient magnitudes (and hence simulated reproduction
    // errors) stay comparable across i.i.d. sub-tasks — the regime the
    // paper's CIFAR/ImageNet tasks live in.
    data_cfg.class_separation = 1.5F;
    data_cfg.seed = derive_seed(seed, 1);

    TinyTask task{data::make_synthetic_blobs(data_cfg),
                  nn::mlp_factory(16, {16}, 4, derive_seed(seed, 2)),
                  core::Hyperparams{}};
    task.hp.learning_rate = 0.02F;
    task.hp.batch_size = 16;
    task.hp.steps_per_epoch = steps;
    task.hp.checkpoint_interval = interval;
    return task;
  }

  core::EpochContext context(std::uint64_t nonce,
                             const data::DatasetView& view) const {
    core::StepExecutor executor(factory, hp);
    core::EpochContext ctx;
    ctx.nonce = nonce;
    ctx.initial = executor.save_state();
    ctx.dataset = &view;
    return ctx;
  }
};

// Worker policies that break the epoch shape the task fixes: every
// verifier must reject them unsampled (core/verifier.h well_formed_epoch).
//
// Trains one transition, then commits the two checkpoints it holds while
// claiming the full step boundaries.
class TruncatedEpochPolicy : public core::WorkerPolicy {
 public:
  std::string name() const override { return "truncated_epoch"; }
  core::EpochTrace produce_trace(core::StepExecutor& executor,
                                 const core::EpochContext& context,
                                 sim::DeviceExecution& device) override {
    return core::run_honest_transitions(executor, context, device, 1);
  }
};

// Trains honestly, then appends four copies of its last checkpoint.
class PaddedEpochPolicy : public core::WorkerPolicy {
 public:
  std::string name() const override { return "padded_epoch"; }
  core::EpochTrace produce_trace(core::StepExecutor& executor,
                                 const core::EpochContext& context,
                                 sim::DeviceExecution& device) override {
    core::EpochTrace trace =
        core::HonestPolicy().produce_trace(executor, context, device);
    for (int i = 0; i < 4; ++i) {
      trace.checkpoints.push_back(trace.checkpoints.back());
    }
    return trace;
  }
};

}  // namespace rpol::testing

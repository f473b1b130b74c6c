// Layer micro-timings for the traced run. Each one calls a public function
// of a lower layer (nn, core.executor, lsh, core.commitment, crypto,
// core.ckptstore) at the workload's own shapes and state size, and reports
// the median of repeated calls.

#pragma once

#include <string>
#include <vector>

#include "core/executor.h"
#include "lsh/pstable.h"

namespace perfbench {

using namespace rpol;

// Per training step, summed over the model's layers of each kind.
struct NnMicro {
  double conv_fwd_ms = 0.0, conv_bwd_ms = 0.0;
  double bn_fwd_ms = 0.0, bn_bwd_ms = 0.0;
  double relu_fwd_ms = 0.0, relu_bwd_ms = 0.0;
  double linear_fwd_ms = 0.0, linear_bwd_ms = 0.0;
  // Conv FLOPs of one training step of the workload's own model (forward
  // plus the two backward products); 0 for a model without convolutions.
  double conv_gflop_per_step = 0.0;
  // Conv FLOPs over conv time, at the shapes the conv rows were timed on.
  double conv_gflops = 0.0;
  // True when the workload's model has no conv or BatchNorm layer: the
  // conv/bn rows are then timed at conv_pool's shapes as a machine-speed
  // control, and do not describe the workload.
  bool conv_is_control = false;
};

NnMicro time_nn_layers(const std::string& workload, std::int64_t batch);

// Median wall time of one training step and of one test-set evaluation.
struct ExecutorMicro {
  double train_step_ms = 0.0;
  double eval_ms = 0.0;
};

ExecutorMicro time_executor(const nn::ModelFactory& factory,
                            const core::Hyperparams& hp,
                            const data::Dataset& train,
                            const data::DatasetView& test);

// Median wall time of one training step at `threads` runtime threads; the
// caller's thread count is restored before returning.
double time_train_step_ms(const nn::ModelFactory& factory,
                          const core::Hyperparams& hp,
                          const data::Dataset& train, int threads);

// Per-call costs on one checkpoint of the workload's state size.
struct StateMicro {
  double lsh_hash_ms = 0.0;        // PStableLsh::hash of the trainable vector
  double commit_add_ms = 0.0;      // CommitmentBuilder::add_checkpoint (v2)
  double state_hash_mb_s = 0.0;    // hash_state throughput
  double ckpt_append_ms = 0.0;     // CheckpointStore::append, spilling
  double ckpt_fetch_cold_ms = 0.0; // CheckpointStore::fetch of a spilled state
};

// `checkpoints` states are appended per store, against a hot budget of two
// states, so appends spill and early indices are cold.
StateMicro time_state_ops(const core::TrainState& state,
                          const std::vector<bool>& mask,
                          const lsh::LshConfig& lsh_config,
                          std::int64_t checkpoints);

}  // namespace perfbench

// Deterministic training-step execution.
//
// StepExecutor is the single implementation of "run training steps
// [first, first+count) from a given state" used by BOTH sides of the
// protocol: workers training an epoch (src/core/worker.h) and the manager
// re-executing sampled checkpoints (src/core/verifier.h). Sharing the code
// path guarantees the only divergence between the two executions is the
// simulated device nondeterminism — exactly the reproduction error the
// protocol must tolerate.
//
// A TrainState snapshot contains everything re-execution needs: the model
// state vector (weights + BatchNorm buffers) and the optimizer state
// (momentum slots, step counters).

#pragma once

#include <memory>
#include <utility>

#include "core/detsel.h"
#include "core/task.h"
#include "data/dataset.h"
#include "nn/loss.h"
#include "sim/device.h"

namespace rpol::core {

struct TrainState {
  std::vector<float> model;      // Model::state_vector()
  std::vector<float> optimizer;  // Optimizer::state_vector()

  std::uint64_t byte_size() const {
    return static_cast<std::uint64_t>(model.size() + optimizer.size()) *
           sizeof(float);
  }
};

// A proof state fetched from a CheckpointSource, with the SHA-256 of its
// canonical encoding (hash_state) that the verifier checks against the
// commitment.
struct HashedState {
  TrainState state;
  Digest hash{};
};

// Read-only random access to an ordered checkpoint sequence. Two
// realizations: the in-memory EpochTrace (adapter in core/verifier.cpp) and
// the spill-to-disk CheckpointStore (core/ckptstore.h). fetch() returns a
// COPY so a spill-backed source can serve evicted checkpoints from disk;
// callers hold at most the checkpoints they are actively re-executing,
// which is what makes verification memory-bounded (ROADMAP item 5).
class CheckpointSource {
 public:
  virtual ~CheckpointSource() = default;
  virtual std::int64_t num_checkpoints() const = 0;
  // Checkpoint `index` in [0, num_checkpoints()); throws std::out_of_range
  // outside that window.
  virtual TrainState fetch(std::int64_t index) const = 0;

  // The two proof states of a sampled transition, each with its digest:
  // the input C_j and the output C_{j+1}. The defaults fetch and hash (in
  // core/commitment.cpp): the worker's store is untrusted, so the manager
  // hashes every state it fetches itself. A source serving proofs over a
  // wire overrides both: its decoder already hashed the very states it
  // serves, and with adjacent samples j's output and j+1's input share an
  // index but not a message.
  virtual HashedState fetch_input(std::int64_t transition) const;
  virtual HashedState fetch_output(std::int64_t transition) const;
};

// The trainable elements of a model state (mask from
// Model::trainable_mask()) as ordered, disjoint [begin, end) runs. Derive it
// once per mask and keep it: extract_trainable and trainable_distance then
// copy or scan whole runs instead of testing the mask element by element.
// Implicit so a mask can be passed where runs are expected (the runs are
// then derived for that one call).
class TrainableRuns {
 public:
  using Run = std::pair<std::size_t, std::size_t>;

  TrainableRuns(const std::vector<bool>& mask);

  const std::vector<Run>& runs() const { return runs_; }
  // Length of the mask (== model state size).
  std::size_t size() const { return size_; }
  // Number of trainable elements (sum of run lengths).
  std::size_t count() const { return count_; }
  // Every element is trainable (e.g. the MLPs): the state IS its trainable
  // subvector.
  bool all() const { return count_ == size_; }

 private:
  std::vector<Run> runs_;
  std::size_t size_ = 0;
  std::size_t count_ = 0;
};

// Extracts the trainable-weight subvector of a model state. Verification
// distances and LSH digests operate on this subset: buffer (BatchNorm
// statistics) divergence scales with activation magnitudes rather than with
// the training step and is covered by the exact SHA hashes instead.
std::vector<float> extract_trainable(const std::vector<float>& model_state,
                                     const TrainableRuns& trainable);

// Euclidean distance between two model states restricted to the trainable
// subset — the paper's reproduction-error measure over model weights.
double trainable_distance(const std::vector<float>& a,
                          const std::vector<float>& b,
                          const TrainableRuns& trainable);

class StepExecutor {
 public:
  StepExecutor(const nn::ModelFactory& factory, const Hyperparams& hp);

  const Hyperparams& hyperparams() const { return hp_; }
  nn::Model& model() { return model_; }
  const std::vector<bool>& trainable_mask() { return model_.trainable_mask(); }

  TrainState save_state();
  void load_state(const TrainState& state);

  // Runs steps m = first_step .. first_step+count-1 with batches selected by
  // `selector` over `dataset`. `device` injects simulated hardware noise
  // into the gradients (may be null for an idealized deterministic run).
  // Returns the mean training loss across the executed steps.
  float run_steps(std::int64_t first_step, std::int64_t count,
                  const data::DatasetView& dataset,
                  const DeterministicSelector& selector,
                  sim::DeviceExecution* device);

  // Accuracy of the current model over a dataset view (eval mode).
  double evaluate(const data::DatasetView& dataset, std::int64_t batch_size = 64);

 private:
  Hyperparams hp_;
  nn::Model model_;
  std::unique_ptr<nn::Optimizer> optimizer_;
};

}  // namespace rpol::core

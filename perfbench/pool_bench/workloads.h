// The benchmark's workloads and the engines that drive one epoch of them.
//
// Every workload is a closed loop of lockstep epochs: an epoch ends only
// when every worker's submission has been trained, committed, verified and
// aggregated, and the next epoch starts after it. Its inputs (datasets,
// initial weights, worker roles' data partitions, fault streams, protocol
// seeds) are generated from the workload seed; the pool receives only
// those generated inputs.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/sharded_pool.h"
#include "data/partition.h"
#include "tracer.h"

namespace perfbench {

using namespace rpol;

enum class Role { kHonest, kReplay, kSpoof };

struct WorkloadDef {
  std::string name;
  std::string why;         // why this workload exists, in one sentence
  int threads = 1;         // runtime::set_threads for the whole run
  int shards = 0;          // 0: sequential MiningPool; > 0: ShardedPool
  std::int64_t epochs = 0; // epochs per repetition (fixed, not timed)
};

const std::vector<WorkloadDef>& workload_defs();
const WorkloadDef* find_workload(const std::string& name);

// conv_pool's task: Mini-ResNet18 on synthetic CIFAR-10-like images with
// the robust random-carrier classes (phase_coded = false), built as the
// repository's conv tasks build it.
void make_conv_inputs(std::uint64_t seed, data::Dataset& dataset,
                      nn::ModelFactory& factory, core::Hyperparams& hp);

// How an epoch is driven.
//   kEngine  the untraced reference: MiningPool::run_epoch for sequential
//            workloads, ShardedPool::run_epoch for sharded ones;
//   kPhase   the phase API (prepare_epoch, train_commit_worker,
//            configure_epoch_verifier + verify_worker, finish_epoch) on a
//            MiningPool, one span per call;
//   kSharded ShardedPool::run_epoch under one span (1 shard for
//            sequential workloads).
enum class Drive { kEngine, kPhase, kSharded };

const char* drive_name(Drive drive);

// Facts the phase drive reads out of each epoch's workspace before it is
// released. All counts are deterministic.
struct PhaseFacts {
  std::int64_t reexecuted_steps = 0;
  std::int64_t sampled_checks = 0;
  std::int64_t lsh_mismatches = 0;
  std::int64_t double_checks = 0;
  std::int64_t ckpt_appended = 0;   // checkpoints appended to worker stores
  std::int64_t ckpt_reloads = 0;    // cold fetches served from spill files
};

// One repetition's pool, built from the workload seed. Owns the inputs the
// pool points into (dataset, fault plan), so it must outlive the pool.
class Instance {
 public:
  Instance(const WorkloadDef& def, std::uint64_t seed, Drive drive);
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  // Runs epoch `t`; spans go to `tracer` when it is enabled, workspace
  // facts to `facts` on the phase drive.
  core::EpochReport run_epoch(std::int64_t t, Tracer& tracer,
                              PhaseFacts* facts);

  const std::vector<Role>& roles() const { return roles_; }
  const core::MiningPool& pool() const;
  const nn::ModelFactory& factory() const { return factory_; }
  const core::Hyperparams& hp() const { return hp_; }
  const data::Dataset& dataset() const { return *dataset_; }
  const data::TrainTestSplit& split() const { return split_; }
  // The LSH family of the last phase-driven epoch (RPoLv2 only).
  const std::optional<lsh::LshConfig>& last_lsh_config() const {
    return last_lsh_config_;
  }

 private:
  core::EpochReport run_phases(std::int64_t t, Tracer& tracer,
                               PhaseFacts* facts);

  Drive drive_;
  std::unique_ptr<data::Dataset> dataset_;
  data::TrainTestSplit split_;
  nn::ModelFactory factory_;
  core::Hyperparams hp_;
  std::optional<fault::FaultPlan> plan_;
  std::vector<Role> roles_;
  std::unique_ptr<core::MiningPool> pool_;
  std::unique_ptr<core::ShardedPool> sharded_;
  std::unique_ptr<core::Verifier> verifier_;  // phase drive only
  std::optional<lsh::LshConfig> last_lsh_config_;
};

}  // namespace perfbench

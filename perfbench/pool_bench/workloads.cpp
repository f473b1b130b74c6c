#include "workloads.h"

#include <stdexcept>

#include "data/synthetic.h"
#include "nn/models.h"

namespace perfbench {

namespace {

// Seed streams: every generated input takes its own stream of the workload
// seed, so no two inputs share randomness.
enum : std::uint64_t {
  kStreamData = 0xDA,
  kStreamModel = 0x30,
  kStreamSplit = 0x51,
  kStreamPool = 0x9001,
  kStreamFaults = 0xFA,
};

}  // namespace

void make_conv_inputs(std::uint64_t seed, data::Dataset& dataset,
                      nn::ModelFactory& factory, core::Hyperparams& hp) {
  data::SyntheticImageConfig data_cfg;
  data_cfg.num_classes = 10;
  data_cfg.channels = 3;
  data_cfg.image_size = 8;
  data_cfg.num_examples = 640;
  data_cfg.phase_coded = false;
  data_cfg.noise_stddev = 0.8F;
  data_cfg.min_frequency = 0.5F;
  data_cfg.max_frequency = 3.0F;
  data_cfg.seed = derive_seed(seed, kStreamData);
  dataset = data::make_synthetic_images(data_cfg);

  nn::ModelConfig model_cfg;
  model_cfg.image_size = 8;
  model_cfg.width = 4;
  model_cfg.num_classes = 10;
  model_cfg.seed = derive_seed(seed, kStreamModel);
  factory = nn::mini_resnet18_factory(model_cfg, /*blocks_per_stage=*/1);

  hp.learning_rate = 0.05F;
  hp.batch_size = 16;
  hp.steps_per_epoch = 12;
  hp.checkpoint_interval = 3;
}

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      {"conv_pool",
       "Compute-bound: Mini-ResNet18 training, sampled re-execution and "
       "calibration dominate; where kernel and batched-verification changes "
       "must show.",
       /*threads=*/1, /*shards=*/0, /*epochs=*/4},
      {"manager_fanout",
       "Manager-bound: 1,024 tiny-MLP workers, so sessions, commitments, "
       "admission queues, retries and aggregation dominate and kernels do "
       "almost nothing.",
       /*threads=*/2, /*shards=*/2, /*epochs=*/6},
      {"wide_stream",
       "State-size-bound: a 301k-parameter MLP checkpointed every step and "
       "streamed through spilling stores, so hashing, LSH projection and "
       "spill/reload dominate.",
       /*threads=*/1, /*shards=*/0, /*epochs=*/2},
  };
  return defs;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& def : workload_defs()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

const char* drive_name(Drive drive) {
  switch (drive) {
    case Drive::kEngine: return "engine";
    case Drive::kPhase: return "phase";
    case Drive::kSharded: return "sharded";
  }
  return "unknown";
}

Instance::Instance(const WorkloadDef& def, std::uint64_t seed, Drive drive)
    : drive_(drive), dataset_(std::make_unique<data::Dataset>()) {
  core::PoolConfig cfg;
  cfg.scheme = core::Scheme::kRPoLv2;
  cfg.seed = derive_seed(seed, kStreamPool);
  cfg.epochs = def.epochs;
  double test_fraction = 0.2;
  std::size_t num_workers = 0;

  if (def.name == "conv_pool") {
    make_conv_inputs(seed, *dataset_, factory_, hp_);
    cfg.samples_q = 3;
    num_workers = 8;
    roles_.assign(num_workers, Role::kHonest);
    roles_[1] = Role::kReplay;
    roles_[6] = Role::kReplay;
  } else if (def.name == "manager_fanout") {
    // The tiny per-worker task loads the manager, not the workers.
    num_workers = 1024;
    data::SyntheticBlobConfig data_cfg;
    data_cfg.num_classes = 4;
    data_cfg.num_examples = static_cast<std::int64_t>(8 * (num_workers + 1));
    data_cfg.features = 8;
    data_cfg.class_separation = 1.5F;
    data_cfg.seed = derive_seed(seed, kStreamData);
    *dataset_ = data::make_synthetic_blobs(data_cfg);
    factory_ = nn::mlp_factory(8, {8}, 4, derive_seed(seed, kStreamModel));
    hp_.learning_rate = 0.02F;
    hp_.batch_size = 8;
    hp_.steps_per_epoch = 2;
    hp_.checkpoint_interval = 1;
    test_fraction = 0.125;
    cfg.samples_q = 1;
    fault::FaultProfile lossy;
    lossy.drop = 0.05;
    plan_.emplace(
        fault::FaultPlan::transport(lossy, derive_seed(seed, kStreamFaults)));
    roles_.assign(num_workers, Role::kHonest);
    for (std::size_t w = 9; w < num_workers; w += 10) roles_[w] = Role::kReplay;
  } else if (def.name == "wide_stream") {
    num_workers = 5;
    data::SyntheticBlobConfig data_cfg;
    data_cfg.num_classes = 10;
    data_cfg.num_examples = 4096;
    data_cfg.features = 64;
    data_cfg.class_separation = 1.1F;
    data_cfg.noise_stddev = 1.1F;
    data_cfg.seed = derive_seed(seed, kStreamData);
    *dataset_ = data::make_synthetic_blobs(data_cfg);
    factory_ =
        nn::mlp_factory(64, {512, 512}, 10, derive_seed(seed, kStreamModel));
    hp_.learning_rate = 0.02F;
    hp_.batch_size = 32;
    hp_.steps_per_epoch = 16;
    hp_.checkpoint_interval = 1;
    cfg.samples_q = 4;
    cfg.streaming = true;
    // Below one worker's epoch footprint (17 states of ~2.4 MB), so every
    // store spills while the worker appends and reloads while it is
    // verified.
    cfg.ckpt_budget_bytes = 8ULL << 20;
    roles_.assign(num_workers, Role::kHonest);
    roles_[4] = Role::kSpoof;
  } else {
    throw std::invalid_argument("unknown workload: " + def.name);
  }
  cfg.hp = hp_;
  if (plan_.has_value()) cfg.fault_plan = &*plan_;
  split_ = data::train_test_split(*dataset_, test_fraction,
                                  derive_seed(seed, kStreamSplit));

  const std::vector<sim::DeviceProfile> devices = sim::all_devices();
  std::vector<core::WorkerSpec> workers;
  workers.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    core::WorkerSpec spec;
    switch (roles_[w]) {
      case Role::kHonest:
        spec.policy = std::make_unique<core::HonestPolicy>();
        break;
      case Role::kReplay:
        spec.policy = std::make_unique<core::ReplayPolicy>();
        break;
      case Role::kSpoof:
        spec.policy = std::make_unique<core::SpoofPolicy>(0.5);
        break;
    }
    spec.device = devices[w % devices.size()];
    workers.push_back(std::move(spec));
  }

  // The pool trains on the whole generated set and evaluates on the
  // held-out view, as the repository's pool benches do.
  const bool sharded = drive == Drive::kSharded ||
                       (drive == Drive::kEngine && def.shards > 0);
  if (sharded) {
    core::ShardedPoolConfig scfg;
    scfg.base = cfg;
    scfg.shards = def.shards > 0 ? def.shards : 1;
    if (def.shards > 0) {
      scfg.queue_capacity = 64;
      scfg.verify_batch = 16;
      scfg.overflow = core::AdmissionPolicy::kRequeue;
    }
    sharded_ = std::make_unique<core::ShardedPool>(
        std::move(scfg), factory_, *dataset_, split_.test, std::move(workers));
  } else {
    pool_ = std::make_unique<core::MiningPool>(
        std::move(cfg), factory_, *dataset_, split_.test, std::move(workers));
    if (drive == Drive::kPhase) verifier_ = pool_->make_verifier();
  }
}

const core::MiningPool& Instance::pool() const {
  return sharded_ ? sharded_->pool() : *pool_;
}

core::EpochReport Instance::run_epoch(std::int64_t t, Tracer& tracer,
                                      PhaseFacts* facts) {
  switch (drive_) {
    case Drive::kEngine:
      return sharded_ ? sharded_->run_epoch(t) : pool_->run_epoch(t);
    case Drive::kPhase:
      return run_phases(t, tracer, facts);
    case Drive::kSharded: {
      Scope epoch(tracer, "epoch", nullptr, t);
      Scope s(tracer, "sharded.run_epoch", &epoch, t);
      return sharded_->run_epoch(t);
    }
  }
  throw std::logic_error("unknown drive");
}

core::EpochReport Instance::run_phases(std::int64_t t, Tracer& tracer,
                                       PhaseFacts* facts) {
  core::MiningPool& pool = *pool_;
  const std::size_t n = pool.num_workers();
  Scope epoch(tracer, "epoch", nullptr, t);
  std::unique_ptr<core::EpochWorkspace> ws;
  {
    Scope s(tracer, "pool.prepare_epoch", &epoch, t);
    ws = pool.prepare_epoch(t);
  }
  for (std::size_t w = 0; w < n; ++w) {
    Scope s(tracer, "pool.train_commit_worker", &epoch, t,
            static_cast<std::int64_t>(w));
    pool.train_commit_worker(*ws, w);
  }
  {
    Scope s(tracer, "pool.configure_epoch_verifier", &epoch, t);
    pool.configure_epoch_verifier(*ws, *verifier_);
  }
  for (std::size_t w = 0; w < n; ++w) {
    Scope s(tracer, "pool.verify_worker", &epoch, t,
            static_cast<std::int64_t>(w));
    pool.verify_worker(*ws, w, *verifier_);
  }
  core::EpochReport report;
  {
    Scope s(tracer, "pool.finish_epoch", &epoch, t);
    report = pool.finish_epoch(*ws);
  }
  if (ws->lsh_config.has_value()) last_lsh_config_ = ws->lsh_config;
  if (facts != nullptr) {
    for (const core::EpochWorkspace::WorkerSlot& slot : ws->slots) {
      facts->reexecuted_steps += slot.reexecuted_steps;
      facts->sampled_checks +=
          slot.reexecuted_steps / hp_.checkpoint_interval;
      facts->lsh_mismatches += slot.lsh_mismatches;
      facts->double_checks += slot.double_checks;
      if (slot.streamed.store) {
        const core::CkptStoreStats st = slot.streamed.store->stats();
        facts->ckpt_appended += st.checkpoints;
        facts->ckpt_reloads += static_cast<std::int64_t>(st.reloads);
      }
    }
  }
  // Releasing the workspace (traces, spill files) is part of the epoch on
  // every drive: run_epoch releases it before returning.
  {
    Scope s(tracer, "pool.release_workspace", &epoch, t);
    ws.reset();
  }
  return report;
}

}  // namespace perfbench

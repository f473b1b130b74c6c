// Property sweep: the verification protocol must behave identically across
// every optimizer the task might use (SGD / SGDM / RMSprop / Adam), both
// RPoL schemes and both commitment forms (full hash lists and compact
// Merkle roots) — honest workers accepted, replayers and spoofers rejected.
// The optimizer state is part of the checkpointed TrainState, so this
// sweeps the exactness of state capture/restore across optimizer families.
// Every verdict is also pinned whole, as a digest over all its fields.

#include <gtest/gtest.h>

#include "core/verifier.h"
#include "task_fixture.h"
#include "verdict_digest.h"

namespace rpol::core {
namespace {

using rpol::testing::TinyTask;
using rpol::testing::verdict_digest;

enum class Path { kFull, kCompact };

struct SweepCase {
  nn::OptimizerKind optimizer;
  float lr;
  Scheme scheme;
  Path path;
  // verdict_digest of the honest, replay and spoof verdicts below.
  const char* honest;
  const char* replay;
  const char* spoof;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  return nn::optimizer_kind_name(info.param.optimizer) + "_" +
         scheme_name(info.param.scheme) + "_" +
         (info.param.path == Path::kFull ? "full" : "compact");
}

class VerifierSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override {
    task = TinyTask::make(/*seed=*/141, /*steps=*/10, /*interval=*/3);
    task.hp.optimizer = GetParam().optimizer;
    task.hp.learning_rate = GetParam().lr;
    view = data::DatasetView::whole(task.dataset);
    context = task.context(/*nonce=*/606, view);
  }

  VerifyResult verify(const EpochTrace& trace) {
    VerifierConfig cfg;
    cfg.samples_q = 4;
    cfg.beta = beta_for(GetParam().optimizer);
    cfg.use_lsh = GetParam().scheme == Scheme::kRPoLv2;
    lsh::LshConfig lcfg;
    std::shared_ptr<const lsh::PStableLsh> family;
    if (cfg.use_lsh) {
      lcfg.params = lsh::optimize_lsh(cfg.beta / 5.0, cfg.beta, 16).params;
      StepExecutor probe(task.factory, task.hp);
      lcfg.dim = static_cast<std::int64_t>(
          extract_trainable(context.initial.model, probe.trainable_mask())
              .size());
      lcfg.seed = 71;
      family = std::make_shared<const lsh::PStableLsh>(lcfg);
    }
    Verifier verifier(task.factory, task.hp, cfg);
    verifier.set_lsh_family(family);
    sim::DeviceExecution manager_device(sim::device_g3090(), 888);
    Commitment commitment;
    if (cfg.use_lsh) {
      StepExecutor probe(task.factory, task.hp);
      commitment = commit_v2(trace, *family, &probe.trainable_mask());
    } else {
      commitment = commit_v1(trace);
    }
    if (GetParam().path == Path::kCompact) {
      return verifier.verify_compact(compact_commitment(commitment),
                                     commitment, trace, context,
                                     hash_state(context.initial),
                                     manager_device);
    }
    return verifier.verify(commitment, trace, context,
                           hash_state(context.initial), manager_device);
  }

  // Adaptive optimizers divide by sqrt(second moments), which inflates the
  // relative effect of injected noise (cold slots especially); give them a
  // wider tolerance band. Measured on this task: RMSprop honest errors peak
  // ~8e-2 on the first transition vs spoof distances >= 5e-1.
  static double beta_for(nn::OptimizerKind kind) {
    switch (kind) {
      case nn::OptimizerKind::kRmsProp:
        return 0.2;
      case nn::OptimizerKind::kAdam:
        return 5e-2;
      default:
        return 2e-3;
    }
  }

  EpochTrace produce(WorkerPolicy& policy, std::uint64_t seed) {
    StepExecutor executor(task.factory, task.hp);
    sim::DeviceExecution device(sim::device_ga10(), seed);
    return policy.produce_trace(executor, context, device);
  }

  TinyTask task{TinyTask::make()};
  data::DatasetView view;
  EpochContext context;
};

TEST_P(VerifierSweep, HonestAccepted) {
  HonestPolicy honest;
  const VerifyResult result = verify(produce(honest, 1));
  EXPECT_TRUE(result.accepted);
  EXPECT_EQ(verdict_digest(result), GetParam().honest);
}

TEST_P(VerifierSweep, ReplayRejected) {
  ReplayPolicy replay;
  const VerifyResult result = verify(produce(replay, 2));
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(verdict_digest(result), GetParam().replay);
}

TEST_P(VerifierSweep, SpoofRejected) {
  SpoofPolicy spoof(0.1, 0.5);
  const VerifyResult result = verify(produce(spoof, 3));
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(verdict_digest(result), GetParam().spoof);
}

TEST_P(VerifierSweep, NoiselessReexecutionIsExactForThisOptimizer) {
  // Bit-exact re-execution without device noise: validates optimizer state
  // round-tripping for every optimizer family.
  StepExecutor a(task.factory, task.hp);
  StepExecutor b(task.factory, task.hp);
  const TrainState start = a.save_state();
  const DeterministicSelector sel(context.nonce);
  a.run_steps(0, 6, view, sel, nullptr);
  const TrainState mid = a.save_state();
  a.run_steps(6, 4, view, sel, nullptr);
  b.load_state(mid);
  b.run_steps(6, 4, view, sel, nullptr);
  EXPECT_EQ(a.save_state().model, b.save_state().model);
  EXPECT_EQ(a.save_state().optimizer, b.save_state().optimizer);
  (void)start;
}

// Verdict digests pinned before the full and compact paths were merged into
// one sampled-check loop: the merge must not move any of them.
INSTANTIATE_TEST_SUITE_P(
    OptimizerSchemeGrid, VerifierSweep,
    ::testing::Values(
        SweepCase{nn::OptimizerKind::kSgd, 0.02F, Scheme::kRPoLv1, Path::kFull,
                  "03957cb02e36d5704dfb6689017db38b55d562862f021c417ab1b1d90beeab36",
                  "2d6866d9e9be9b4e563118b42857d3b2664b0a4fd8f6bd6246a3392a07ef8ee0",
                  "9ae4bf732d625450d2f52774d7e217d42bb5409536b73f7ec70f3b558fd418e1"},
        SweepCase{nn::OptimizerKind::kSgd, 0.02F, Scheme::kRPoLv1, Path::kCompact,
                  "10ee6de4b6a21bff4747ae63d6ccc5801fa55a15a9c950bfcc53cec0a488f20a",
                  "f98c752b2785aa7466a443d95c39939eb5b07177befcb61e295d9da17db98294",
                  "9f3d4aff35e6b4204688f59c67e81163502d4d643726e4ecb90b59384af11621"},
        SweepCase{nn::OptimizerKind::kSgd, 0.02F, Scheme::kRPoLv2, Path::kFull,
                  "496d5dd4e19b8e33c2340c41149031025fe535045091b06c58dc43315fa7dc30",
                  "5e26ae569fea86fbfa4c523f6bcd7dc65a63502c8b71f438ac3207c2b68a94de",
                  "cb22785c735ee2a33585528c1318c77607cf48f7aa16c3f6968f0672fd503edd"},
        SweepCase{nn::OptimizerKind::kSgd, 0.02F, Scheme::kRPoLv2, Path::kCompact,
                  "ddfea69427df3caf3b583ea7abd6a6a25c7c9fbf33f833b9e4a0cd95983f0d4d",
                  "cbe09955ad544b1711591fc82fb3724fffd43f8260535baf050c3e7830dbf737",
                  "0886c76d72d35f1b3e10455a28682b1dc3e73a3159db477a5ae413cfd2afff07"},
        SweepCase{nn::OptimizerKind::kSgdMomentum, 0.02F, Scheme::kRPoLv1, Path::kFull,
                  "fcf32f302746645131136df1fea3ab509462f067ca07734cb2b63d6715dfd4c5",
                  "d130a2510ab1b08ea0489ea72c1cbd9450ea5c1267022435f45e0a677d53fd78",
                  "bd60c9d39d06e5f0dcf81d0fff746cdf3b9347a2b0d49e6cf1d2641fbf47740f"},
        SweepCase{nn::OptimizerKind::kSgdMomentum, 0.02F, Scheme::kRPoLv1, Path::kCompact,
                  "3640f8c8c21065fe6fa4eedd0c67ffff93b597bcc3957aa0bec3e6693239b0cd",
                  "742cdfcbe7a9d339006e69928ef1805929ee135e4af7996229dd70ac5b6ba34c",
                  "fe09e998952fc3f650e857bf4bd1580e97378deda764ca44b8920f208c39b550"},
        SweepCase{nn::OptimizerKind::kSgdMomentum, 0.02F, Scheme::kRPoLv2, Path::kFull,
                  "60f340083efe2ab401407b83c93ba6bceae56e7e6773f5561347ae8dfa519f8b",
                  "30b24c7a0aab84e25f829f4552bf63fa2ac2442d1ab7fa59da635cf6ea7847c0",
                  "6a25583a704b1aeede9366bb097c8f0e6dd330b130588c55c1be0d121db3b1ba"},
        SweepCase{nn::OptimizerKind::kSgdMomentum, 0.02F, Scheme::kRPoLv2, Path::kCompact,
                  "d513eeed16ea1cbb6df22c144a0eddd1f98828130ca50bfa51d441870d674006",
                  "f4e71d972662f420f1e5ebd86477582126e31760d9a180231500256e3adf4df9",
                  "5192c7b96ba7e2747ab86a8a0e7e67c0a318a903847d1cbb23ea23487bc5b2ca"},
        SweepCase{nn::OptimizerKind::kRmsProp, 0.002F, Scheme::kRPoLv1, Path::kFull,
                  "e199852aae2e2a26a5efee440a7a911109187dedf22903279684fb5ca79730db",
                  "4de1b804d2b8775f7d11f288b0d7a1a5453a18773d7984eef75cfa3b07341a02",
                  "e2ae54cc73063cba1ed52990f8896298a22002e21772428ed6104956c3762fb9"},
        SweepCase{nn::OptimizerKind::kRmsProp, 0.002F, Scheme::kRPoLv1, Path::kCompact,
                  "053fd93ea8dc85ff38024d71177bd94c702d125ed28cb7da45282657b2474848",
                  "91118487dee70929ab7e04b931c09bde0c2335b53b7b85ce2f63c12dd53f2cc6",
                  "c1c12fc2094d6acedba0b14ccff318f5f5a2062e000eadc9893597f90a446c6e"},
        SweepCase{nn::OptimizerKind::kRmsProp, 0.002F, Scheme::kRPoLv2, Path::kFull,
                  "7fb6b4ed6a396d5466081a37ee9f3231bb367a414c697dbe33f4fd2384071f6f",
                  "66414da786d163fc9204336e3427cea4037de0241576cbde3956a01f1e22eb26",
                  "b3e9e9b9b0648256f757287468a9e18303258565d1a136dec1f6501cb184cfbe"},
        SweepCase{nn::OptimizerKind::kRmsProp, 0.002F, Scheme::kRPoLv2, Path::kCompact,
                  "925f9fddb383fbd7d4687d937eb000022ecb2f82c597bad2631fc009dbd6e0f5",
                  "4a611b12e40b354822b4ca787f30f656fc40df653433bf73529ddc26a26d00f5",
                  "ff76c9e1d22adb5a7deda8de4b59cbddfa929cedae62de9992e05dd161919c8d"},
        SweepCase{nn::OptimizerKind::kAdam, 0.002F, Scheme::kRPoLv1, Path::kFull,
                  "48616d95392aefb089b2b4fbd476240dbbb3b26a3aa978f21ea40248ed860ee6",
                  "ccb8392d90914f4fd7b11451da5e187fccc2551f68b48f57b5f8492cdc1b219a",
                  "9711344b73c71a193d87a5f205e11bd376cde5e23bb9a28ca096e98591dff329"},
        SweepCase{nn::OptimizerKind::kAdam, 0.002F, Scheme::kRPoLv1, Path::kCompact,
                  "e08329361ca5638c7aecc72e5fd72a8d8d068e3606b7d0a4ffb2b56fee7447c6",
                  "c8ec3154cff0066cec1346fda9a837416d17ab43501b23f9f53c2b247b299458",
                  "6a19ef7efc0078cabe6b38c0f1ed9d076cd97be1c68a08bb5460fd322ad13a59"},
        SweepCase{nn::OptimizerKind::kAdam, 0.002F, Scheme::kRPoLv2, Path::kFull,
                  "21886125bc53300d30fb99e6b6ea528550e3a9f2fd0d250b29289c42e8ca22c1",
                  "1535e96e7faf5f99eb71393aa63197496bf54372b72ac8491d2e6162d38e74fd",
                  "1e1a4998ec8b85feadcf1133c5fb3566e36fa356952742513ac8b48d64a1816f"},
        SweepCase{nn::OptimizerKind::kAdam, 0.002F, Scheme::kRPoLv2, Path::kCompact,
                  "2eff63609ff409d931de6619e92d66ffd7ce9c7bf8c4716f2a87a8e03cf14949",
                  "7bf510c9ef348147479f5a2f0f9e1a8dc8e581f692fc7438696eac92bddaa3dd",
                  "c65606beaaca676f465fd58ce2fc9cf093e5dd258c725cfa3cddf3a03d367932"}),
    case_name);

}  // namespace
}  // namespace rpol::core

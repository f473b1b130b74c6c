#include "core/calibrate.h"

#include <stdexcept>

#include "sim/stats.h"

namespace rpol::core {

std::vector<double> measure_reproduction_errors(
    const nn::ModelFactory& factory, const Hyperparams& hp,
    const EpochContext& context, const sim::DeviceProfile& device_a,
    std::uint64_t run_seed_a, const sim::DeviceProfile& device_b,
    std::uint64_t run_seed_b) {
  // Reference trace on device A.
  StepExecutor trainer(factory, hp);
  sim::DeviceExecution exec_a(device_a, run_seed_a);
  HonestPolicy honest;
  const EpochTrace trace = honest.produce_trace(trainer, context, exec_a);

  // Re-execute every transition from A's checkpoints on device B.
  StepExecutor replayer(factory, hp);
  sim::DeviceExecution exec_b(device_b, run_seed_b);
  const DeterministicSelector selector(context.nonce);
  std::vector<double> errors;
  errors.reserve(static_cast<std::size_t>(trace.num_transitions()));
  const TrainableRuns trainable(replayer.trainable_mask());
  for (std::int64_t j = 0; j < trace.num_transitions(); ++j) {
    const std::int64_t first = trace.step_of[static_cast<std::size_t>(j)];
    const std::int64_t count = trace.step_of[static_cast<std::size_t>(j + 1)] - first;
    replayer.load_state(trace.checkpoints[static_cast<std::size_t>(j)]);
    replayer.run_steps(first, count, *context.dataset, selector, &exec_b);
    errors.push_back(trainable_distance(
        replayer.save_state().model,
        trace.checkpoints[static_cast<std::size_t>(j + 1)].model, trainable));
  }
  return errors;
}

CalibrationResult derive_thresholds(std::vector<double> errors,
                                    const CalibrationConfig& config) {
  CalibrationResult result;
  result.errors = std::move(errors);
  if (result.errors.empty()) throw std::logic_error("calibration yielded no errors");

  result.max_error = sim::max_value(result.errors);
  const double base = config.alpha_mode == AlphaMode::kMaxPlusSd
                          ? result.max_error
                          : sim::mean(result.errors);
  result.alpha = base + sim::stddev(result.errors);
  // Degenerate guard: a zero-noise configuration still needs a positive
  // threshold scale for LSH optimization to be well-posed.
  if (result.alpha <= 0.0) result.alpha = 1e-9;
  result.beta = config.beta_x * result.alpha + config.beta_y;
  result.lsh = lsh::optimize_lsh(result.alpha, result.beta, config.k_lsh);
  return result;
}

CalibrationResult calibrate_epoch(const nn::ModelFactory& factory,
                                  const Hyperparams& hp,
                                  const EpochContext& manager_context,
                                  const sim::DeviceProfile& top_device,
                                  const sim::DeviceProfile& second_device,
                                  std::uint64_t epoch_seed,
                                  const CalibrationConfig& config) {
  return derive_thresholds(
      measure_reproduction_errors(factory, hp, manager_context, top_device,
                                  derive_seed(epoch_seed, 0xCA11A),
                                  second_device,
                                  derive_seed(epoch_seed, 0xCA11B)),
      config);
}

}  // namespace rpol::core

// pool_bench: the repository's benchmark program.
//
//   pool_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload (workloads.cpp) as repeated same-seed repetitions until
// --seconds have passed, checks that every repetition decided the same
// verdicts and ended in the same global model, and prints a table of
// metrics followed, as the last line, by one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced repetitions with traced ones (phase API and sharded
// drives) and reports the per-layer metrics. See perfbench/README.md.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "core/commitment.h"
#include "layers.h"
#include "obs/mem.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "sim/stats.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The metrics BENCHMARK.json declares; the JSON line carries exactly these.
// Printed but not declared: epoch_s.tail, whose run-to-run spread on a
// shared host exceeds any allowed bound; the rates that are 0 on a clean
// run (false_reject_rate, false_accept_rate, failed_share), since a
// declared metric must never be 0; final_accuracy and honest_accept_rate
// (1 - false_reject_rate), whose spread across seeds is wider than any
// bound. failed_share is the result's failed / attempted.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "epoch_s.p50", "subs_per_s", "wan_mb_per_sub", "peak_rss_mb",
};
const std::vector<std::string> kPerLayer = {
    "pool.prepare_s",
    "pool.train_commit_s",
    "pool.verify_s",
    "pool.finish_s",
    "pool.phase_cover",
    "sharded.epoch_s",
    "admission.requeued_per_epoch",
    "admission.max_queue_depth",
    "executor.train_step_ms",
    "executor.eval_ms",
    "nn.conv.fwd_ms",
    "nn.conv.bwd_ms",
    "nn.bn.fwd_ms",
    "nn.bn.bwd_ms",
    "nn.relu.fwd_ms",
    "nn.relu.bwd_ms",
    "nn.linear.fwd_ms",
    "nn.linear.bwd_ms",
    "tensor.conv.gflop_per_step",
    "tensor.conv.gflops",
    "verifier.verify_ms_per_sub",
    "verifier.reexec_steps_per_sub",
    "verifier.double_check_ratio",
    "lsh.hit_ratio",
    "lsh.hash_ms",
    "commit.add_checkpoint_ms",
    "crypto.state_hash_mb_s",
    "ckptstore.append_ms",
    "ckptstore.fetch_cold_ms",
    "ckptstore.reload_ratio",
    "wire.proof_response_share",
    "fault.retrans_per_sub",
    "runtime.parallel_for_calls_per_epoch",
    "runtime.inline_share",
    "runtime.conv_pool_4t_over_1t",
    "obs.trace_overhead",
};

// The traced run's phase spans must cover the epoch span to within this
// share: the rest is the benchmark's own loop between calls.
constexpr double kPhaseCoverMin = 0.95;
// A run repeats the workload at least this often, whatever --seconds says:
// the same-seed determinism check needs two repetitions.
constexpr int kMinReps = 3;
// Set-up is also timed on its own this many times before the repetitions
// (the instances are discarded), so its median rests on enough samples.
constexpr int kExtraSetups = 12;
// Percentiles considered for epoch_s.tail, highest first.
constexpr double kTailLadder[] = {99.0, 95.0, 90.0, 75.0, 50.0};
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args.seconds > 0.0;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

// Refuses to time a build that is not an optimized, uninstrumented one.
// Returns the reason, or "" when the build may be timed.
std::string build_refusal() {
#ifndef NDEBUG
  return "assertions are enabled (not a Release build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return std::string("build type is '") + PERFBENCH_BUILD_TYPE +
           "', not Release";
  }
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "built with a sanitizer";
  }
  return "";
}

// Deterministic outcome of one repetition, tallied from its EpochReports.
struct Outcome {
  std::int64_t epochs = 0;
  std::int64_t attempted = 0;   // submissions of workers not yet evicted
  std::int64_t lost = 0;        // a protocol leg exhausted its retries
  std::int64_t shed = 0;        // refused by admission control
  std::int64_t judged = 0;      // reached a verdict
  std::int64_t honest_judged = 0, honest_rejected = 0;
  std::int64_t dishonest_judged = 0, dishonest_accepted = 0;
  std::int64_t replay_accepted = 0;
  std::int64_t retransmissions = 0;
  std::int64_t requeued = 0;
  std::int64_t max_queue_depth = 0;
  std::uint64_t wan_bytes = 0;
  double final_accuracy = 0.0;

  std::int64_t failed() const {
    return lost + shed + honest_rejected + dishonest_accepted;
  }
};

struct RepResult {
  Drive drive = Drive::kEngine;
  bool traced = false;
  double setup_s = 0.0;
  std::vector<double> epoch_s;
  Outcome outcome;
  PhaseFacts facts;
  std::string model_digest;
  std::string verdict_digest;
  std::map<std::string, std::uint64_t> counters;  // obs, traced reps only
};

std::string float_digest(const std::vector<float>& v) {
  Sha256 h;
  core::update_with_floats(h, v);
  return digest_to_hex(h.finish());
}

// Runs one repetition: builds the pool from the seed (timed as set-up),
// then every epoch of the workload.
RepResult run_rep(const WorkloadDef& def, std::uint64_t seed, Drive drive,
                  bool traced, Tracer& tracer,
                  std::unique_ptr<Instance>& keep) {
  RepResult rep;
  rep.drive = drive;
  rep.traced = traced;
  tracer.set_enabled(traced);
  obs::set_enabled(traced);
  obs::Registry::instance().reset();

  const double t0 = now_s();
  auto inst = std::make_unique<Instance>(def, seed, drive);
  rep.setup_s = now_s() - t0;

  Sha256 verdicts;
  std::vector<bool> evicted(inst->roles().size(), false);
  Outcome& o = rep.outcome;
  for (std::int64_t t = 0; t < def.epochs; ++t) {
    const double e0 = now_s();
    const core::EpochReport r =
        inst->run_epoch(t, tracer, drive == Drive::kPhase ? &rep.facts : nullptr);
    rep.epoch_s.push_back(now_s() - e0);

    ++o.epochs;
    for (std::size_t w = 0; w < r.status.size(); ++w) {
      const std::uint8_t bits[3] = {static_cast<std::uint8_t>(r.status[w]),
                                    static_cast<std::uint8_t>(r.accepted[w]),
                                    static_cast<std::uint8_t>(r.participated[w])};
      verdicts.update(bits, sizeof(bits));
      if (evicted[w]) continue;  // sat the epoch out
      ++o.attempted;
      const Role role = inst->roles()[w];
      switch (r.status[w]) {
        case core::SessionStatus::kAccepted:
        case core::SessionStatus::kVerdictRejected:
          ++o.judged;
          if (role == Role::kHonest) {
            ++o.honest_judged;
            if (!r.accepted[w]) ++o.honest_rejected;
          } else {
            ++o.dishonest_judged;
            if (r.accepted[w]) ++o.dishonest_accepted;
            if (r.accepted[w] && role == Role::kReplay) ++o.replay_accepted;
          }
          break;
        case core::SessionStatus::kAdmissionRejected:
          ++o.shed;
          break;
        default:
          ++o.lost;
          break;
      }
    }
    evicted = r.evicted;
    o.retransmissions += r.retransmissions;
    o.requeued += r.admission_requeued;
    o.max_queue_depth = std::max(o.max_queue_depth, r.max_queue_depth);
    o.wan_bytes += r.bytes_this_epoch;
    o.final_accuracy = r.test_accuracy;
  }
  rep.model_digest = float_digest(inst->pool().global_model());
  rep.verdict_digest = digest_to_hex(verdicts.finish());
  if (traced) {
    for (const auto& [name, value] :
         obs::Registry::instance().counter_values()) {
      rep.counters[name] = value;
    }
  }
  obs::set_enabled(false);
  obs::Registry::instance().reset();
  tracer.set_enabled(false);
  keep = std::move(inst);
  return rep;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  // samples behind the value
  std::string note;
};

double median(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : sim::percentile(xs, 50.0);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Median over traced phase epochs of each phase's summed span time, plus
// the epoch spans of the sharded drive.
struct SpanSummary {
  std::vector<double> prepare, train_commit, verify, finish, cover;
  std::vector<double> sharded_epoch;
  double verify_total_s = 0.0;
};

SpanSummary summarize_spans(const Tracer& tracer) {
  struct EpochAcc {
    double epoch = 0.0, prepare = 0.0, train = 0.0, verify = 0.0;
    double finish = 0.0, children = 0.0, sharded = 0.0;
    bool is_sharded = false;
  };
  std::map<std::uint64_t, EpochAcc> epochs;
  for (const SpanRecord& s : tracer.spans()) {
    EpochAcc& e = epochs[s.epoch_id];
    if (s.parent == 0) {
      e.epoch = s.dur_s();
      continue;
    }
    e.children += s.dur_s();
    if (s.name == "pool.prepare_epoch") e.prepare += s.dur_s();
    if (s.name == "pool.train_commit_worker") e.train += s.dur_s();
    if (s.name == "pool.configure_epoch_verifier" ||
        s.name == "pool.verify_worker") {
      e.verify += s.dur_s();
    }
    if (s.name == "pool.finish_epoch") e.finish += s.dur_s();
    if (s.name == "sharded.run_epoch") {
      e.is_sharded = true;
      e.sharded += s.dur_s();
    }
  }
  SpanSummary out;
  for (const auto& [id, e] : epochs) {
    if (e.is_sharded) {
      out.sharded_epoch.push_back(e.sharded);
      continue;
    }
    out.prepare.push_back(e.prepare);
    out.train_commit.push_back(e.train);
    out.verify.push_back(e.verify);
    out.finish.push_back(e.finish);
    out.cover.push_back(ratio(e.children, e.epoch));
    out.verify_total_s += e.verify;
  }
  return out;
}

// Highest percentile of the ladder with at least ten samples above it.
double tail_percentile(std::size_t n) {
  for (const double p : kTailLadder) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

void print_metric(const Metric& m) {
  std::printf("  %-38s %14.6g %-9s n=%zu%s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.n, m.note.empty() ? "" : "  ",
              m.note.c_str());
}

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const std::vector<Metric>& metrics,
                const std::vector<std::string>& names) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  for (const std::string& name : names) {
    for (const Metric& m : metrics) {
      if (m.name != name) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
      first = false;
    }
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const WorkloadDef* def = find_workload(args.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "pool_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "pool_bench: refusing to time this build: %s\n",
                 refusal.c_str());
    return 3;
  }
  const int nproc = online_cpus();
  const int threads = std::min(def->threads, nproc);
  runtime::set_threads(threads);

  std::printf("pool_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              def->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("why: %s\n", def->why.c_str());
  std::printf("env: threads=%d (requested %d) nproc=%d build=%s "
              "compiler=\"%s\" flags=\"%s\"\n",
              runtime::threads(), def->threads, nproc, PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS);
  std::fflush(stdout);

  // Untraced repetitions only, or the cycle untraced -> phase -> sharded.
  const std::vector<std::pair<Drive, bool>> cycle =
      args.trace ? std::vector<std::pair<Drive, bool>>{{Drive::kEngine, false},
                                                       {Drive::kPhase, true},
                                                       {Drive::kSharded, true}}
                 : std::vector<std::pair<Drive, bool>>{{Drive::kEngine, false}};
  const int min_reps =
      std::max<int>(kMinReps, static_cast<int>(cycle.size()));

  Tracer tracer;
  std::vector<RepResult> reps;
  std::unique_ptr<Instance> last;
  std::unique_ptr<Instance> last_phase;
  const double start = now_s();
  std::vector<double> setup_samples;
  if (!args.trace) {
    for (int i = 0; i < kExtraSetups; ++i) {
      const double t0 = now_s();
      Instance probe(*def, args.seed, Drive::kEngine);
      setup_samples.push_back(now_s() - t0);
    }
  }
  while (static_cast<int>(reps.size()) < min_reps ||
         now_s() - start < args.seconds) {
    const auto [drive, traced] = cycle[reps.size() % cycle.size()];
    last.reset();  // one pool resident at a time
    reps.push_back(run_rep(*def, args.seed, drive, traced, tracer, last));
    const RepResult& r = reps.back();
    std::fprintf(stderr, "rep %zu %s%s setup %.4f s, epochs", reps.size(),
                 r.traced ? "traced " : "", drive_name(r.drive), r.setup_s);
    for (const double e : r.epoch_s) std::fprintf(stderr, " %.4f", e);
    std::fprintf(stderr, "\n");
    if (drive == Drive::kPhase) last_phase = std::move(last);
  }
  const double measured_s = now_s() - start;

  // --- Correctness: same-seed repetitions agree; no replay is accepted.
  bool correct = true;
  const RepResult& ref = reps.front();
  for (const RepResult& r : reps) {
    if (r.model_digest != ref.model_digest ||
        r.verdict_digest != ref.verdict_digest) {
      std::printf("CHECK FAILED: %s%s repetition diverged from the first "
                  "(model %s vs %s, verdicts %s vs %s)\n",
                  r.traced ? "traced " : "", drive_name(r.drive),
                  r.model_digest.c_str(), ref.model_digest.c_str(),
                  r.verdict_digest.c_str(), ref.verdict_digest.c_str());
      correct = false;
    }
    if (r.outcome.replay_accepted > 0) {
      std::printf("CHECK FAILED: %lld replay submission(s) accepted\n",
                  static_cast<long long>(r.outcome.replay_accepted));
      correct = false;
    }
  }
  std::printf("digests: model=%s verdicts=%s (%zu repetitions agree: %s)\n",
              ref.model_digest.c_str(), ref.verdict_digest.c_str(),
              reps.size(), correct ? "yes" : "no");

  const Outcome& o = ref.outcome;
  std::vector<Metric> metrics;
  auto add = [&](std::string name, double value, std::string unit,
                 std::size_t n, std::string note = "") {
    metrics.push_back({std::move(name), value, std::move(unit), n,
                       std::move(note)});
  };

  if (!args.trace) {
    std::vector<double> setup = setup_samples, epochs;
    double wall = 0.0;
    std::int64_t judged = 0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      setup.push_back(reps[i].setup_s);
      for (std::size_t e = 0; e < reps[i].epoch_s.size(); ++e) {
        wall += reps[i].epoch_s[e];
        // The process's first epoch warms caches and is not a sample.
        if (i > 0 || e > 0) epochs.push_back(reps[i].epoch_s[e]);
      }
      judged += reps[i].outcome.judged;
    }
    const double tail_p = tail_percentile(epochs.size());
    char tail_note[96];
    std::snprintf(tail_note, sizeof(tail_note), "p%g of epoch times%s", tail_p,
                  epochs.size() < 20 ? " (fewer than 20 samples: the median)"
                                     : "");
    add("setup_s", median(setup), "s", setup.size(), "median");
    add("epoch_s.p50", median(epochs), "s", epochs.size());
    add("epoch_s.tail", sim::percentile(epochs, tail_p), "s", epochs.size(),
        tail_note);
    add("subs_per_s", ratio(static_cast<double>(judged), wall), "1/s",
        static_cast<std::size_t>(judged));
    add("wan_mb_per_sub",
        ratio(static_cast<double>(o.wan_bytes) / kMiB,
              static_cast<double>(o.judged)),
        "MB", static_cast<std::size_t>(o.judged));
    add("final_accuracy", o.final_accuracy, "fraction", 1);
    const double frr = ratio(static_cast<double>(o.honest_rejected),
                             static_cast<double>(o.honest_judged));
    add("false_reject_rate", frr, "fraction",
        static_cast<std::size_t>(o.honest_judged));
    add("honest_accept_rate", 1.0 - frr, "fraction",
        static_cast<std::size_t>(o.honest_judged));
    add("false_accept_rate",
        ratio(static_cast<double>(o.dishonest_accepted),
              static_cast<double>(o.dishonest_judged)),
        "fraction", static_cast<std::size_t>(o.dishonest_judged));
    add("failed_share",
        ratio(static_cast<double>(o.failed()),
              static_cast<double>(o.attempted)),
        "fraction", static_cast<std::size_t>(o.attempted));
    add("peak_rss_mb",
        static_cast<double>(obs::read_proc_rss().vm_hwm_bytes) / kMiB, "MB",
        1, "VmHWM");
  } else {
    // Untraced and traced epoch times of the same engine: the phase drive
    // is MiningPool::run_epoch's own composition; the sharded workload's
    // engine is the sharded drive.
    const Drive engine_twin = def->shards > 0 ? Drive::kSharded : Drive::kPhase;
    std::vector<double> untraced, traced;
    const RepResult* phase_rep = nullptr;
    const RepResult* sharded_rep = nullptr;
    const RepResult* twin_rep = nullptr;
    for (const RepResult& r : reps) {
      std::vector<double>& dst = r.traced ? traced : untraced;
      if (r.drive == Drive::kEngine || r.drive == engine_twin) {
        // As for epoch_s.p50, the process's first epoch is not a sample.
        const bool first = &r == &reps.front();
        dst.insert(dst.end(), r.epoch_s.begin() + (first ? 1 : 0),
                   r.epoch_s.end());
      }
      if (r.drive == Drive::kPhase && phase_rep == nullptr) phase_rep = &r;
      if (r.drive == Drive::kSharded && sharded_rep == nullptr) sharded_rep = &r;
      if (r.drive == engine_twin && twin_rep == nullptr) twin_rep = &r;
    }
    const SpanSummary spans = summarize_spans(tracer);
    const std::size_t pe = spans.prepare.size();
    add("pool.prepare_s", median(spans.prepare), "s", pe);
    add("pool.train_commit_s", median(spans.train_commit), "s", pe);
    add("pool.verify_s", median(spans.verify), "s", pe);
    add("pool.finish_s", median(spans.finish), "s", pe);
    const double cover = median(spans.cover);
    add("pool.phase_cover", cover, "fraction", pe);
    if (cover < kPhaseCoverMin) {
      std::printf("CHECK FAILED: phase spans cover %.4f of the epoch span, "
                  "below %.2f\n", cover, kPhaseCoverMin);
      correct = false;
    }
    add("sharded.epoch_s", median(spans.sharded_epoch), "s",
        spans.sharded_epoch.size(),
        def->shards > 0 ? "" : "1 shard, unbounded queue");
    const Outcome& so = sharded_rep->outcome;
    add("admission.requeued_per_epoch",
        ratio(static_cast<double>(so.requeued), static_cast<double>(so.epochs)),
        "count", static_cast<std::size_t>(so.epochs));
    add("admission.max_queue_depth", static_cast<double>(so.max_queue_depth),
        "count", static_cast<std::size_t>(so.epochs));

    const ExecutorMicro ex = time_executor(
        last_phase->factory(), last_phase->hp(), last_phase->dataset(),
        last_phase->split().test);
    add("executor.train_step_ms", ex.train_step_ms, "ms", 21);
    add("executor.eval_ms", ex.eval_ms, "ms", 5);

    const NnMicro nn = time_nn_layers(def->name, last_phase->hp().batch_size);
    const std::string control =
        nn.conv_is_control ? "conv_pool shapes (control: no such layer here)"
                           : "";
    add("nn.conv.fwd_ms", nn.conv_fwd_ms, "ms", 21, control);
    add("nn.conv.bwd_ms", nn.conv_bwd_ms, "ms", 21, control);
    add("nn.bn.fwd_ms", nn.bn_fwd_ms, "ms", 21, control);
    add("nn.bn.bwd_ms", nn.bn_bwd_ms, "ms", 21, control);
    add("nn.relu.fwd_ms", nn.relu_fwd_ms, "ms", 21);
    add("nn.relu.bwd_ms", nn.relu_bwd_ms, "ms", 21);
    add("nn.linear.fwd_ms", nn.linear_fwd_ms, "ms", 21);
    add("nn.linear.bwd_ms", nn.linear_bwd_ms, "ms", 21);
    add("tensor.conv.gflop_per_step", nn.conv_gflop_per_step, "GFLOP", 1);
    add("tensor.conv.gflops", nn.conv_gflops, "GFLOP/s", 21, control);

    const PhaseFacts& f = phase_rep->facts;
    const Outcome& po = phase_rep->outcome;
    std::int64_t phase_judged = 0;
    for (const RepResult& r : reps) {
      if (r.drive == Drive::kPhase) phase_judged += r.outcome.judged;
    }
    add("verifier.verify_ms_per_sub",
        ratio(spans.verify_total_s * 1e3, static_cast<double>(phase_judged)),
        "ms", static_cast<std::size_t>(phase_judged));
    add("verifier.reexec_steps_per_sub",
        ratio(static_cast<double>(f.reexecuted_steps),
              static_cast<double>(po.judged)),
        "count", static_cast<std::size_t>(po.judged));
    add("verifier.double_check_ratio",
        ratio(static_cast<double>(f.double_checks),
              static_cast<double>(f.sampled_checks)),
        "fraction", static_cast<std::size_t>(f.sampled_checks));
    add("lsh.hit_ratio",
        1.0 - ratio(static_cast<double>(f.lsh_mismatches),
                    static_cast<double>(f.sampled_checks)),
        "fraction", static_cast<std::size_t>(f.sampled_checks));

    // Single-checkpoint costs on the workload's final global state.
    if (!last_phase->last_lsh_config().has_value()) {
      throw std::logic_error("the phase drive recorded no LSH family");
    }
    core::StepExecutor templ(last_phase->factory(), last_phase->hp());
    core::TrainState state = templ.save_state();
    state.model = last_phase->pool().global_model();
    const StateMicro sm = time_state_ops(
        state, templ.trainable_mask(), *last_phase->last_lsh_config(),
        last_phase->hp().num_transitions() + 1);
    add("lsh.hash_ms", sm.lsh_hash_ms, "ms", 21);
    add("commit.add_checkpoint_ms", sm.commit_add_ms, "ms", 21);
    add("crypto.state_hash_mb_s", sm.state_hash_mb_s, "MB/s", 21);
    add("ckptstore.append_ms", sm.ckpt_append_ms, "ms",
        static_cast<std::size_t>(3 * (last_phase->hp().num_transitions() + 1)));
    add("ckptstore.fetch_cold_ms", sm.ckpt_fetch_cold_ms, "ms", 3);
    add("ckptstore.reload_ratio",
        ratio(static_cast<double>(f.ckpt_reloads),
              static_cast<double>(f.ckpt_appended)),
        "fraction", static_cast<std::size_t>(f.ckpt_appended));

    const auto counter = [&](const std::string& name) {
      const auto it = twin_rep->counters.find(name);
      return it == twin_rep->counters.end() ? 0.0
                                            : static_cast<double>(it->second);
    };
    double wire_total = 0.0;
    for (const auto& [name, value] : twin_rep->counters) {
      if (name.rfind("bytes.", 0) == 0) wire_total += static_cast<double>(value);
    }
    add("wire.proof_response_share",
        ratio(counter("bytes.proof_response"), wire_total), "fraction", 1);
    add("fault.retrans_per_sub",
        ratio(static_cast<double>(o.retransmissions),
              static_cast<double>(o.attempted)),
        "count", static_cast<std::size_t>(o.attempted));
    const double calls = counter("runtime.parallel_for.calls");
    add("runtime.parallel_for_calls_per_epoch",
        ratio(calls, static_cast<double>(twin_rep->outcome.epochs)), "count",
        static_cast<std::size_t>(twin_rep->outcome.epochs));
    add("runtime.inline_share",
        ratio(counter("runtime.parallel_for.inline"), calls), "fraction", 1);

    data::Dataset conv_data;
    nn::ModelFactory conv_factory;
    core::Hyperparams conv_hp;
    make_conv_inputs(args.seed, conv_data, conv_factory, conv_hp);
    const int wide = std::min(4, nproc);
    const double t_wide =
        time_train_step_ms(conv_factory, conv_hp, conv_data, wide);
    const double t_one = time_train_step_ms(conv_factory, conv_hp, conv_data, 1);
    char note[64];
    std::snprintf(note, sizeof(note), "%dt/1t train step, informational",
                  wide);
    add("runtime.conv_pool_4t_over_1t", ratio(t_wide, t_one), "ratio", 21,
        note);
    add("obs.trace_overhead", ratio(median(traced), median(untraced)), "ratio",
        traced.size());

    const std::string spans_path = "spans-" + def->name + ".jsonl";
    if (tracer.write_jsonl(spans_path)) {
      std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                  spans_path.c_str());
    }
  }

  std::printf("outcome (one repetition): epochs=%lld attempted=%lld "
              "judged=%lld lost=%lld shed=%lld honest_rejected=%lld/%lld "
              "dishonest_accepted=%lld/%lld retrans=%lld\n",
              static_cast<long long>(o.epochs),
              static_cast<long long>(o.attempted),
              static_cast<long long>(o.judged),
              static_cast<long long>(o.lost), static_cast<long long>(o.shed),
              static_cast<long long>(o.honest_rejected),
              static_cast<long long>(o.honest_judged),
              static_cast<long long>(o.dishonest_accepted),
              static_cast<long long>(o.dishonest_judged),
              static_cast<long long>(o.retransmissions));
  std::printf("measured %.2f s over %zu repetitions\n", measured_s,
              reps.size());
  std::printf("metrics:\n");
  for (const Metric& m : metrics) print_metric(m);
  print_json(correct, o.attempted, o.failed(), metrics,
             args.trace ? kPerLayer : kEndToEnd);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pool_bench: %s\n", e.what());
    return 4;
  }
}

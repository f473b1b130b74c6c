#include "core/verifier.h"

#include <algorithm>
#include <stdexcept>

#include "obs/alerts.h"
#include "obs/obs.h"

namespace rpol::core {

namespace {

// Shared verdict accounting for both verification paths. The registry is
// write-only from here: nothing read back, so tracing cannot perturb the
// accept/reject decision.
void record_verdict(const VerifyResult& result) {
  obs::count(result.accepted ? "verify.accept" : "verify.reject", 1);
  obs::flight_record(obs::FlightKind::kMark,
                     result.accepted ? "verify.accept" : "verify.reject");
  if (!result.accepted) {
    obs::count(std::string("verify.reject.") +
                   verify_failure_name(result.failure),
               1);
  }
  if (result.lsh_mismatches > 0) {
    obs::count("verify.lsh_mismatch",
               static_cast<std::uint64_t>(result.lsh_mismatches));
  }
  if (result.double_checks > 0) {
    obs::count("verify.double_check",
               static_cast<std::uint64_t>(result.double_checks));
  }
}

// First-failure classification of one failed transition check.
VerifyFailure classify_check(const TransitionCheck& check) {
  if (!check.hash_ok) return VerifyFailure::kHashMismatch;
  if (check.double_checked) return VerifyFailure::kLshMismatch;
  return VerifyFailure::kDistance;
}

void note_failure(VerifyResult& result, VerifyFailure failure) {
  if (result.failure == VerifyFailure::kNone) result.failure = failure;
}

// Ends a verification before any transition is sampled.
VerifyResult reject(VerifyResult result, VerifyFailure failure) {
  result.failure = failure;
  record_verdict(result);
  return result;
}

// In-memory adapter: lets the EpochTrace overloads delegate to the
// streaming implementations, so both paths share one decision procedure
// (bitwise-identical verdicts by construction).
class TraceSource final : public CheckpointSource {
 public:
  explicit TraceSource(const EpochTrace& trace) : trace_(&trace) {}
  std::int64_t num_checkpoints() const override {
    return static_cast<std::int64_t>(trace_->checkpoints.size());
  }
  TrainState fetch(std::int64_t index) const override {
    if (index < 0 || index >= num_checkpoints()) {
      throw std::out_of_range("checkpoint index out of range");
    }
    return trace_->checkpoints[static_cast<std::size_t>(index)];
  }

 private:
  const EpochTrace* trace_;
};

}  // namespace

const char* verify_failure_name(VerifyFailure failure) {
  switch (failure) {
    case VerifyFailure::kNone: return "none";
    case VerifyFailure::kMalformed: return "malformed";
    case VerifyFailure::kInitialBinding: return "initial_binding";
    case VerifyFailure::kHashMismatch: return "hash_mismatch";
    case VerifyFailure::kDistance: return "distance";
    case VerifyFailure::kLshMismatch: return "lsh_mismatch";
  }
  return "unknown";
}

std::vector<std::int64_t> sample_transitions(std::uint64_t seed,
                                             const Digest& commitment_root,
                                             std::int64_t transitions,
                                             std::int64_t q) {
  if (transitions <= 0) throw std::invalid_argument("no transitions to sample");
  q = std::min(q, transitions);
  // Key the PRF with both the manager's secret and the commitment root so
  // the worker cannot predict samples before committing.
  Bytes key;
  append_u64(key, seed);
  key.insert(key.end(), commitment_root.begin(), commitment_root.end());
  const Prf prf{key};

  // Fisher-Yates over [0, transitions) driven by the PRF, take the first q.
  std::vector<std::int64_t> pool(static_cast<std::size_t>(transitions));
  for (std::int64_t i = 0; i < transitions; ++i) pool[static_cast<std::size_t>(i)] = i;
  for (std::int64_t i = 0; i < q; ++i) {
    const std::uint64_t j =
        prf.eval_mod(static_cast<std::uint64_t>(i),
                     static_cast<std::uint64_t>(transitions - i)) +
        static_cast<std::uint64_t>(i);
    std::swap(pool[static_cast<std::size_t>(i)], pool[static_cast<std::size_t>(j)]);
  }
  pool.resize(static_cast<std::size_t>(q));
  std::sort(pool.begin(), pool.end());
  return pool;
}

Verifier::Verifier(const nn::ModelFactory& factory, const Hyperparams& hp,
                   VerifierConfig config)
    : hp_(hp),
      config_(std::move(config)),
      executor_(factory, hp),
      trainable_(executor_.trainable_mask()) {}

const lsh::PStableLsh& Verifier::hasher() const {
  if (!lsh_family_) {
    throw std::logic_error("RPoLv2 verification requires an LSH family");
  }
  return *lsh_family_;
}

Digest compact_commitment_binding(const CompactCommitment& compact) {
  Bytes b;
  b.push_back(compact.version == CommitmentVersion::kV1 ? 1 : 2);
  append_i64(b, compact.num_checkpoints);
  b.insert(b.end(), compact.state_root.begin(), compact.state_root.end());
  b.insert(b.end(), compact.lsh_root.begin(), compact.lsh_root.end());
  return sha256(b);
}

VerifyResult Verifier::verify_compact(const CompactCommitment& compact,
                                      const Commitment& full,
                                      const EpochTrace& trace,
                                      const EpochContext& context,
                                      const Digest& expected_initial_hash,
                                      sim::DeviceExecution& device,
                                      const obs::TraceContext& trace_parent) {
  return verify_compact(compact, full, TraceSource(trace), trace.step_of,
                        context, expected_initial_hash, device, trace_parent);
}

VerifyResult Verifier::verify_compact(const CompactCommitment& compact,
                                      const Commitment& full,
                                      const CheckpointSource& source,
                                      const std::vector<std::int64_t>& step_of,
                                      const EpochContext& context,
                                      const Digest& expected_initial_hash,
                                      sim::DeviceExecution& device,
                                      const obs::TraceContext& trace_parent) {
  if (!well_formed_epoch(hp_, compact.num_checkpoints,
                         source.num_checkpoints(), step_of) ||
      !scheme_matches(compact.version) || compact.version != full.version) {
    return reject({}, VerifyFailure::kMalformed);
  }

  // One memoized tree build covers the leaf-0 binding AND every sampled
  // transition below: proof generation drops from O(n) hashing per sample
  // to O(log n) lookups against these trees.
  const CommitmentIndex index(full);

  // Initial-state binding: the worker proves leaf 0 under state_root is the
  // distributed state's hash.
  VerifyResult result;
  {
    const TransitionProof leaf0 = index.prove_transition(0);
    result.proof_bytes += leaf0.byte_size();
    if (!digest_equal(leaf0.in_hash, expected_initial_hash) ||
        leaf0.in_membership.path_index() != 0 ||
        !MerkleTree::verify(compact.state_root, leaf0.in_hash,
                            leaf0.in_membership)) {
      return reject(std::move(result), VerifyFailure::kInitialBinding);
    }
  }

  // The bound digests arrive with membership proofs generated worker-side
  // and checked against the compact roots.
  const auto from_proofs = [&](std::int64_t j) {
    TransitionProof proof = index.prove_transition(j);
    BoundTransition bound;
    bound.proof_bytes = proof.byte_size();
    bound.proven = verify_transition_proof(compact, proof);
    bound.in_hash = proof.in_hash;
    bound.out_hash = proof.out_hash;
    bound.out_lsh = std::move(proof.out_lsh);
    return bound;
  };
  return check_transitions(
      std::move(result),
      sample_transitions(config_.sampling_seed,
                         compact_commitment_binding(compact),
                         source.num_checkpoints() - 1, config_.samples_q),
      from_proofs, source, step_of, context, device, trace_parent);
}

VerifyResult Verifier::verify(const Commitment& commitment,
                              const EpochTrace& trace,
                              const EpochContext& context,
                              const Digest& expected_initial_hash,
                              sim::DeviceExecution& device,
                              const obs::TraceContext& trace_parent) {
  return verify(commitment, TraceSource(trace), trace.step_of, context,
                expected_initial_hash, device, trace_parent);
}

VerifyResult Verifier::verify(const Commitment& commitment,
                              const CheckpointSource& source,
                              const std::vector<std::int64_t>& step_of,
                              const EpochContext& context,
                              const Digest& expected_initial_hash,
                              sim::DeviceExecution& device,
                              const obs::TraceContext& trace_parent) {
  if (!well_formed_epoch(
          hp_, static_cast<std::int64_t>(commitment.state_hashes.size()),
          source.num_checkpoints(), step_of) ||
      !scheme_matches(commitment.version) ||
      !commitment_consistent(commitment)) {
    return reject({}, VerifyFailure::kMalformed);
  }

  // The first checkpoint must be exactly the state the manager handed out.
  if (!digest_equal(commitment.state_hashes.front(), expected_initial_hash)) {
    return reject({}, VerifyFailure::kInitialBinding);
  }

  // The bound digests come straight from the uploaded lists.
  const auto from_lists = [&](std::int64_t j) {
    const auto i = static_cast<std::size_t>(j);
    BoundTransition bound;
    bound.in_hash = commitment.state_hashes[i];
    bound.out_hash = commitment.state_hashes[i + 1];
    if (config_.use_lsh) bound.out_lsh = commitment.lsh_digests[i + 1];
    return bound;
  };
  return check_transitions(
      VerifyResult{},
      sample_transitions(config_.sampling_seed, commitment.root,
                         source.num_checkpoints() - 1, config_.samples_q),
      from_lists, source, step_of, context, device, trace_parent);
}

bool well_formed_epoch(const Hyperparams& hp,
                       std::int64_t committed_checkpoints,
                       std::int64_t held_checkpoints,
                       const std::vector<std::int64_t>& step_of) {
  return held_checkpoints > 1 &&
         held_checkpoints == static_cast<std::int64_t>(step_of.size()) &&
         committed_checkpoints == held_checkpoints &&
         step_of == hp.checkpoint_boundaries();
}

VerifyResult Verifier::check_transitions(
    VerifyResult result, const std::vector<std::int64_t>& samples,
    const std::function<BoundTransition(std::int64_t)>& bind,
    const CheckpointSource& source, const std::vector<std::int64_t>& step_of,
    const EpochContext& context, sim::DeviceExecution& device,
    const obs::TraceContext& trace_parent) {
  const DeterministicSelector selector(context.nonce);

  // Decides one transition whose digests are bound; returns early, with
  // `check.passed` false, at the first failed step.
  const auto decide = [&](const BoundTransition& bound,
                          TransitionCheck& check) {
    const std::int64_t j = check.transition;
    // Fetch proof_in = C_j and hash-check it against the bound digest. The
    // fetch is a copy (possibly reloaded from a spill file); it dies with
    // this block (the executor holds the loaded weights), so at most one
    // non-replay checkpoint is resident at once.
    {
      const HashedState proof_in = source.fetch_input(j);
      result.proof_bytes += proof_in.state.byte_size();
      check.hash_ok = digest_equal(proof_in.hash, bound.in_hash);
      if (!check.hash_ok) return;

      // Re-execute the transition on the manager's device.
      const std::int64_t first = step_of[static_cast<std::size_t>(j)];
      const std::int64_t count =
          step_of[static_cast<std::size_t>(j + 1)] - first;
      {
        obs::Span reexec("reexecute", trace_parent);
        reexec.attr("transition", j);
        reexec.attr("steps", count);
        executor_.load_state(proof_in.state);
        executor_.run_steps(first, count, *context.dataset, selector, &device);
      }
      result.reexecuted_steps += count;
    }
    const TrainState replay = executor_.save_state();

    // RPoLv2 first fuzzy-matches the replayed weights against the committed
    // LSH digest of C_{j+1}; on a miss it runs the double-check below.
    if (config_.use_lsh) {
      const lsh::LshDigest replay_digest =
          hash_trainable(hasher(), replay.model, &trainable_);
      check.lsh_matched = lsh::lsh_match(replay_digest, bound.out_lsh);
      if (check.lsh_matched) {
        check.passed = true;
        return;
      }
      ++result.lsh_mismatches;
      ++result.double_checks;
      check.double_checked = true;
    }
    // RPoLv1 and the double-check: only now is the raw output state pulled
    // in, hash-checked and distance-tested.
    const HashedState claimed = source.fetch_output(j);
    result.proof_bytes += claimed.state.byte_size();
    check.hash_ok = digest_equal(claimed.hash, bound.out_hash);
    if (!check.hash_ok) return;
    check.distance =
        trainable_distance(replay.model, claimed.state.model, trainable_);
    check.passed = check.distance <= config_.beta;
  };

  bool all_passed = true;
  for (const std::int64_t j : samples) {
    TransitionCheck check;
    check.transition = j;
    const BoundTransition bound = bind(j);
    result.proof_bytes += bound.proof_bytes;
    // An unproven binding leaves hash_ok false: a kHashMismatch check.
    if (bound.proven) decide(bound, check);
    if (!check.passed) note_failure(result, classify_check(check));
    all_passed = all_passed && check.passed;
    result.checks.push_back(check);
  }
  result.accepted = all_passed;
  record_verdict(result);
  return result;
}

}  // namespace rpol::core

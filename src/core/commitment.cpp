#include "core/commitment.h"

#include <stdexcept>

#include "runtime/thread_pool.h"

namespace rpol::core {

namespace {

// Checkpoint states are megabytes each, so one leaf per slice is the right
// granularity for the deterministic pool; each index writes only its own
// pre-sized slot, preserving bitwise thread-count invariance.
constexpr std::int64_t kLeafGrain = 1;

// One checkpoint's commitment leaves, written into slot j of `c`: the
// SHA-256 of the state and, for v2 (`hasher` set), the LSH digest of its
// trainable weights. The one definition of a leaf, shared by the batch
// commit_v1/v2 and CommitmentBuilder.
void hash_leaves(const TrainState& state, const lsh::PStableLsh* hasher,
                 const TrainableRuns* trainable, Commitment& c,
                 std::size_t j) {
  c.state_hashes[j] = hash_state(state);
  if (hasher != nullptr) {
    c.lsh_digests[j] = hash_trainable(*hasher, state.model, trainable);
  }
}

// Batch commitment over a materialized trace, v2 iff `hasher` is set.
// PStableLsh::hash is const and stateless per call, so fanning the leaf
// work across checkpoints is safe and deterministic.
Commitment commit_trace(const EpochTrace& trace, const lsh::PStableLsh* hasher,
                        const std::vector<bool>* mask) {
  if (trace.checkpoints.empty()) throw std::invalid_argument("empty trace");
  std::optional<TrainableRuns> trainable;
  if (hasher != nullptr && mask != nullptr) trainable.emplace(*mask);
  Commitment c;
  c.version =
      hasher != nullptr ? CommitmentVersion::kV2 : CommitmentVersion::kV1;
  c.state_hashes.resize(trace.checkpoints.size());
  if (hasher != nullptr) c.lsh_digests.resize(trace.checkpoints.size());
  runtime::parallel_for(
      0, static_cast<std::int64_t>(trace.checkpoints.size()), kLeafGrain,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t j = lo; j < hi; ++j) {
          const auto i = static_cast<std::size_t>(j);
          hash_leaves(trace.checkpoints[i], hasher,
                      trainable ? &*trainable : nullptr, c, i);
        }
      });
  c.root = commitment_root(c);
  return c;
}

// Hashes every LSH digest into its domain-separated Merkle leaf, in parallel.
std::vector<Digest> hash_lsh_leaves(const std::vector<lsh::LshDigest>& digests) {
  std::vector<Digest> leaves(digests.size());
  runtime::parallel_for(
      0, static_cast<std::int64_t>(digests.size()), kLeafGrain,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t j = lo; j < hi; ++j) {
          leaves[static_cast<std::size_t>(j)] =
              lsh_leaf_digest(digests[static_cast<std::size_t>(j)]);
        }
      });
  return leaves;
}

const std::vector<Digest>& checked_state_hashes(const Commitment& full) {
  if (full.state_hashes.empty()) {
    throw std::invalid_argument("empty commitment");
  }
  return full.state_hashes;
}

std::optional<MerkleTree> make_lsh_tree(const Commitment& full) {
  if (full.version != CommitmentVersion::kV2) return std::nullopt;
  return MerkleTree(hash_lsh_leaves(full.lsh_digests));
}

}  // namespace

std::uint64_t EpochTrace::storage_bytes() const {
  std::uint64_t total = 0;
  for (const auto& c : checkpoints) total += c.byte_size();
  return total;
}

Bytes serialize_state(const TrainState& state) {
  Bytes out;
  out.reserve(encoded_floats_size(state.model.size()) +
              encoded_floats_size(state.optimizer.size()));
  append_floats(out, state.model);
  append_floats(out, state.optimizer);
  return out;
}

void update_with_floats(Sha256& h, const std::vector<float>& v) {
  std::uint8_t prefix[8];
  store_u64_le(v.size(), prefix);
  h.update(prefix, sizeof prefix);
  write_f32_le(v.data(), v.size(), [&](const std::uint8_t* p, std::size_t n) {
    h.update(p, n);
  });
}

lsh::LshDigest hash_trainable(const lsh::PStableLsh& hasher,
                              const std::vector<float>& model,
                              const TrainableRuns* trainable) {
  if (trainable == nullptr ||
      (trainable->all() && model.size() == trainable->size())) {
    return hasher.hash(model);
  }
  return hasher.hash(extract_trainable(model, *trainable));  // checks sizes
}

Digest hash_state(const TrainState& state) {
  Sha256 h;
  update_with_floats(h, state.model);
  update_with_floats(h, state.optimizer);
  return h.finish();
}

HashedState CheckpointSource::fetch_input(std::int64_t transition) const {
  HashedState out{fetch(transition), {}};
  out.hash = hash_state(out.state);
  return out;
}

HashedState CheckpointSource::fetch_output(std::int64_t transition) const {
  return fetch_input(transition + 1);
}

std::uint64_t Commitment::byte_size() const {
  std::uint64_t total = 32;  // root
  total += 32ULL * state_hashes.size();
  for (const auto& d : lsh_digests) total += 32ULL * d.groups.size() + 8;
  return total;
}

Commitment commit_v1(const EpochTrace& trace) {
  return commit_trace(trace, nullptr, nullptr);
}

Commitment commit_v2(const EpochTrace& trace, const lsh::PStableLsh& hasher,
                     const std::vector<bool>* mask) {
  return commit_trace(trace, &hasher, mask);
}

Digest commitment_root(const Commitment& commitment) {
  Sha256 h;
  const std::uint8_t version_byte =
      commitment.version == CommitmentVersion::kV1 ? 0x01 : 0x02;
  h.update(&version_byte, 1);
  for (const auto& d : commitment.state_hashes) h.update(d.data(), d.size());
  for (const auto& lsh_digest : commitment.lsh_digests) {
    const Bytes encoded = lsh::serialize_lsh_digest(lsh_digest);
    h.update(encoded);
  }
  return h.finish();
}

Digest lsh_leaf_digest(const lsh::LshDigest& digest) {
  Sha256 h;
  const std::uint8_t domain = 0x4C;  // 'L'
  h.update(&domain, 1);
  h.update(lsh::serialize_lsh_digest(digest));
  return h.finish();
}

CommitmentIndex::CommitmentIndex(const Commitment& full)
    : full_(&full),
      state_tree_(checked_state_hashes(full)),
      lsh_tree_(make_lsh_tree(full)) {
  mem_.set(state_tree_.byte_size() +
           (lsh_tree_.has_value() ? lsh_tree_->byte_size() : 0));
}

CompactCommitment CommitmentIndex::compact() const {
  CompactCommitment compact;
  compact.version = full_->version;
  compact.num_checkpoints =
      static_cast<std::int64_t>(full_->state_hashes.size());
  compact.state_root = state_tree_.root();
  if (lsh_tree_.has_value()) compact.lsh_root = lsh_tree_->root();
  return compact;
}

TransitionProof CommitmentIndex::prove_transition(
    std::int64_t transition) const {
  const auto count = static_cast<std::int64_t>(full_->state_hashes.size());
  if (transition < 0 || transition + 1 >= count) {
    throw std::out_of_range("transition index out of range");
  }
  TransitionProof proof;
  proof.transition = transition;
  proof.in_hash = full_->state_hashes[static_cast<std::size_t>(transition)];
  proof.in_membership = state_tree_.prove(static_cast<std::size_t>(transition));
  proof.out_hash = full_->state_hashes[static_cast<std::size_t>(transition + 1)];
  proof.out_membership =
      state_tree_.prove(static_cast<std::size_t>(transition + 1));
  if (lsh_tree_.has_value()) {
    proof.out_lsh = full_->lsh_digests[static_cast<std::size_t>(transition + 1)];
    proof.out_lsh_membership =
        lsh_tree_->prove(static_cast<std::size_t>(transition + 1));
  }
  return proof;
}

CompactCommitment compact_commitment(const Commitment& full) {
  return CommitmentIndex(full).compact();
}

CommitmentBuilder::CommitmentBuilder(CommitmentVersion version,
                                     const lsh::PStableLsh* hasher,
                                     const std::vector<bool>* mask)
    : hasher_(version == CommitmentVersion::kV2 ? hasher : nullptr) {
  if (hasher_ != nullptr && mask != nullptr) trainable_.emplace(*mask);
  if (version == CommitmentVersion::kV2 && hasher_ == nullptr) {
    throw std::invalid_argument("v2 commitment builder needs an LSH hasher");
  }
  acc_.version = version;
}

void CommitmentBuilder::add_checkpoint(const TrainState& state) {
  acc_.state_hashes.emplace_back();
  if (hasher_ != nullptr) acc_.lsh_digests.emplace_back();
  hash_leaves(state, hasher_, trainable_ ? &*trainable_ : nullptr, acc_,
              acc_.state_hashes.size() - 1);
  mem_.set(acc_.byte_size());
}

Commitment CommitmentBuilder::finish() const {
  if (acc_.state_hashes.empty()) {
    throw std::invalid_argument("empty trace");
  }
  Commitment out = acc_;
  out.root = commitment_root(out);
  return out;
}

std::uint64_t TransitionProof::byte_size() const {
  std::uint64_t total = 8 + 32 + 32;  // index + two hashes
  total += 33ULL * (in_membership.siblings.size() +
                    out_membership.siblings.size() +
                    out_lsh_membership.siblings.size());
  total += 32ULL * out_lsh.groups.size();
  return total;
}

bool verify_transition_proof(const CompactCommitment& compact,
                             const TransitionProof& proof) {
  if (proof.transition < 0 || proof.transition + 1 >= compact.num_checkpoints) {
    return false;
  }
  // Positions must match the claimed transition. path_index() is derived
  // from the proof's sibling sides, so a valid proof for the wrong leaf
  // cannot be relabelled.
  if (proof.in_membership.path_index() !=
          static_cast<std::size_t>(proof.transition) ||
      proof.out_membership.path_index() !=
          static_cast<std::size_t>(proof.transition + 1)) {
    return false;
  }
  if (!MerkleTree::verify(compact.state_root, proof.in_hash,
                          proof.in_membership) ||
      !MerkleTree::verify(compact.state_root, proof.out_hash,
                          proof.out_membership)) {
    return false;
  }
  if (compact.version == CommitmentVersion::kV2) {
    if (proof.out_lsh_membership.path_index() !=
        static_cast<std::size_t>(proof.transition + 1)) {
      return false;
    }
    if (!MerkleTree::verify(compact.lsh_root, lsh_leaf_digest(proof.out_lsh),
                            proof.out_lsh_membership)) {
      return false;
    }
  }
  return true;
}

bool commitment_consistent(const Commitment& commitment) {
  if (commitment.state_hashes.empty()) return false;
  if (commitment.version == CommitmentVersion::kV2 &&
      commitment.lsh_digests.size() != commitment.state_hashes.size()) {
    return false;
  }
  return digest_equal(commitment.root, commitment_root(commitment));
}

}  // namespace rpol::core

#include "core/session.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>

#include "obs/alerts.h"
#include "obs/mem.h"
#include "obs/obs.h"

namespace rpol::core {

const char* message_type_name(MessageType type) {
  switch (type) {
    case MessageType::kAnnouncement: return "announcement";
    case MessageType::kGlobalState: return "state";
    case MessageType::kCommitment: return "commitment";
    case MessageType::kUpdate: return "update";
    case MessageType::kProofRequest: return "proof_request";
    case MessageType::kProofResponse: return "proof_response";
  }
  return "unknown";
}

static_assert(kNumMessageTypes <= fault::kMaxMessageTypes,
              "fault plans must be able to profile every message type");

namespace {

void mirror_to_registry(MessageType type, std::uint64_t bytes) {
  if (!obs::telemetry_enabled()) return;
  obs::counter(std::string("bytes.") + message_type_name(type)).add(bytes);
}

// Thrown when an exchange exhausts its retry budget, after the
// ExchangeDriver has set the typed session status; run_protocol_session
// catches it and ends the session. Not a std::exception, so no decode
// handler can mistake it for a payload the receiver rejected.
struct ExchangeFailed {};

// One message exchange under the session's retry state machine: transmit
// through the (possibly faulty) channel, decode-and-validate on the
// receiving side, retry with exponential backoff on loss or mangling, and
// classify the failure when the budget runs out (ExchangeFailed). `decode`
// must throw on any payload the receiver cannot accept; its return value is
// the exchange's result. `withheld` scripts a byzantine peer that never
// transmits at all (the sender's timeouts still burn the retry budget).
struct ExchangeDriver {
  fault::FaultyChannel<CountingChannel>& channel;
  const SessionConfig& config;
  SessionOutcome& outcome;
  // Trace context that rode the envelope of the last successfully decoded
  // message — what the receiving side's spans adopt as their remote parent.
  obs::TraceContext last_rx{};

  // `sender` is the transmitting span's trace context. The envelope is
  // attached AFTER fault delivery and stripped before decode: fault
  // injection, size caps, and byte accounting all see only the canonical
  // inner message, so a traced run takes byte-identical protocol decisions
  // to an untraced one (the determinism contract). On a real network the
  // envelope would wrap the whole frame; the strip-before-decode point is
  // the same either way.
  template <typename DecodeFn>
  auto run(MessageType type, const Bytes& encoded, bool to_worker,
           DecodeFn&& decode, const obs::TraceContext& sender = {},
           bool withheld = false) -> decltype(decode(encoded)) {
    const auto type_index = static_cast<std::size_t>(type);
    bool last_failure_was_decode = false;
    // The encoded message is buffered for the whole exchange (every retry
    // retransmits it); received payloads are charged per attempt below.
    obs::MemScope wire_mem(obs::MemTag::kWire, encoded.size());
    for (int attempt = 0; attempt < config.retry.max_attempts; ++attempt) {
      if (attempt > 0) {
        ++outcome.retries_by_type[type_index];
        ++outcome.total_retries;
        // Saturating accumulate: per-retry waits can themselves sit at the
        // cap (fault::backoff_ticks saturates), so a long exchange under a
        // huge cap must not overflow the session total either.
        const std::int64_t wait =
            fault::backoff_ticks(config.retry, attempt - 1);
        outcome.backoff_ticks =
            outcome.backoff_ticks >
                    std::numeric_limits<std::int64_t>::max() - wait
                ? std::numeric_limits<std::int64_t>::max()
                : outcome.backoff_ticks + wait;
        obs::count("session.retry", 1);
      }
      if (withheld) {
        // The peer stays silent: nothing crosses the wire, the sender's
        // timer expires, and the retry loop spins down to a timeout.
        last_failure_was_decode = false;
        continue;
      }
      fault::Delivery delivery =
          to_worker ? channel.send_to_worker(type, encoded)
                    : channel.send_to_manager(type, encoded);
      if (delivery.status != fault::DeliveryStatus::kDelivered) {
        last_failure_was_decode = false;
        continue;
      }
      // Receive-side buffer, live until this attempt decodes or rejects.
      obs::MemScope rx_mem(obs::MemTag::kWire, delivery.payload.size());
      if (delivery.payload.size() > config.retry.max_message_bytes) {
        // Size cap enforced before parsing: a hostile peer cannot force
        // the receiver to buffer or decode unbounded payloads.
        obs::count("session.oversize_rejected", 1);
        last_failure_was_decode = true;
        continue;
      }
      try {
        if (obs::enabled()) {
          const Bytes framed = core::wrap_trace_envelope(
              sender.trace_id, sender.span_id, delivery.payload);
          obs::TraceContext rx;
          const Bytes inner =
              strip_trace_envelope(framed, &rx.trace_id, &rx.span_id);
          auto result = decode(inner);
          last_rx = rx;
          return result;
        }
        return decode(delivery.payload);
      } catch (const std::exception&) {
        obs::count("session.decode_reject", 1);
        last_failure_was_decode = true;
        continue;
      }
    }
    outcome.status = last_failure_was_decode ? SessionStatus::kDecodeRejected
                                             : SessionStatus::kTimeout;
    obs::count(std::string("session.fail.") +
                   session_status_name(outcome.status),
               1);
    // A hard-failed exchange is a forensic moment: record it and persist
    // the flight ring so the tail of events that led here survives.
    obs::flight_record(obs::FlightKind::kFault,
                       session_status_name(outcome.status));
    obs::dump_flight_record();
    throw ExchangeFailed();
  }
};

// A decoded ProofResponse whose states all hash-matched the commitment,
// with the digest of each state as the decoder computed it.
struct CheckedProofs {
  ProofResponse states;
  std::vector<Digest> input_hashes;
  std::vector<Digest> output_hashes;
};

// The manager's view of the worker's proof store while Verifier::verify
// runs. Inputs (and RPoLv1 outputs) come from the batched ProofResponse,
// already hash-checked at decode; an RPoLv2 double-check fetches its output
// with one more round trip. Each state is handed over with the digest its
// decoder computed, so the verifier does not hash it a second time. The
// verifier re-derives the samples the proof request carried, so a fetch
// outside them means the two calls disagree.
class WireProofSource final : public CheckpointSource {
 public:
  using DoubleCheck = std::function<CheckedProofs(std::int64_t)>;
  WireProofSource(std::int64_t committed,
                  const std::vector<std::int64_t>& requested,
                  const CheckedProofs& proofs, DoubleCheck double_check)
      : committed_(committed),
        requested_(requested),
        proofs_(proofs),
        double_check_(std::move(double_check)) {}

  std::int64_t num_checkpoints() const override { return committed_; }
  TrainState fetch(std::int64_t index) const override {
    return proofs_.states.input_states[position(index)];
  }
  HashedState fetch_input(std::int64_t transition) const override {
    const std::size_t s = position(transition);
    return {proofs_.states.input_states[s], proofs_.input_hashes[s]};
  }
  HashedState fetch_output(std::int64_t transition) const override {
    const std::size_t s = position(transition);
    if (!proofs_.states.output_states.empty()) {
      return {proofs_.states.output_states[s], proofs_.output_hashes[s]};
    }
    CheckedProofs fetched = double_check_(transition);
    return {std::move(fetched.states.output_states.front()),
            fetched.output_hashes.front()};
  }

 private:
  std::size_t position(std::int64_t transition) const {
    const auto it = std::find(requested_.begin(), requested_.end(), transition);
    if (it == requested_.end()) {
      throw std::logic_error("verifier sampled a transition never requested");
    }
    return static_cast<std::size_t>(it - requested_.begin());
  }

  std::int64_t committed_;
  const std::vector<std::int64_t>& requested_;
  const CheckedProofs& proofs_;
  DoubleCheck double_check_;
};

// Deterministic checkpoint mutation for the scripted byzantine behaviors;
// large enough that no honest threshold can absorb it.
void perturb_state(TrainState& state, float delta) {
  if (!state.model.empty()) state.model[0] += delta;
}

// Transfers one TrainState as a sequence of integrity-checked chunks, each
// chunk a full exchange (timeout/retry/backoff, fault injection, byte
// accounting) under the logical `type`. `validate` (may be empty) runs once
// over the fully assembled state; a throw NACKs the final chunk, and since
// the assembler has already consumed that offset, the retransmits exhaust
// the budget into kDecodeRejected — a state that fails validation is never
// taken, so a torn or forged transfer cannot be accepted.
TrainState exchange_state_chunked(
    ExchangeDriver& exchange, MessageType type, const TrainState& state,
    bool to_worker, const SessionConfig& config,
    const std::function<void(const TrainState&)>& validate,
    const obs::TraceContext& sender) {
  ChunkedStateEncoder encoder(state, config.chunk_bytes);
  ChunkedStateAssembler assembler(config.max_state_bytes);
  const std::int64_t n = encoder.num_chunks();
  for (std::int64_t i = 0; i < n; ++i) {
    // Materialized per iteration: the sender's resident wire footprint is
    // one encoded chunk, never the full state encoding.
    const Bytes frame = encode_state_chunk(encoder.chunk(i));
    exchange.run(
        type, frame, to_worker,
        [&](const Bytes& b) {
          assembler.accept(decode_state_chunk(b));
          if (assembler.complete() && validate) validate(assembler.peek());
          return true;
        },
        sender);
  }
  if (!assembler.complete()) {
    // Unreachable with the local encoder (chunk totals add up by
    // construction), kept as a typed failure rather than a crash.
    exchange.outcome.status = SessionStatus::kDecodeRejected;
    throw ExchangeFailed();
  }
  return assembler.take();
}

}  // namespace

Bytes CountingChannel::send_to_worker(MessageType type, Bytes message) {
  to_worker_ += message.size();
  by_type_[static_cast<std::size_t>(type)] += message.size();
  mirror_to_registry(type, message.size());
  return message;
}

Bytes CountingChannel::send_to_manager(MessageType type, Bytes message) {
  to_manager_ += message.size();
  by_type_[static_cast<std::size_t>(type)] += message.size();
  mirror_to_registry(type, message.size());
  return message;
}

SessionOutcome run_protocol_session(
    const nn::ModelFactory& factory, const Hyperparams& hp,
    const SessionConfig& config, const TrainState& global_state,
    std::uint64_t nonce, const data::DatasetView& worker_data,
    WorkerPolicy& policy, const sim::DeviceProfile& worker_device,
    std::uint64_t worker_run_seed, const sim::DeviceProfile& manager_device,
    std::uint64_t manager_run_seed) {
  if (config.scheme == Scheme::kBaseline) {
    throw std::invalid_argument("protocol session requires an RPoL scheme");
  }
  if (config.scheme == Scheme::kRPoLv2 && !config.lsh.has_value()) {
    throw std::invalid_argument("RPoLv2 session needs an LSH config");
  }
  if (config.retry.max_attempts < 1) {
    throw std::invalid_argument("retry budget needs >= 1 attempt");
  }

  obs::Span session_span("session", config.trace_parent);
  CountingChannel counting;
  fault::FaultyChannel<CountingChannel> channel(counting, config.fault_plan);
  SessionOutcome outcome;
  ExchangeDriver exchange{channel, config, outcome};
  const fault::Byzantine byzantine =
      config.fault_plan ? config.fault_plan->byzantine
                        : fault::Byzantine::kNone;

  // Every exchange that exhausts its budget throws ExchangeFailed, from the
  // verifier's fetches too; the outcome already carries the typed status.
  try {
    // --- Manager -> worker: task announcement + global state. ---------------
    TaskAnnouncement announcement;
    announcement.nonce = nonce;
    announcement.hp = hp;
    announcement.initial_state_hash = hash_state(global_state);
    announcement.lsh = config.lsh;
    TaskAnnouncement worker_view;
    TrainState worker_initial;
    {
      obs::Span s("announce", session_span);
      worker_view = exchange.run(
          MessageType::kAnnouncement, encode_task_announcement(announcement),
          /*to_worker=*/true,
          [](const Bytes& b) { return decode_task_announcement(b); },
          s.context());

      // The worker validates the transfer against the announced hash; a
      // mismatch (in-flight corruption that still decodes) is indistinct from
      // a decode failure at the protocol level, so it NACKs and the manager
      // retransmits. Chunked mode applies the same check once the stream
      // assembles; per-chunk digests catch transport corruption earlier.
      const auto validate_initial = [&](const TrainState& state) {
        if (!digest_equal(hash_state(state), worker_view.initial_state_hash)) {
          throw std::runtime_error("state transfer corrupted");
        }
      };
      if (config.chunk_bytes > 0) {
        worker_initial = exchange_state_chunked(
            exchange, MessageType::kGlobalState, global_state,
            /*to_worker=*/true, config, validate_initial, s.context());
      } else {
        worker_initial = exchange.run(
            MessageType::kGlobalState, encode_train_state(global_state),
            /*to_worker=*/true, [&](const Bytes& b) {
              std::size_t offset = 0;
              TrainState state = decode_train_state(b, offset);
              if (offset != b.size()) {
                throw std::invalid_argument("trailing bytes in state");
              }
              validate_initial(state);
              return state;
            },
            s.context());
      }
    }

    // --- Worker side: decode, train, commit. --------------------------------
    StepExecutor worker_executor(factory, worker_view.hp);
    EpochContext ctx;
    ctx.nonce = worker_view.nonce;
    ctx.initial = std::move(worker_initial);
    ctx.dataset = &worker_data;
    sim::DeviceExecution worker_gpu(worker_device, worker_run_seed);
    EpochTrace trace;
    Commitment commitment;
    Bytes commit_wire;
    Commitment manager_commitment;
    TrainState manager_update;
    {
      // The worker agent's spans hang off the context that arrived with the
      // announcement, stitching both sides of the wire into one causal tree.
      obs::Span worker_span("worker_epoch", exchange.last_rx, /*worker=*/0);
      {
        obs::Span s("train", worker_span, /*worker=*/0);
        trace = policy.produce_trace(worker_executor, ctx, worker_gpu);
        s.attr("storage_bytes", trace.storage_bytes());
      }

      // Scripted byzantine mutations of what the worker is about to commit.
      if (byzantine == fault::Byzantine::kStaleCommitmentReplay) {
        // Replay of a commitment built for an older global state: internally
        // consistent (hashes match its own checkpoints) but C_0 no longer
        // matches the state the manager distributed this epoch.
        for (auto& checkpoint : trace.checkpoints) {
          perturb_state(checkpoint, 0.5F);
        }
      }

      {
        obs::Span s("commit", worker_span, /*worker=*/0);
        if (config.scheme == Scheme::kRPoLv2 &&
            byzantine != fault::Byzantine::kCommitmentDowngrade) {
          const lsh::PStableLsh hasher(*worker_view.lsh);
          commitment =
              commit_v2(trace, hasher, &worker_executor.trainable_mask());
        } else {
          commitment = commit_v1(trace);
        }
        commit_wire = encode_commitment(commitment);
        if (byzantine == fault::Byzantine::kOversizedPayload) {
          commit_wire.assign(
              static_cast<std::size_t>(
                  config.fault_plan->oversized_payload_bytes),
              0xEE);
        }
      }

      {
        obs::Span s("submit", worker_span, /*worker=*/0);
        // A commitment of the other scheme is rejected at decode time: an
        // RPoLv1 list in an RPoLv2 session has no LSH digests to match.
        const CommitmentVersion expected_version =
            config.scheme == Scheme::kRPoLv2 ? CommitmentVersion::kV2
                                             : CommitmentVersion::kV1;
        manager_commitment = exchange.run(
            MessageType::kCommitment, commit_wire, /*to_worker=*/false,
            [&](const Bytes& b) {
              Commitment decoded = decode_commitment(b);
              if (decoded.version != expected_version) {
                throw std::invalid_argument(
                    "commitment version does not match the session scheme");
              }
              return decoded;
            },
            s.context());

        // The model update itself (final weights) travels with the commitment.
        TrainState update;
        update.model = trace.checkpoints.back().model;
        if (config.chunk_bytes > 0) {
          manager_update = exchange_state_chunked(
              exchange, MessageType::kUpdate, update, /*to_worker=*/false,
              config, /*validate=*/nullptr, s.context());
        } else {
          manager_update = exchange.run(
              MessageType::kUpdate, encode_train_state(update),
              /*to_worker=*/false,
              [](const Bytes& b) {
                std::size_t offset = 0;
                TrainState state = decode_train_state(b, offset);
                if (offset != b.size()) {
                  throw std::invalid_argument("trailing bytes in update");
                }
                return state;
              },
              s.context());
        }
      }
    }

    // Worker-side proof store: what proof responses are served from. A forger
    // keeps an honest commitment but answers requests with doctored states.
    const auto serve_checkpoint = [&](std::int64_t j) {
      TrainState state = trace.checkpoints[static_cast<std::size_t>(j)];
      if (byzantine == fault::Byzantine::kForgedCheckpointState) {
        perturb_state(state, 1.0e-2F);
      }
      return state;
    };

    // One ProofRequest/ProofResponse pair: the worker serves C_j (`inputs`)
    // and C_{j+1} (`outputs`) for each requested j. The manager validates the
    // states against the commitment at decode time: transport corruption of a
    // proof is indistinguishable from any other mangled payload, so it NACKs
    // and refetches instead of blaming the worker. A peer that persistently
    // serves states that do not hash to its own commitment (forgery)
    // exhausts the budget and is rejected with kDecodeRejected.
    const auto& hashes = manager_commitment.state_hashes;
    const auto exchange_proofs = [&](const std::vector<std::int64_t>& requested,
                                     bool inputs, bool outputs,
                                     const obs::TraceContext& sender) {
      const ProofRequest worker_request = exchange.run(
          MessageType::kProofRequest, encode_proof_request({requested}),
          /*to_worker=*/true,
          [&](const Bytes& b) {
            ProofRequest decoded = decode_proof_request(b);
            for (const auto j : decoded.transitions) {
              if (j < 0 || j >= trace.num_transitions()) {
                throw std::runtime_error("proof request out of range");
              }
            }
            return decoded;
          },
          sender);

      obs::Span serve_span("serve_proof", exchange.last_rx, /*worker=*/0);
      ProofResponse response;
      for (const auto j : worker_request.transitions) {
        if (inputs) response.input_states.push_back(serve_checkpoint(j));
        if (outputs) response.output_states.push_back(serve_checkpoint(j + 1));
      }
      const std::size_t n = requested.size();
      return exchange.run(
          MessageType::kProofResponse, encode_proof_response(response),
          /*to_worker=*/false,
          [&](const Bytes& b) {
            CheckedProofs checked{decode_proof_response(b), {}, {}};
            const ProofResponse& decoded = checked.states;
            if (decoded.input_states.size() != (inputs ? n : 0u) ||
                decoded.output_states.size() != (outputs ? n : 0u)) {
              throw std::invalid_argument("proof response shape mismatch");
            }
            for (std::size_t s = 0; s < n; ++s) {
              const auto j = static_cast<std::size_t>(requested[s]);
              if (j + 1 >= hashes.size()) {
                throw std::out_of_range("proof transition beyond commitment");
              }
              if (inputs) {
                checked.input_hashes.push_back(
                    hash_state(decoded.input_states[s]));
              }
              if (outputs) {
                checked.output_hashes.push_back(
                    hash_state(decoded.output_states[s]));
              }
              const bool in_ok =
                  !inputs || digest_equal(checked.input_hashes.back(), hashes[j]);
              const bool out_ok =
                  !outputs ||
                  digest_equal(checked.output_hashes.back(), hashes[j + 1]);
              if (!in_ok || !out_ok) {
                throw std::runtime_error(
                    "proof state does not match commitment");
              }
            }
            return checked;
          },
          serve_span.context(),
          /*withheld=*/byzantine == fault::Byzantine::kProofWithholding);
    };

    // --- Manager: sample post-commitment, request proofs. -------------------
    // Samples are drawn over the commitment, as Verifier::verify draws them
    // below; it rejects a commitment of the wrong shape unsampled, so no
    // proofs are requested for one.
    const std::vector<std::int64_t> step_of = hp.checkpoint_boundaries();
    const auto committed = static_cast<std::int64_t>(hashes.size());
    std::vector<std::int64_t> samples;
    CheckedProofs proofs;
    if (well_formed_epoch(hp, committed, committed, step_of)) {
      samples =
          sample_transitions(config.sampling_seed, manager_commitment.root,
                             committed - 1, config.samples_q);
      obs::Span s("proof_exchange", session_span);
      proofs = exchange_proofs(samples, /*inputs=*/true,
                               config.scheme == Scheme::kRPoLv1, s.context());
    }

    // --- Manager: re-execute and decide, as the pool does. -------------------
    obs::Span verify_span("verify", session_span, /*worker=*/0);
    const bool v2 = config.scheme == Scheme::kRPoLv2;
    Verifier verifier(
        factory, hp, {config.samples_q, config.beta, v2, config.sampling_seed});
    if (v2) {
      verifier.set_lsh_family(
          std::make_shared<const lsh::PStableLsh>(*config.lsh));
    }
    sim::DeviceExecution manager_gpu(manager_device, manager_run_seed);
    // An RPoLv2 double-check re-requests one transition's raw output.
    const auto double_check = [&](std::int64_t j) {
      return exchange_proofs({j}, /*inputs=*/false, /*outputs=*/true,
                             verify_span.context());
    };
    const WireProofSource source(committed, samples, proofs, double_check);
    outcome.verdict = verifier.verify(
        manager_commitment, source, step_of,
        EpochContext{.nonce = nonce, .initial = {}, .dataset = &worker_data},
        announcement.initial_state_hash, manager_gpu, verify_span.context());

    outcome.accepted = outcome.verdict.accepted;
    outcome.status = outcome.accepted ? SessionStatus::kAccepted
                                      : SessionStatus::kVerdictRejected;
    outcome.final_model = manager_update.model;
    verify_span.attr("accepted", outcome.accepted);
    verify_span.attr("double_checks", outcome.verdict.double_checks);
  } catch (const ExchangeFailed&) {
    // The failed exchange already set the typed status; nothing to undo.
  }

  // Transport accounting on every exit, so the typed bytes always sum to
  // the direction totals.
  outcome.bytes_to_worker = counting.bytes_to_worker();
  outcome.bytes_to_manager = counting.bytes_to_manager();
  outcome.bytes_by_type = counting.bytes_by_type();
  if (const fault::FaultStats* stats = channel.stats()) outcome.faults = *stats;
  session_span.attr("status", session_status_name(outcome.status));
  session_span.attr("retries", outcome.total_retries);
  session_span.attr("backoff_ticks", outcome.backoff_ticks);
  return outcome;
}

}  // namespace rpol::core

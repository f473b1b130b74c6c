// The canonical fp32 codec (tensor/serialize.h) and the checkpoint path
// built on it: every encoder equals a per-byte reference encoder kept here
// as the oracle (serialize_floats, serialize_state, encode_train_state, the
// state hash, ChunkedStateEncoder windows at odd offsets), the chunked
// assembler gives the one-shot state at every split, the spill file
// holds exactly the serialize_state bytes of the appended states, truncated
// and corrupt input still throws, and the run-based trainable extraction
// and distance equal the per-element reference bitwise at 1 and 4 threads.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <vector>

#include "core/ckptstore.h"
#include "core/wire.h"
#include "nn/models.h"
#include "runtime/thread_pool.h"
#include "tensor/rng.h"

namespace rpol::core {
namespace {

// ---------------------------------------------------------------------------
// Oracles: the byte-at-a-time encoders and the per-element trainable loops.

void reference_append_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

Bytes reference_floats(const std::vector<float>& v) {
  Bytes out;
  reference_append_u64(out, v.size());
  for (const float f : v) {
    const auto bits = std::bit_cast<std::uint32_t>(f);
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  return out;
}

Bytes reference_state(const TrainState& s) {
  Bytes out = reference_floats(s.model);
  const Bytes opt = reference_floats(s.optimizer);
  out.insert(out.end(), opt.begin(), opt.end());
  return out;
}

std::vector<float> reference_extract(const std::vector<float>& model,
                                     const std::vector<bool>& mask) {
  std::vector<float> out;
  for (std::size_t i = 0; i < model.size(); ++i) {
    if (mask[i]) out.push_back(model[i]);
  }
  return out;
}

// Fixed 4096-element blocks, each accumulated in index order, combined in
// block order: the reduction trainable_distance promises.
double reference_distance(const std::vector<float>& a,
                          const std::vector<float>& b,
                          const std::vector<bool>& mask) {
  constexpr std::size_t kBlock = 4096;
  double total = 0.0;
  for (std::size_t lo = 0; lo < a.size(); lo += kBlock) {
    double acc = 0.0;
    for (std::size_t i = lo; i < std::min(a.size(), lo + kBlock); ++i) {
      if (!mask[i]) continue;
      const double d = static_cast<double>(a[i]) - b[i];
      acc += d * d;
    }
    total += acc;
  }
  return std::sqrt(total);
}

std::vector<std::uint32_t> bits_of(const std::vector<float>& v) {
  std::vector<std::uint32_t> out;
  out.reserve(v.size());
  for (const float f : v) out.push_back(std::bit_cast<std::uint32_t>(f));
  return out;
}

// `n` floats of random data with the awkward values planted at the front:
// -0.0, NaNs with payloads and sign, denormals, infinities.
std::vector<float> awkward_floats(std::size_t n, std::uint64_t seed) {
  const std::vector<float> specials{
      -0.0F,
      std::bit_cast<float>(0x7FC00001U),
      std::bit_cast<float>(0xFFA5A5A5U),
      std::bit_cast<float>(0x7F800001U),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      0.0F};
  Rng rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = i < specials.size() ? specials[i] : rng.next_normal();
  }
  return v;
}

constexpr std::size_t kSizes[] = {0, 1, 3, 1025};

// ---------------------------------------------------------------------------
// Codec vs. the per-byte reference

TEST(Codec, SerializeFloatsMatchesReferenceAndRoundTrips) {
  for (const std::size_t n : kSizes) {
    const std::vector<float> v = awkward_floats(n, 11 + n);
    const Bytes encoded = serialize_floats(v);
    EXPECT_EQ(encoded, reference_floats(v)) << "n=" << n;
    EXPECT_EQ(encoded.size(), encoded_floats_size(n));

    Bytes appended{0xAB};
    append_floats(appended, v);
    EXPECT_EQ(Bytes(appended.begin() + 1, appended.end()), encoded);

    std::size_t offset = 0;
    const std::vector<float> back = deserialize_floats(encoded, offset);
    EXPECT_EQ(offset, encoded.size());
    EXPECT_EQ(bits_of(back), bits_of(v)) << "n=" << n;
  }
}

TEST(Codec, StateEncodersMatchReference) {
  for (const std::size_t m : kSizes) {
    for (const std::size_t o : kSizes) {
      TrainState s;
      s.model = awkward_floats(m, 100 + m);
      s.optimizer = awkward_floats(o, 200 + o);
      const Bytes want = reference_state(s);
      EXPECT_EQ(serialize_state(s), want) << m << "/" << o;
      EXPECT_EQ(encode_train_state(s), want) << m << "/" << o;
      EXPECT_TRUE(digest_equal(hash_state(s), sha256(want)));

      // ProofResponse framing: [tag][u64 n][u64 len][state]... per list.
      TrainState t;
      t.model = awkward_floats(o, 700 + o);
      t.optimizer = awkward_floats(m, 800 + m);
      ProofResponse msg;
      msg.input_states = {s, t};
      msg.output_states = {t};
      Bytes framed{kTagProofResponse};
      for (const auto* list : {&msg.input_states, &msg.output_states}) {
        reference_append_u64(framed, list->size());
        for (const TrainState& state : *list) {
          const Bytes bytes = reference_state(state);
          reference_append_u64(framed, bytes.size());
          framed.insert(framed.end(), bytes.begin(), bytes.end());
        }
      }
      EXPECT_EQ(encode_proof_response(msg), framed) << m << "/" << o;

      std::size_t offset = 0;
      const TrainState back = decode_train_state(want, offset);
      EXPECT_EQ(offset, want.size());
      EXPECT_EQ(bits_of(back.model), bits_of(s.model));
      EXPECT_EQ(bits_of(back.optimizer), bits_of(s.optimizer));
    }
  }
}

TEST(Codec, UpdateWithFloatsHashesTheReferenceBytes) {
  for (const std::size_t n : kSizes) {
    const std::vector<float> v = awkward_floats(n, 300 + n);
    Sha256 h;
    update_with_floats(h, v);
    EXPECT_TRUE(digest_equal(h.finish(), sha256(reference_floats(v))));
  }
}

TEST(Codec, PayloadWindowsAtEveryOffsetMatchReference) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{9}}) {
    const std::vector<float> v = awkward_floats(n, 400 + n);
    const Bytes ref = reference_floats(v);  // payload starts at byte 8
    for (std::size_t pos = 0; pos <= 4 * n; ++pos) {
      for (std::size_t len = 0; pos + len <= 4 * n; ++len) {
        Bytes got(len, 0xEE);
        encode_f32_le(v.data(), pos, len, got.data());
        ASSERT_EQ(got, Bytes(ref.begin() + 8 + pos, ref.begin() + 8 + pos + len))
            << "n=" << n << " pos=" << pos << " len=" << len;
      }
    }
    std::vector<float> decoded(n);
    decode_f32_le(ref.data() + 8, n, decoded.data());
    EXPECT_EQ(bits_of(decoded), bits_of(v));
  }
}

TEST(Codec, ChunkedEncoderWindowsAtOddOffsetsMatchReference) {
  for (const std::size_t m : kSizes) {
    for (const std::size_t o : {std::size_t{1}, std::size_t{1025}}) {
      TrainState s;
      s.model = awkward_floats(m, 500 + m);
      s.optimizer = awkward_floats(o, 600 + o);
      const Bytes want = reference_state(s);
      // Odd chunk sizes put window edges inside counts and inside floats.
      for (const std::size_t chunk : {1, 3, 5, 7, 13, 4097}) {
        const ChunkedStateEncoder encoder(s, chunk);
        ASSERT_EQ(encoder.total_bytes(), want.size());
        Bytes joined;
        for (std::int64_t i = 0; i < encoder.num_chunks(); ++i) {
          const StateChunk c = encoder.chunk(i);
          ASSERT_EQ(c.offset, joined.size());
          ASSERT_TRUE(digest_equal(c.payload_hash, sha256(c.payload)));
          joined.insert(joined.end(), c.payload.begin(), c.payload.end());
        }
        EXPECT_EQ(joined, want) << m << "/" << o << " chunk " << chunk;
      }
    }
  }
}

StateChunk chunk_of(const Bytes& whole, std::size_t lo, std::size_t hi) {
  StateChunk c;
  c.total_bytes = whole.size();
  c.offset = lo;
  c.payload.assign(whole.begin() + static_cast<std::ptrdiff_t>(lo),
                   whole.begin() + static_cast<std::ptrdiff_t>(hi));
  c.payload_hash = sha256(c.payload);
  return c;
}

// The assembler carries counts and floats across chunk boundaries; every
// pair of cut points must give the one-shot state bit for bit.
TEST(Codec, ChunkedAssemblerMatchesOneShotAtEverySplit) {
  TrainState s;
  s.model = awkward_floats(5, 700);
  s.optimizer = awkward_floats(3, 701);
  const Bytes whole = reference_state(s);
  ChunkedStateAssembler one_shot(whole.size());
  one_shot.accept(chunk_of(whole, 0, whole.size()));
  ASSERT_TRUE(one_shot.complete());
  const TrainState want = one_shot.take();
  ASSERT_EQ(bits_of(want.model), bits_of(s.model));
  ASSERT_EQ(bits_of(want.optimizer), bits_of(s.optimizer));
  for (std::size_t a = 1; a < whole.size(); ++a) {
    for (std::size_t b = a; b < whole.size(); ++b) {
      ChunkedStateAssembler assembler(whole.size());
      assembler.accept(chunk_of(whole, 0, a));
      if (b > a) assembler.accept(chunk_of(whole, a, b));
      ASSERT_FALSE(assembler.complete());
      assembler.accept(chunk_of(whole, b, whole.size()));
      ASSERT_TRUE(assembler.complete()) << a << "/" << b;
      const TrainState got = assembler.take();
      ASSERT_EQ(bits_of(got.model), bits_of(want.model)) << a << "/" << b;
      ASSERT_EQ(bits_of(got.optimizer), bits_of(want.optimizer))
          << a << "/" << b;
    }
  }
}

// A chunk that decodes the rest of the model run and then completes a lying
// optimizer count throws, and leaves the assembler as it was: the honest
// chunk is accepted afterwards and the state is exact.
TEST(Codec, ChunkedAssemblerLyingCountMidRunLeavesItUnchanged) {
  TrainState s;
  s.model = awkward_floats(9, 710);
  s.optimizer = awkward_floats(4, 711);
  const Bytes whole = reference_state(s);
  const std::size_t opt_count_at = 8 + 4 * s.model.size();
  // Cut inside the third model float, so the carry is live at the retry.
  const std::size_t cut = 8 + 4 * 2 + 1;
  for (const std::uint64_t lie : {std::uint64_t{3}, std::uint64_t{5},
                                  ~std::uint64_t{0}}) {
    Bytes forged = whole;
    store_u64_le(lie, forged.data() + opt_count_at);
    ChunkedStateAssembler assembler(whole.size());
    assembler.accept(chunk_of(whole, 0, cut));
    const std::uint64_t received = assembler.bytes_received();
    EXPECT_THROW(assembler.accept(chunk_of(forged, cut, whole.size())),
                 std::invalid_argument)
        << lie;
    EXPECT_EQ(assembler.bytes_received(), received);
    EXPECT_FALSE(assembler.complete());
    assembler.accept(chunk_of(whole, cut, whole.size()));
    ASSERT_TRUE(assembler.complete());
    const TrainState got = assembler.take();
    EXPECT_EQ(bits_of(got.model), bits_of(s.model)) << lie;
    EXPECT_EQ(bits_of(got.optimizer), bits_of(s.optimizer)) << lie;
  }
}

TEST(Codec, TruncatedAndCorruptInputThrows) {
  const std::vector<float> v = awkward_floats(5, 7);
  const Bytes encoded = serialize_floats(v);
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    const Bytes truncated(encoded.begin(),
                          encoded.begin() + static_cast<std::ptrdiff_t>(cut));
    std::size_t offset = 0;
    if (cut < 8) {
      EXPECT_THROW(deserialize_floats(truncated, offset), std::out_of_range);
    } else {
      EXPECT_THROW(deserialize_floats(truncated, offset),
                   std::invalid_argument);
    }
  }
  // A count that overstates the payload, and one far beyond any buffer.
  for (const std::uint64_t lie : {std::uint64_t{6}, ~std::uint64_t{0}}) {
    Bytes corrupt = encoded;
    store_u64_le(lie, corrupt.data());
    std::size_t offset = 0;
    EXPECT_THROW(deserialize_floats(corrupt, offset), std::invalid_argument);
  }
  // An offset past the end of the buffer.
  std::size_t past = encoded.size() + 1;
  EXPECT_THROW(deserialize_floats(encoded, past), std::out_of_range);

  TrainState s;
  s.model = v;
  s.optimizer = awkward_floats(2, 8);
  const Bytes state = serialize_state(s);
  for (std::size_t cut = 0; cut < state.size(); ++cut) {
    const Bytes truncated(state.begin(),
                          state.begin() + static_cast<std::ptrdiff_t>(cut));
    std::size_t offset = 0;
    EXPECT_ANY_THROW(decode_train_state(truncated, offset)) << "cut " << cut;
  }
}

// ---------------------------------------------------------------------------
// Spill file

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

TEST(CodecSpill, SpillFileHoldsTheConcatenatedStateEncodings) {
  CkptStoreConfig cfg;
  cfg.budget_bytes = 1;  // every state spills and is evicted at once
  CheckpointStore store(cfg);
  Bytes want;
  std::vector<TrainState> states;
  for (const std::size_t m : kSizes) {
    TrainState s;
    s.model = awkward_floats(m, 700 + m);
    s.optimizer = awkward_floats(m / 2 + 1, 800 + m);
    const Bytes encoded = serialize_state(s);
    want.insert(want.end(), encoded.begin(), encoded.end());
    states.push_back(s);
    store.append(std::move(s));
  }
  EXPECT_EQ(read_file(store.spill_path()), want);
  EXPECT_EQ(store.stats().spill_bytes, want.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const TrainState got = store.fetch(static_cast<std::int64_t>(i));
    EXPECT_EQ(bits_of(got.model), bits_of(states[i].model));
    EXPECT_EQ(bits_of(got.optimizer), bits_of(states[i].optimizer));
  }
}

TEST(CodecSpill, CorruptOrTruncatedRecordThrowsOnColdRead) {
  TrainState a;
  a.model = awkward_floats(16, 1);
  a.optimizer = awkward_floats(4, 2);
  TrainState b;
  b.model = awkward_floats(16, 3);
  b.optimizer = awkward_floats(4, 4);
  {
    CkptStoreConfig cfg;
    cfg.budget_bytes = 1;
    CheckpointStore store(cfg);
    store.append(a);
    store.append(b);
    ASSERT_FALSE(store.is_hot(0));
    // Rewrite record 0's model count in place: the record no longer matches
    // what was appended.
    {
      std::fstream f(store.spill_path(),
                     std::ios::binary | std::ios::in | std::ios::out);
      std::uint8_t lie[8];
      store_u64_le(17, lie);
      f.write(reinterpret_cast<const char*>(lie), sizeof lie);
    }
    EXPECT_THROW(store.fetch(0), std::runtime_error);
  }
  {
    CkptStoreConfig cfg;
    cfg.budget_bytes = 1;
    CheckpointStore store(cfg);
    store.append(a);
    store.append(b);
    store.append(a);  // the newest state stays hot; this evicts record 1
    ASSERT_FALSE(store.is_hot(1));
    std::filesystem::resize_file(store.spill_path(),
                                 serialize_state(a).size() + 20);
    EXPECT_THROW(store.fetch(1), std::runtime_error);
  }
}

// ---------------------------------------------------------------------------
// Trainable runs vs. the per-element mask loops

struct ThreadsGuard {
  int saved = runtime::threads();
  ~ThreadsGuard() { runtime::set_threads(saved); }
};

void expect_runs_match_reference(const std::vector<bool>& mask,
                                 std::uint64_t seed) {
  const TrainableRuns runs(mask);
  std::size_t count = 0;
  for (const bool t : mask) count += t ? 1 : 0;
  EXPECT_EQ(runs.size(), mask.size());
  EXPECT_EQ(runs.count(), count);
  EXPECT_EQ(runs.all(), count == mask.size());

  const std::vector<float> a = awkward_floats(mask.size(), seed);
  std::vector<float> b = awkward_floats(mask.size(), seed + 1);
  // Finite values only for the distance, so it compares as a number.
  std::vector<float> fa = a;
  for (auto& x : fa) {
    if (!std::isfinite(x)) x = 0.5F;
  }
  for (auto& x : b) {
    if (!std::isfinite(x)) x = -0.25F;
  }

  ThreadsGuard guard;
  for (const int threads : {1, 4}) {
    runtime::set_threads(threads);
    EXPECT_EQ(bits_of(extract_trainable(a, runs)),
              bits_of(reference_extract(a, mask)))
        << "threads " << threads;
    const double want = reference_distance(fa, b, mask);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(trainable_distance(fa, b, runs)),
              std::bit_cast<std::uint64_t>(want))
        << "threads " << threads;
    // A mask passed directly derives the same runs.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(trainable_distance(fa, b, mask)),
              std::bit_cast<std::uint64_t>(want));
  }
}

TEST(TrainableRuns, MiniResNetMaskMatchesPerElementReference) {
  nn::ModelConfig cfg;
  cfg.width = 8;
  nn::Model model = nn::make_mini_resnet18(cfg, 1);
  const std::vector<bool>& mask = model.trainable_mask();
  const TrainableRuns runs(mask);
  // BatchNorm buffers sit between trainable parameters: many runs, and
  // more than one 4096-element distance block.
  ASSERT_GT(runs.runs().size(), 4u);
  ASSERT_FALSE(runs.all());
  ASSERT_GT(mask.size(), 3u * 4096);
  expect_runs_match_reference(mask, 900);
}

TEST(TrainableRuns, AllTrainableMlpMaskMatchesPerElementReference) {
  nn::Model model = nn::make_mlp(64, {128}, 10, 5);
  const std::vector<bool>& mask = model.trainable_mask();
  const TrainableRuns runs(mask);
  ASSERT_TRUE(runs.all());
  ASSERT_EQ(runs.runs().size(), 1u);
  expect_runs_match_reference(mask, 910);

  // With every element trainable the LSH hash reads the model as is.
  lsh::LshConfig lcfg;
  lcfg.dim = static_cast<std::int64_t>(mask.size());
  const lsh::PStableLsh hasher(lcfg);
  const std::vector<float> w = awkward_floats(mask.size(), 920);
  std::vector<float> finite = w;
  for (auto& x : finite) {
    if (!std::isfinite(x)) x = 1.0F;
  }
  EXPECT_EQ(hash_trainable(hasher, finite, &runs), hasher.hash(finite));
  EXPECT_EQ(hash_trainable(hasher, finite, nullptr), hasher.hash(finite));
}

TEST(TrainableRuns, EdgeMasksMatchPerElementReference) {
  expect_runs_match_reference({}, 930);
  expect_runs_match_reference(std::vector<bool>(5000, false), 931);
  std::vector<bool> alternating(9000);
  for (std::size_t i = 0; i < alternating.size(); ++i) alternating[i] = i % 2 == 0;
  expect_runs_match_reference(alternating, 932);
  // Runs that straddle the 4096-element block boundaries.
  std::vector<bool> straddle(3 * 4096 + 5, false);
  for (std::size_t i = 4000; i < 8300; ++i) straddle[i] = true;
  straddle.back() = true;
  expect_runs_match_reference(straddle, 933);
}

TEST(TrainableRuns, SizeMismatchThrows) {
  const TrainableRuns runs(std::vector<bool>(4, true));
  const std::vector<float> three(3, 1.0F);
  EXPECT_THROW(extract_trainable(three, runs), std::invalid_argument);
  EXPECT_THROW(trainable_distance(three, three, runs), std::invalid_argument);
}

}  // namespace
}  // namespace rpol::core

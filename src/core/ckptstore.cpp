#include "core/ckptstore.h"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <utility>

#ifdef __unix__
#include <unistd.h>
#endif

namespace rpol::core {

namespace {

constexpr std::uint64_t kDefaultBudgetBytes = 256ULL * 1024 * 1024;

std::string next_spill_path(const std::string& dir) {
  static std::atomic<std::uint64_t> counter{0};
  namespace fs = std::filesystem;
  fs::path base = dir.empty() ? fs::temp_directory_path() : fs::path(dir);
  if (!dir.empty()) fs::create_directories(base);
#ifdef __unix__
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  return (base / ("rpol-ckpt-" + std::to_string(pid) + "-" +
                  std::to_string(n) + ".bin"))
      .string();
}

}  // namespace

std::uint64_t resolve_ckpt_budget(std::uint64_t configured) {
  if (configured != 0) return configured;
  if (const char* env = std::getenv("RPOL_CKPT_BUDGET")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && v > 0) return static_cast<std::uint64_t>(v);
  }
  return kDefaultBudgetBytes;
}

CheckpointStore::CheckpointStore(CkptStoreConfig config)
    : budget_(resolve_ckpt_budget(config.budget_bytes)),
      path_(next_spill_path(config.spill_dir)) {
  // trunc creates the file; reopen in/out so reads and appends share it.
  file_.open(path_, std::ios::binary | std::ios::in | std::ios::out |
                        std::ios::trunc);
  if (!file_.is_open()) {
    throw std::runtime_error("cannot open checkpoint spill file: " + path_);
  }
}

CheckpointStore::~CheckpointStore() {
  file_.close();
  std::error_code ec;
  std::filesystem::remove(path_, ec);  // best-effort cleanup
}

void CheckpointStore::evict_for(std::uint64_t incoming_bytes) const {
  while (!lru_.empty() && hot_bytes_ + incoming_bytes > budget_) {
    const std::int64_t victim = lru_.back();
    auto it = hot_.find(victim);
    hot_bytes_ -= it->second.state.byte_size();
    hot_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
  mem_.set(hot_bytes_);
}

void CheckpointStore::cache_locked(std::int64_t index, TrainState state) const {
  const std::uint64_t bytes = state.byte_size();
  evict_for(bytes);  // evict BEFORE insert: hot_bytes_ peaks at
                     // max(budget, one checkpoint), never budget + one
  lru_.push_front(index);
  hot_.emplace(index, HotEntry{std::move(state), lru_.begin()});
  hot_bytes_ += bytes;
  mem_.set(hot_bytes_);
}

void CheckpointStore::append(TrainState state) {
  std::lock_guard<std::mutex> lock(mu_);
  file_.clear();
  file_.seekp(static_cast<std::streamoff>(spill_bytes_), std::ios::beg);
  const auto write = [&](const std::uint8_t* p, std::size_t n) {
    file_.write(reinterpret_cast<const char*>(p),
                static_cast<std::streamsize>(n));
  };
  // serialize_state's bytes, written straight from the state's vectors.
  for (const std::vector<float>* v : {&state.model, &state.optimizer}) {
    std::uint8_t count[8];
    store_u64_le(v->size(), count);
    write(count, sizeof count);
    write_f32_le(v->data(), v->size(), write);
  }
  file_.flush();
  if (!file_) {
    throw std::runtime_error("checkpoint spill write failed: " + path_);
  }
  Record rec;
  rec.offset = spill_bytes_;
  rec.model_count = state.model.size();
  rec.opt_count = state.optimizer.size();
  records_.push_back(rec);
  spill_bytes_ += encoded_floats_size(rec.model_count) +
                  encoded_floats_size(rec.opt_count);
  logical_bytes_ += state.byte_size();
  cache_locked(static_cast<std::int64_t>(records_.size()) - 1,
               std::move(state));
}

std::int64_t CheckpointStore::num_checkpoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(records_.size());
}

TrainState CheckpointStore::read_record(const Record& rec) const {
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(rec.offset), std::ios::beg);
  const auto read = [&](std::uint8_t* p, std::size_t n) {
    file_.read(reinterpret_cast<char*>(p), static_cast<std::streamsize>(n));
    if (file_.gcount() != static_cast<std::streamsize>(n)) {
      throw std::runtime_error("checkpoint spill read failed: " + path_);
    }
  };
  // Decodes one vector straight into `v`; its count prefix must be the one
  // recorded at append time.
  const auto read_vector = [&](std::vector<float>& v, std::uint64_t count) {
    std::uint8_t prefix[8];
    read(prefix, sizeof prefix);
    if (load_u64_le(prefix) != count) {
      throw std::runtime_error("checkpoint spill record corrupt: " + path_);
    }
    v.resize(static_cast<std::size_t>(count));
    read_f32_le(v.data(), v.size(), read);
  };
  TrainState state;
  read_vector(state.model, rec.model_count);
  read_vector(state.optimizer, rec.opt_count);
  return state;
}

TrainState CheckpointStore::fetch(std::int64_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index < 0 || index >= static_cast<std::int64_t>(records_.size())) {
    throw std::out_of_range("checkpoint index out of range");
  }
  auto it = hot_.find(index);
  if (it != hot_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // refresh recency
    return it->second.state;
  }
  TrainState state = read_record(records_[static_cast<std::size_t>(index)]);
  ++reloads_;
  cache_locked(index, state);
  return state;
}

bool CheckpointStore::is_hot(std::int64_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return hot_.find(index) != hot_.end();
}

std::uint64_t CheckpointStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return logical_bytes_;
}

CkptStoreStats CheckpointStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CkptStoreStats s;
  s.checkpoints = static_cast<std::int64_t>(records_.size());
  s.hot_count = static_cast<std::int64_t>(hot_.size());
  s.hot_bytes = hot_bytes_;
  s.spill_bytes = spill_bytes_;
  s.evictions = evictions_;
  s.reloads = reloads_;
  s.budget_bytes = budget_;
  return s;
}

namespace {

// Tees each streamed checkpoint into the commitment builder and the store.
class CommitAndSpillSink final : public CheckpointSink {
 public:
  CommitAndSpillSink(CommitmentBuilder& builder, CheckpointStore& store)
      : builder_(builder), store_(store) {}
  void append(TrainState state) override {
    builder_.add_checkpoint(state);
    store_.append(std::move(state));
  }

 private:
  CommitmentBuilder& builder_;
  CheckpointStore& store_;
};

}  // namespace

StreamedEpoch run_streamed_epoch(WorkerPolicy& policy, StepExecutor& executor,
                                 const EpochContext& context,
                                 sim::DeviceExecution& device,
                                 CommitmentVersion version,
                                 const lsh::PStableLsh* hasher,
                                 const std::vector<bool>* mask,
                                 CkptStoreConfig store_config) {
  StreamedEpoch out;
  out.store = std::make_unique<CheckpointStore>(store_config);
  CommitmentBuilder builder(version, hasher, mask);
  CommitAndSpillSink sink(builder, *out.store);
  StreamedTraceInfo info = policy.stream_trace(executor, context, device, sink);
  out.step_of = std::move(info.step_of);
  out.mean_loss = info.mean_loss;
  out.commitment = builder.finish();
  return out;
}

}  // namespace rpol::core

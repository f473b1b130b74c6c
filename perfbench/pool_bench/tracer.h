// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded in the benchmark's own code around each call into a
// layer of the repository (pool phases, the sharded manager, layer
// micro-timings): name, start, end, the span that caused it, and the id of
// the epoch span they belong to. Nothing is recorded inside src/; the
// repository's own obs counters are read separately. Spans stay in memory
// and are written out once, when the run ends.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Monotonic wall clock in seconds.
double now_s();

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t epoch_id = 0;  // id of the enclosing epoch span (own id for it)
  std::string name;
  std::int64_t epoch = -1;
  std::int64_t worker = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  double dur_s() const { return end_s - start_s; }
};

class Tracer {
 public:
  // A disabled tracer records nothing and reads no clock.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Writes one JSON object per span; returns false when the file cannot be
  // written.
  bool write_jsonl(const std::string& path) const;

 private:
  friend class Scope;
  std::uint64_t open(std::string_view name, std::uint64_t parent,
                     std::uint64_t epoch_id, std::int64_t epoch,
                     std::int64_t worker);
  void close(std::uint64_t id);

  bool enabled_ = false;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

// RAII span. `parent` == nullptr makes an epoch root: its own id becomes
// the epoch id its descendants share.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, const Scope* parent,
        std::int64_t epoch = -1, std::int64_t worker = -1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }
  std::uint64_t epoch_id() const { return epoch_id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_ = 0;
  std::uint64_t epoch_id_ = 0;
};

}  // namespace perfbench

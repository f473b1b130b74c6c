#include "tracer.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Tracer::open(std::string_view name, std::uint64_t parent,
                           std::uint64_t epoch_id, std::int64_t epoch,
                           std::int64_t worker) {
  SpanRecord rec;
  rec.id = next_id_++;
  rec.parent = parent;
  rec.epoch_id = epoch_id != 0 ? epoch_id : rec.id;
  rec.name = std::string(name);
  rec.epoch = epoch;
  rec.worker = worker;
  rec.start_s = now_s();
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void Tracer::close(std::uint64_t id) {
  // Scopes nest, so the span to close is almost always the last open one;
  // search backwards.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_s = now_s();
      return;
    }
  }
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"epoch_id\":%llu,"
                 "\"name\":\"%s\",\"epoch\":%lld,\"worker\":%lld,"
                 "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.epoch_id), s.name.c_str(),
                 static_cast<long long>(s.epoch),
                 static_cast<long long>(s.worker), s.start_s, s.end_s);
  }
  return std::fclose(f) == 0;
}

Scope::Scope(Tracer& tracer, std::string_view name, const Scope* parent,
             std::int64_t epoch, std::int64_t worker)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  const std::uint64_t parent_id = parent != nullptr ? parent->id_ : 0;
  const std::uint64_t parent_epoch = parent != nullptr ? parent->epoch_id_ : 0;
  id_ = tracer_.open(name, parent_id, parent_epoch, epoch, worker);
  epoch_id_ = parent_epoch != 0 ? parent_epoch : id_;
}

Scope::~Scope() {
  if (id_ != 0) tracer_.close(id_);
}

}  // namespace perfbench

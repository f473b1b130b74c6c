#include "obs/health.h"

#include "obs/json.h"
#include "obs/obs.h"

namespace rpol::obs {

const char* health_state_name(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kEvicted:
      return "evicted";
  }
  return "evicted";
}

HealthState health_state_from_name(std::string_view name) {
  if (name == "healthy") return HealthState::kHealthy;
  if (name == "degraded") return HealthState::kDegraded;
  return HealthState::kEvicted;
}

HealthRegistry::HealthRegistry(int eviction_threshold, std::size_t workers)
    : threshold_(eviction_threshold > 0 ? eviction_threshold : 1) {
  reset(workers);
}

void HealthRegistry::reset(std::size_t workers) {
  slots_.assign(workers, Slot{});
}

const HealthRegistry::Slot* HealthRegistry::slot(std::size_t worker) const {
  return worker < slots_.size() ? &slots_[worker] : nullptr;
}

bool HealthRegistry::record(std::size_t worker, const HealthOutcome& outcome) {
  if (worker >= slots_.size()) return false;
  Slot& s = slots_[worker];
  if (s.evicted) return false;

  if (s.count < kWindow) {
    s.ring[s.count++] = outcome;
  } else {
    s.ring[s.next] = outcome;
    s.next = (s.next + 1) % kWindow;
  }

  // The decision path. Only protocol facts participate, and the strike
  // budget is split by failure kind: transport loss (the worker never
  // delivered) and verification rejection (delivered but judged bad) each
  // keep their own consecutive counter, and eviction requires threshold_
  // consecutive strikes OF ONE KIND. Pure streaks behave exactly like the
  // single-counter rule the pools always had; mixed loss/rejection streaks
  // deliberately survive longer (see the header's divergence note).
  const bool lost = !outcome.participated;
  const bool rejected = outcome.participated && !outcome.accepted;
  if (!lost && !rejected) {
    s.consecutive_failures = 0;
    s.consecutive_losses = 0;
    s.consecutive_rejections = 0;
    return false;
  }
  ++s.consecutive_failures;
  if (lost) ++s.consecutive_losses;
  if (rejected) ++s.consecutive_rejections;
  if (s.consecutive_losses >= threshold_ ||
      s.consecutive_rejections >= threshold_) {
    s.evicted = true;
    return true;
  }
  return false;
}

bool HealthRegistry::evicted(std::size_t worker) const {
  const Slot* s = slot(worker);
  // Unknown workers read conservatively evicted, matching state()/score().
  return s == nullptr || s->evicted;
}

int HealthRegistry::consecutive_failures(std::size_t worker) const {
  const Slot* s = slot(worker);
  return s != nullptr ? s->consecutive_failures : 0;
}

int HealthRegistry::consecutive_losses(std::size_t worker) const {
  const Slot* s = slot(worker);
  return s != nullptr ? s->consecutive_losses : 0;
}

int HealthRegistry::consecutive_rejections(std::size_t worker) const {
  const Slot* s = slot(worker);
  return s != nullptr ? s->consecutive_rejections : 0;
}

HealthRegistry::WindowStats HealthRegistry::window_stats(
    std::size_t worker) const {
  WindowStats w;
  const Slot* s = slot(worker);
  if (s == nullptr) return w;
  std::uint64_t latency_sum = 0;
  std::uint64_t latency_n = 0;
  for (std::size_t i = 0; i < s->count; ++i) {
    const HealthOutcome& o = s->ring[i];
    ++w.total;
    if (o.participated) ++w.participated;
    if (o.accepted) ++w.accepted;
    w.retransmissions += o.retransmissions;
    if (o.latency_ns > 0) {
      latency_sum += o.latency_ns;
      ++latency_n;
      if (w.min_latency_ns == 0 || o.latency_ns < w.min_latency_ns) {
        w.min_latency_ns = o.latency_ns;
      }
      if (o.latency_ns > w.max_latency_ns) w.max_latency_ns = o.latency_ns;
    }
  }
  if (latency_n > 0) w.mean_latency_ns = latency_sum / latency_n;
  return w;
}

double HealthRegistry::score(std::size_t worker) const {
  const Slot* s = slot(worker);
  if (s == nullptr) return 0.0;
  if (s->evicted) return 0.0;
  const WindowStats w = window_stats(worker);
  if (w.total == 0) return 100.0;  // fresh worker: innocent until observed

  const double total = static_cast<double>(w.total);
  const double accept_rate = static_cast<double>(w.accepted) / total;
  const double part_rate = static_cast<double>(w.participated) / total;
  // Retransmission burden: 1.0 with no retries, decaying with the per-
  // session retry rate (2 retries/session -> 1/3 of the weight).
  const double retrans_per = static_cast<double>(w.retransmissions) / total;
  const double retrans_factor = 1.0 / (1.0 + retrans_per);
  // Latency stability: min/mean in (0, 1]; 1.0 when latency is flat or
  // unmeasured. Report-only wall-clock — never a protocol input.
  double latency_factor = 1.0;
  if (w.mean_latency_ns > 0 && w.min_latency_ns > 0) {
    latency_factor = static_cast<double>(w.min_latency_ns) /
                     static_cast<double>(w.mean_latency_ns);
  }

  double score = 55.0 * accept_rate + 25.0 * part_rate +
                 10.0 * retrans_factor + 10.0 * latency_factor;
  if (score < 0.0) score = 0.0;
  if (score > 100.0) score = 100.0;
  return score;
}

HealthState HealthRegistry::state(std::size_t worker) const {
  const Slot* s = slot(worker);
  if (s == nullptr || s->evicted) return HealthState::kEvicted;
  return score(worker) >= 75.0 ? HealthState::kHealthy
                               : HealthState::kDegraded;
}

// ---------------------------------------------------------------------------
// rpol.health.v1 export

std::size_t export_health_jsonl(std::FILE* out, const HealthRegistry& reg,
                                const RssSampler::Summary* rss) {
  std::size_t lines = 0;
  std::fprintf(out,
               "{\"type\":\"meta\",\"schema\":\"rpol.health.v1\","
               "\"wall_unix_ns\":%llu,\"eviction_threshold\":%d,"
               "\"workers\":%zu}\n",
               static_cast<unsigned long long>(
                   Registry::instance().wall_anchor_unix_ns()),
               reg.eviction_threshold(), reg.size());
  ++lines;

  for (std::size_t w = 0; w < reg.size(); ++w) {
    const HealthRegistry::WindowStats ws = reg.window_stats(w);
    std::fprintf(
        out,
        "{\"type\":\"worker\",\"worker\":%zu,\"score\":%.2f,"
        "\"state\":\"%s\",\"evicted\":%s,\"consecutive_failures\":%d,"
        "\"window\":{\"total\":%llu,\"participated\":%llu,"
        "\"accepted\":%llu,\"retransmissions\":%llu,"
        "\"mean_latency_ns\":%llu,\"min_latency_ns\":%llu,"
        "\"max_latency_ns\":%llu}}\n",
        w, reg.score(w), health_state_name(reg.state(w)),
        reg.evicted(w) ? "true" : "false", reg.consecutive_failures(w),
        static_cast<unsigned long long>(ws.total),
        static_cast<unsigned long long>(ws.participated),
        static_cast<unsigned long long>(ws.accepted),
        static_cast<unsigned long long>(ws.retransmissions),
        static_cast<unsigned long long>(ws.mean_latency_ns),
        static_cast<unsigned long long>(ws.min_latency_ns),
        static_cast<unsigned long long>(ws.max_latency_ns));
    ++lines;
  }

  for (int t = 0; t < kNumMemTags; ++t) {
    const MemStats ms = mem_stats(static_cast<MemTag>(t));
    std::fprintf(out,
                 "{\"type\":\"mem\",\"tag\":\"%s\",\"current_bytes\":%llu,"
                 "\"peak_bytes\":%llu,\"total_bytes\":%llu}\n",
                 mem_tag_name(static_cast<MemTag>(t)),
                 static_cast<unsigned long long>(ms.current_bytes),
                 static_cast<unsigned long long>(ms.peak_bytes),
                 static_cast<unsigned long long>(ms.total_bytes));
    ++lines;
  }

  if (rss != nullptr) {
    std::fprintf(out,
                 "{\"type\":\"rss\",\"valid\":%s,\"samples\":%llu,"
                 "\"baseline_bytes\":%llu,\"min_bytes\":%llu,"
                 "\"peak_bytes\":%llu,\"last_bytes\":%llu,"
                 "\"growth_bytes\":%llu}\n",
                 rss->valid ? "true" : "false",
                 static_cast<unsigned long long>(rss->samples),
                 static_cast<unsigned long long>(rss->baseline_bytes),
                 static_cast<unsigned long long>(rss->min_bytes),
                 static_cast<unsigned long long>(rss->peak_bytes),
                 static_cast<unsigned long long>(rss->last_bytes),
                 static_cast<unsigned long long>(rss->growth_bytes));
    ++lines;
  }
  return lines;
}

bool export_health_jsonl_file(const std::string& path,
                              const HealthRegistry& reg,
                              const RssSampler::Summary* rss) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  export_health_jsonl(f, reg, rss);
  std::fclose(f);
  return true;
}

std::string maybe_export_health(const std::string& default_path,
                                const HealthRegistry& reg,
                                const RssSampler::Summary* rss) {
  if (!enabled()) return "";
  const std::string path = sink_path("RPOL_HEALTH_FILE", default_path);
  if (!export_health_jsonl_file(path, reg, rss)) return "";
  return path;
}

}  // namespace rpol::obs

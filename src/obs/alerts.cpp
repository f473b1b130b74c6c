#include "obs/alerts.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "obs/json.h"
#include "obs/obs.h"

#ifdef __unix__
#include <csignal>
#include <fcntl.h>
#include <unistd.h>
#endif

namespace rpol::obs {

// ---------------------------------------------------------------------------
// Flight recorder ring

namespace {

// One ring slot: the event payload plus a per-slot seqlock. `seq` holds
// 2*generation+1 while the generation-th write is in flight and
// 2*generation+2 once it is stable, where generation = ticket / capacity.
// Two writers that collide on a slot after a wrap therefore use DIFFERENT
// seq values, so a reader can never confuse "both mid-write" with "stable":
// it accepts a copy only when seq was even and unchanged across the copy.
struct FlightSlot {
  std::atomic<std::uint64_t> seq{0};  // 0 = never written
  FlightEvent event;
};

// Static storage, no dynamic init: recordable from any static-init-order
// position and readable during exit, like the mem.h tag cells.
FlightSlot g_flight[kFlightCapacity];
std::atomic<std::uint64_t> g_flight_head{0};  // tickets ever issued

void copy_what(char (&dst)[48], std::string_view src) {
  const std::size_t n = std::min(src.size(), sizeof dst - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

const char* flight_kind_name(FlightKind kind) {
  switch (kind) {
    case FlightKind::kMark: return "mark";
    case FlightKind::kSpanClose: return "span";
    case FlightKind::kFault: return "fault";
    case FlightKind::kEviction: return "eviction";
    case FlightKind::kAlert: return "alert";
  }
  return "mark";
}

void flight_record(FlightKind kind, std::string_view what, std::int64_t worker,
                   std::int64_t epoch, std::uint64_t value) {
  if (!live_enabled()) return;
  const std::uint64_t ticket =
      g_flight_head.fetch_add(1, std::memory_order_relaxed);
  FlightSlot& slot = g_flight[ticket % kFlightCapacity];
  const std::uint64_t generation = ticket / kFlightCapacity;
  slot.seq.store(2 * generation + 1, std::memory_order_release);  // in flight
  slot.event.t_ns = now_ns();
  slot.event.kind = kind;
  slot.event.worker = worker;
  slot.event.epoch = epoch;
  slot.event.value = value;
  copy_what(slot.event.what, what);
  slot.seq.store(2 * generation + 2, std::memory_order_release);  // stable
}

std::uint64_t flight_count() {
  return g_flight_head.load(std::memory_order_relaxed);
}

std::vector<FlightEvent> flight_snapshot() {
  std::vector<FlightEvent> out;
  const std::uint64_t total = g_flight_head.load(std::memory_order_acquire);
  const std::uint64_t held = std::min<std::uint64_t>(total, kFlightCapacity);
  out.reserve(static_cast<std::size_t>(held));
  for (std::uint64_t i = total - held; i < total; ++i) {
    FlightSlot& slot = g_flight[i % kFlightCapacity];
    const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1) != 0) continue;  // never written or mid-write
    FlightEvent copy = slot.event;
    if (slot.seq.load(std::memory_order_acquire) != s1) continue;  // torn
    out.push_back(copy);
  }
  return out;
}

void flight_reset() {
  g_flight_head.store(0, std::memory_order_relaxed);
  for (auto& slot : g_flight) {
    slot.seq.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Flight dumps (normal path: stdio; signal path: raw fd + manual formatting)

std::size_t dump_flight_record(std::FILE* out) {
  const std::vector<FlightEvent> events = flight_snapshot();
  std::size_t lines = 0;
  std::fprintf(out,
               "{\"type\":\"meta\",\"schema\":\"rpol.flight.v1\","
               "\"capacity\":%zu,\"recorded\":%llu}\n",
               kFlightCapacity,
               static_cast<unsigned long long>(flight_count()));
  ++lines;
  for (const FlightEvent& e : events) {
    std::fprintf(out,
                 "{\"type\":\"flight\",\"t_ns\":%llu,\"kind\":\"%s\","
                 "\"worker\":%lld,\"epoch\":%lld,\"value\":%llu,"
                 "\"what\":\"%s\"}\n",
                 static_cast<unsigned long long>(e.t_ns),
                 flight_kind_name(e.kind), static_cast<long long>(e.worker),
                 static_cast<long long>(e.epoch),
                 static_cast<unsigned long long>(e.value),
                 json_escape(e.what).c_str());
    ++lines;
  }
  return lines;
}

bool dump_flight_record_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  dump_flight_record(f);
  std::fclose(f);
  return true;
}

namespace {

std::string flight_default_path() {
  return sink_path("RPOL_FLIGHT_FILE", "rpol_flight.jsonl");
}

}  // namespace

std::string dump_flight_record() {
  if (!live_enabled()) return "";
  const std::string path = flight_default_path();
  if (!dump_flight_record_file(path)) return "";
  return path;
}

// ---------------------------------------------------------------------------
// Fatal-signal dump: everything below must stay async-signal-safe (no
// stdio, no allocation, no locks) — open/write/close plus stack formatting.

#ifdef __unix__

namespace {

char g_signal_dump_path[256] = {};
std::atomic<bool> g_handler_installed{false};

std::size_t sig_append(char* buf, std::size_t pos, std::size_t cap,
                       const char* s) {
  while (*s != '\0' && pos + 1 < cap) buf[pos++] = *s++;
  return pos;
}

std::size_t sig_append_u64(char* buf, std::size_t pos, std::size_t cap,
                           std::uint64_t v) {
  char digits[24];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0 && pos + 1 < cap) buf[pos++] = digits[--n];
  return pos;
}

std::size_t sig_append_i64(char* buf, std::size_t pos, std::size_t cap,
                           std::int64_t v) {
  if (v < 0) {
    pos = sig_append(buf, pos, cap, "-");
    return sig_append_u64(buf, pos, cap, static_cast<std::uint64_t>(-v));
  }
  return sig_append_u64(buf, pos, cap, static_cast<std::uint64_t>(v));
}

void sig_write_line(int fd, const FlightEvent& e) {
  char buf[256];
  std::size_t p = 0;
  p = sig_append(buf, p, sizeof buf, "{\"type\":\"flight\",\"t_ns\":");
  p = sig_append_u64(buf, p, sizeof buf, e.t_ns);
  p = sig_append(buf, p, sizeof buf, ",\"kind\":\"");
  p = sig_append(buf, p, sizeof buf, flight_kind_name(e.kind));
  p = sig_append(buf, p, sizeof buf, "\",\"worker\":");
  p = sig_append_i64(buf, p, sizeof buf, e.worker);
  p = sig_append(buf, p, sizeof buf, ",\"epoch\":");
  p = sig_append_i64(buf, p, sizeof buf, e.epoch);
  p = sig_append(buf, p, sizeof buf, ",\"value\":");
  p = sig_append_u64(buf, p, sizeof buf, e.value);
  p = sig_append(buf, p, sizeof buf, ",\"what\":\"");
  for (const char* s = e.what; *s != '\0'; ++s) {
    const char c = (*s == '"' || *s == '\\') ? ' ' : *s;
    if (p + 1 < sizeof buf) buf[p++] = c;
  }
  p = sig_append(buf, p, sizeof buf, "\"}\n");
  ssize_t rc = write(fd, buf, p);
  (void)rc;
}

extern "C" void rpol_flight_signal_handler(int sig) {
  const int fd = open(g_signal_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    char buf[128];
    std::size_t p = 0;
    p = sig_append(buf, p, sizeof buf,
                   "{\"type\":\"meta\",\"schema\":\"rpol.flight.v1\","
                   "\"signal\":");
    p = sig_append_i64(buf, p, sizeof buf, sig);
    p = sig_append(buf, p, sizeof buf, "}\n");
    ssize_t rc = write(fd, buf, p);
    (void)rc;
    // Same iteration as flight_snapshot(), minus the vector: read each slot
    // once, skipping torn entries.
    const std::uint64_t total = g_flight_head.load(std::memory_order_acquire);
    const std::uint64_t held = total < kFlightCapacity ? total : kFlightCapacity;
    for (std::uint64_t i = total - held; i < total; ++i) {
      FlightSlot& slot = g_flight[i % kFlightCapacity];
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 == 0 || (s1 & 1) != 0) continue;
      const FlightEvent copy = slot.event;
      if (slot.seq.load(std::memory_order_acquire) != s1) continue;
      sig_write_line(fd, copy);
    }
    close(fd);
  }
  // SA_RESETHAND already restored the default disposition; re-raise so the
  // process still dies with the original signal (core dumps intact).
  raise(sig);
}

}  // namespace

void install_flight_signal_handler() {
  if (!live_enabled()) return;
  bool expected = false;
  if (!g_handler_installed.compare_exchange_strong(expected, true)) return;
  const std::string path = flight_default_path();
  const std::size_t n = std::min(path.size(), sizeof g_signal_dump_path - 1);
  std::memcpy(g_signal_dump_path, path.data(), n);
  g_signal_dump_path[n] = '\0';
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = rpol_flight_signal_handler;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
    sigaction(sig, &sa, nullptr);
  }
}

#else  // !__unix__

void install_flight_signal_handler() {}

#endif

// ---------------------------------------------------------------------------
// Alert engine

const char* alert_severity_name(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::kInfo: return "info";
    case AlertSeverity::kWarn: return "warn";
    case AlertSeverity::kCrit: return "crit";
  }
  return "info";
}

AlertEngine::AlertEngine(AlertRuleConfig config) : config_(config) {}

namespace {

void format_message(Alert& alert, const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  alert.message = buf;
}

}  // namespace

std::vector<Alert> AlertEngine::evaluate(const LiveTick& tick) {
  std::vector<Alert> out;
  const auto push = [&](Alert alert) {
    out.push_back(std::move(alert));
    ++alerts_emitted_;
  };

  // Rule 1: verdict reject-rate drift vs the trailing EWMA baseline.
  const std::uint64_t verdicts = tick.accepts_delta + tick.rejects_delta;
  if (verdicts >= config_.drift_min_verdicts) {
    const double rate =
        static_cast<double>(tick.rejects_delta) / static_cast<double>(verdicts);
    const double drift = rate - reject_rate_ewma_;
    if (drift >= config_.drift_warn) {
      Alert alert;
      alert.rule = "reject_rate_drift";
      alert.severity = drift >= config_.drift_crit ? AlertSeverity::kCrit
                                                   : AlertSeverity::kWarn;
      alert.value = rate;
      alert.baseline = reject_rate_ewma_;
      alert.threshold = config_.drift_warn;
      format_message(alert,
                     "window reject rate %.2f vs trailing baseline %.2f", rate,
                     reject_rate_ewma_);
      push(std::move(alert));
    }
    reject_rate_ewma_ = config_.ewma_alpha * rate +
                        (1.0 - config_.ewma_alpha) * reject_rate_ewma_;
  }

  // Rule 2: session p95 latency burn vs the trailing p95 EWMA.
  if (tick.latency_count_delta >= config_.burn_min_samples &&
      tick.latency_p95_ns > 0) {
    const double p95 = static_cast<double>(tick.latency_p95_ns);
    if (have_latency_baseline_ && latency_p95_ewma_ns_ > 0.0) {
      const double factor = p95 / latency_p95_ewma_ns_;
      if (factor >= config_.burn_warn_factor) {
        Alert alert;
        alert.rule = "latency_burn";
        alert.severity = factor >= config_.burn_crit_factor
                             ? AlertSeverity::kCrit
                             : AlertSeverity::kWarn;
        alert.value = p95;
        alert.baseline = latency_p95_ewma_ns_;
        alert.threshold = config_.burn_warn_factor;
        format_message(alert, "window p95 %.0f ns is %.1fx trailing baseline",
                       p95, factor);
        push(std::move(alert));
      }
      latency_p95_ewma_ns_ = config_.ewma_alpha * p95 +
                             (1.0 - config_.ewma_alpha) * latency_p95_ewma_ns_;
    } else {
      latency_p95_ewma_ns_ = p95;
      have_latency_baseline_ = true;
    }
  }

  // Rule 3: retransmission spike within one window.
  if (tick.retrans_delta >= config_.retrans_warn) {
    Alert alert;
    alert.rule = "retrans_spike";
    alert.severity = tick.retrans_delta >= config_.retrans_crit
                         ? AlertSeverity::kCrit
                         : AlertSeverity::kWarn;
    alert.value = static_cast<double>(tick.retrans_delta);
    alert.threshold = static_cast<double>(config_.retrans_warn);
    format_message(alert, "%.0f retransmissions in one window (warn at %.0f)",
                   alert.value, alert.threshold);
    push(std::move(alert));
  }

  // Rule 4: RSS slope — resident set grew too fast since the last tick.
  if (tick.rss_bytes > 0) {
    if (have_rss_baseline_ && tick.rss_bytes > last_rss_bytes_) {
      const std::uint64_t growth = tick.rss_bytes - last_rss_bytes_;
      if (growth >= config_.rss_warn_bytes) {
        Alert alert;
        alert.rule = "rss_slope";
        alert.severity = growth >= config_.rss_crit_bytes
                             ? AlertSeverity::kCrit
                             : AlertSeverity::kWarn;
        alert.value = static_cast<double>(tick.rss_bytes);
        alert.baseline = static_cast<double>(last_rss_bytes_);
        alert.threshold = static_cast<double>(config_.rss_warn_bytes);
        format_message(alert, "RSS grew %.0f bytes in one tick (warn at %.0f)",
                       static_cast<double>(growth), alert.threshold);
        push(std::move(alert));
      }
    }
    last_rss_bytes_ = tick.rss_bytes;
    have_rss_baseline_ = true;
  }

  // Rule 5: per-worker health-score drops and fresh evictions.
  for (const LiveHealthRow& row : tick.workers) {
    const LiveHealthRow* prev = nullptr;
    for (const LiveHealthRow& p : last_workers_) {
      if (p.worker == row.worker) {
        prev = &p;
        break;
      }
    }
    if (prev == nullptr) continue;
    if (!prev->evicted && row.evicted) {
      Alert alert;
      alert.rule = "worker_evicted";
      alert.severity = AlertSeverity::kCrit;
      alert.value = row.score;
      alert.baseline = prev->score;
      alert.worker = row.worker;
      format_message(alert, "worker evicted (score %.1f -> %.1f)", prev->score,
                     row.score);
      push(std::move(alert));
      continue;
    }
    const double drop = prev->score - row.score;
    if (drop >= config_.health_warn_drop) {
      Alert alert;
      alert.rule = "health_drop";
      alert.severity = drop >= config_.health_crit_drop ? AlertSeverity::kCrit
                                                        : AlertSeverity::kWarn;
      alert.value = row.score;
      alert.baseline = prev->score;
      alert.threshold = config_.health_warn_drop;
      alert.worker = row.worker;
      format_message(alert, "health score fell %.1f points to %.1f", drop,
                     row.score);
      push(std::move(alert));
    }
  }
  if (!tick.workers.empty()) last_workers_ = tick.workers;

  return out;
}

}  // namespace rpol::obs

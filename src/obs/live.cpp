#include "obs/live.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "obs/json.h"
#include "obs/window.h"

namespace rpol::obs {

// ---------------------------------------------------------------------------
// Env policy

std::uint64_t live_interval_ms() {
  const char* env = std::getenv("RPOL_LIVE_INTERVAL_MS");
  if (env == nullptr || env[0] == '\0') return 1000;
  const long long v = std::atoll(env);
  return v < 1 ? 1 : static_cast<std::uint64_t>(v);
}

std::string live_file_path(const std::string& default_path) {
  return sink_path("RPOL_LIVE_FILE", default_path);
}

// ---------------------------------------------------------------------------
// Health publication slot

namespace {

std::mutex g_health_mutex;
std::vector<LiveHealthRow> g_health_rows;

}  // namespace

void live_publish_health(const HealthRegistry& reg) {
  if (!live_enabled()) return;
  std::vector<LiveHealthRow> rows;
  rows.reserve(reg.size());
  for (std::size_t w = 0; w < reg.size(); ++w) {
    LiveHealthRow row;
    row.worker = static_cast<std::int64_t>(w);
    row.score = reg.score(w);
    row.evicted = reg.evicted(w);
    row.consecutive_failures = reg.consecutive_failures(w);
    const HealthRegistry::WindowStats stats = reg.window_stats(w);
    row.window_total = stats.total;
    row.window_accepted = stats.accepted;
    row.window_retransmissions = stats.retransmissions;
    rows.push_back(row);
  }
  std::lock_guard<std::mutex> lock(g_health_mutex);
  g_health_rows.swap(rows);
}

std::vector<LiveHealthRow> live_health_rows() {
  std::lock_guard<std::mutex> lock(g_health_mutex);
  return g_health_rows;
}

void live_reset_health() {
  std::lock_guard<std::mutex> lock(g_health_mutex);
  g_health_rows.clear();
}

// ---------------------------------------------------------------------------
// JSON line assembly

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// LiveFlusher

struct LiveFlusher::Impl {
  Options options;
  std::FILE* file = nullptr;

  // Tick state: windows, engine, sequence. One mutex serializes background
  // ticks with flush_now() callers.
  std::mutex tick_mutex;
  std::map<std::string, CounterWindow> counter_windows;
  std::map<std::string, HistogramWindow> histogram_windows;
  AlertEngine engine;
  std::uint64_t seq = 0;

  std::atomic<std::uint64_t> snapshots{0};
  std::atomic<std::uint64_t> alerts{0};

  // Thread control, RssSampler-style.
  std::mutex mutex;
  std::condition_variable cv;
  bool stopping = false;
  bool stopped = false;
  std::thread thread;

  explicit Impl(Options opts)
      : options(std::move(opts)), engine(options.rules) {}

  CounterWindow& counter_window(const std::string& name) {
    auto it = counter_windows.find(name);
    if (it == counter_windows.end()) {
      it = counter_windows
               .emplace(name, CounterWindow(options.window_capacity))
               .first;
      // Seed with zero so the first observed reading counts as the first
      // window's delta (a counter that appears mid-stream did all its work
      // "recently" as far as this window is concerned).
      it->second.sample(std::uint64_t{0});
    }
    return it->second;
  }

  HistogramWindow& histogram_window(const std::string& name) {
    auto it = histogram_windows.find(name);
    if (it == histogram_windows.end()) {
      it = histogram_windows
               .emplace(name, HistogramWindow(options.window_capacity))
               .first;
      it->second.push(Histogram::Snapshot{});  // same zero-seed as counters
    }
    return it->second;
  }

  std::uint64_t summed_counter_delta(std::initializer_list<const char*> names) {
    std::uint64_t sum = 0;
    for (const char* name : names) {
      const auto it = counter_windows.find(name);
      if (it != counter_windows.end()) sum += it->second.window_delta();
    }
    return sum;
  }

  void write_alert_line(const Alert& alert, std::uint64_t t_ns) {
    std::string line;
    line.reserve(256);
    line += "{\"type\":\"alert\",\"schema\":\"rpol.alert.v1\",\"seq\":";
    append_u64(line, seq);
    line += ",\"t_ns\":";
    append_u64(line, t_ns);
    line += ",\"rule\":\"";
    line += json_escape(alert.rule);
    line += "\",\"severity\":\"";
    line += alert_severity_name(alert.severity);
    line += "\",\"value\":";
    append_double(line, alert.value);
    line += ",\"baseline\":";
    append_double(line, alert.baseline);
    line += ",\"threshold\":";
    append_double(line, alert.threshold);
    if (alert.worker >= 0) {
      line += ",\"worker\":";
      append_i64(line, alert.worker);
    }
    line += ",\"message\":\"";
    line += json_escape(alert.message);
    line += "\"}\n";
    std::fwrite(line.data(), 1, line.size(), file);
  }

  // One snapshot: sample every metric under the reset seqlock, update the
  // windows, emit the snapshot line, run the alert rules, emit their lines.
  void tick() {
    std::lock_guard<std::mutex> lock(tick_mutex);
    if (file == nullptr) return;

    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
    std::vector<MemStats> mem;
    const bool stable = stable_telemetry_read([&] {
      counters = Registry::instance().counter_values();
      histograms = Registry::instance().histogram_snapshots();
      mem = mem_stats_all();
    });
    if (!stable) return;  // reset hammer: skip the sample, never emit torn

    for (const auto& [name, value] : counters) {
      counter_window(name).sample(value);
    }
    for (const auto& [name, snapshot] : histograms) {
      histogram_window(name).push(snapshot);
    }

    const std::uint64_t t_ns = now_ns();
    const RssSample rss = read_proc_rss();
    const std::vector<LiveHealthRow> workers = live_health_rows();
    ++seq;

    std::string line;
    line.reserve(1024);
    line += "{\"type\":\"snapshot\",\"seq\":";
    append_u64(line, seq);
    line += ",\"t_ns\":";
    append_u64(line, t_ns);

    line += ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : counters) {
      if (value == 0) continue;  // keep lines bounded; zeros carry no news
      const CounterWindow& w = counter_windows.at(name);
      if (!first) line += ',';
      first = false;
      line += '"';
      line += json_escape(name);
      line += "\":{\"total\":";
      append_u64(line, value);
      line += ",\"delta\":";
      append_u64(line, w.window_delta());
      line += ",\"rate\":";
      append_double(line, w.rate_per_sample());
      line += '}';
    }
    line += '}';

    line += ",\"histograms\":{";
    first = true;
    for (const auto& [name, snapshot] : histograms) {
      if (snapshot.count == 0) continue;
      const HistogramWindow& w = histogram_windows.at(name);
      if (!first) line += ',';
      first = false;
      line += '"';
      line += json_escape(name);
      line += "\":{\"count\":";
      append_u64(line, snapshot.count);
      line += ",\"delta\":";
      append_u64(line, w.windowed_count());
      line += ",\"p50\":";
      append_u64(line, w.windowed_percentile(50));
      line += ",\"p95\":";
      append_u64(line, w.windowed_percentile(95));
      line += ",\"max\":";
      append_u64(line, snapshot.max);
      line += '}';
    }
    line += '}';

    line += ",\"mem\":{";
    first = true;
    for (int i = 0; i < kNumMemTags; ++i) {
      const MemStats& s = mem[static_cast<std::size_t>(i)];
      if (s.total_bytes == 0) continue;
      if (!first) line += ',';
      first = false;
      line += '"';
      line += mem_tag_name(static_cast<MemTag>(i));
      line += "\":{\"current\":";
      append_u64(line, s.current_bytes);
      line += ",\"peak\":";
      append_u64(line, s.peak_bytes);
      line += '}';
    }
    line += '}';

    line += ",\"rss_bytes\":";
    append_u64(line, rss.valid ? rss.vm_rss_bytes : 0);

    line += ",\"workers\":[";
    first = true;
    for (const LiveHealthRow& row : workers) {
      if (!first) line += ',';
      first = false;
      line += "{\"worker\":";
      append_i64(line, row.worker);
      line += ",\"score\":";
      append_double(line, row.score);
      line += ",\"evicted\":";
      line += row.evicted ? "true" : "false";
      line += ",\"consecutive_failures\":";
      append_i64(line, row.consecutive_failures);
      line += ",\"window_total\":";
      append_u64(line, row.window_total);
      line += ",\"window_accepted\":";
      append_u64(line, row.window_accepted);
      line += ",\"window_retransmissions\":";
      append_u64(line, row.window_retransmissions);
      line += '}';
    }
    line += "]}\n";
    std::fwrite(line.data(), 1, line.size(), file);
    snapshots.fetch_add(1, std::memory_order_relaxed);

    // Alert pass over the windows just refreshed.
    LiveTick t;
    t.t_ns = t_ns;
    t.seq = seq;
    t.accepts_delta = summed_counter_delta({"verify.accept"});
    t.rejects_delta = summed_counter_delta({"verify.reject"});
    t.retrans_delta = summed_counter_delta(
        {"pool.retransmission", "async.retransmission", "session.retry"});
    const auto pick_latency = [&]() -> const HistogramWindow* {
      for (const char* name :
           {"pool.session_latency_ns", "async.submission_latency_ns"}) {
        const auto it = histogram_windows.find(name);
        if (it != histogram_windows.end() && it->second.windowed_count() > 0) {
          return &it->second;
        }
      }
      return nullptr;
    };
    if (const HistogramWindow* lat = pick_latency()) {
      t.latency_p95_ns = lat->windowed_percentile(95);
      t.latency_count_delta = lat->windowed_count();
    }
    t.rss_bytes = rss.valid ? rss.vm_rss_bytes : 0;
    t.workers = workers;

    const std::vector<Alert> fired = engine.evaluate(t);
    for (const Alert& alert : fired) {
      write_alert_line(alert, t_ns);
      flight_record(FlightKind::kAlert, alert.rule, alert.worker, -1,
                    static_cast<std::uint64_t>(alert.severity));
      alerts.fetch_add(1, std::memory_order_relaxed);
    }
    std::fflush(file);
  }

  void run() {
    std::unique_lock<std::mutex> lock(mutex);
    while (!stopping) {
      lock.unlock();
      tick();
      lock.lock();
      cv.wait_for(lock, options.interval, [this] { return stopping; });
    }
  }
};

LiveFlusher::LiveFlusher(Options options) : impl_(new Impl(std::move(options))) {
  if (impl_->options.interval.count() < 1) {
    impl_->options.interval = std::chrono::milliseconds(1);
  }
  if (impl_->options.window_capacity < 2) impl_->options.window_capacity = 2;
  impl_->file = std::fopen(impl_->options.path.c_str(), "w");
  if (impl_->file != nullptr) {
    std::string meta;
    meta += "{\"type\":\"meta\",\"schema\":\"rpol.live.v1\",\"interval_ms\":";
    append_u64(meta, static_cast<std::uint64_t>(impl_->options.interval.count()));
    meta += ",\"window\":";
    append_u64(meta, impl_->options.window_capacity);
    meta += ",\"wall_anchor_unix_ns\":";
    append_u64(meta, Registry::instance().wall_anchor_unix_ns());
    meta += "}\n";
    std::fwrite(meta.data(), 1, meta.size(), impl_->file);
    std::fflush(impl_->file);
  }
  impl_->thread = std::thread([this] { impl_->run(); });
}

LiveFlusher::~LiveFlusher() {
  stop();
  if (impl_->file != nullptr) std::fclose(impl_->file);
}

void LiveFlusher::stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->stopped) return;
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  if (impl_->thread.joinable()) impl_->thread.join();
  // One final snapshot so a run shorter than the interval still lands its
  // end state (same shape as RssSampler::stop).
  impl_->tick();
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->stopped = true;
}

void LiveFlusher::flush_now() { impl_->tick(); }

bool LiveFlusher::ok() const { return impl_->file != nullptr; }

const std::string& LiveFlusher::path() const { return impl_->options.path; }

std::uint64_t LiveFlusher::snapshots_written() const {
  return impl_->snapshots.load(std::memory_order_relaxed);
}

std::uint64_t LiveFlusher::alerts_emitted() const {
  return impl_->alerts.load(std::memory_order_relaxed);
}

std::unique_ptr<LiveFlusher> maybe_start_live(const std::string& default_path) {
  if (!live_enabled()) return nullptr;
  install_flight_signal_handler();
  LiveFlusher::Options options;
  options.path = live_file_path(default_path);
  options.interval = std::chrono::milliseconds(
      static_cast<long long>(live_interval_ms()));
  return std::make_unique<LiveFlusher>(std::move(options));
}

}  // namespace rpol::obs

// Reader + renderer for rpol.live.v1 streams (live.h): parses the JSONL
// back into structs and prints the `rpol watch` / `rpol alerts` views —
// windowed rate table, active alerts, and the per-worker health strip.
// Lives in the analyzer library, not rpol_obs: readers may allocate and
// throw freely, emitters may not.
//
// Truncation tolerance: a live file is routinely read WHILE the flusher
// appends, so the final line is often cut mid-record; read_jsonl (json.h)
// reports that as a truncated tail, never as damage.

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/alerts.h"
#include "obs/json.h"
#include "obs/mem.h"

namespace rpol::obs {

struct LiveCounterRow {
  std::string name;
  std::uint64_t total = 0;
  std::uint64_t delta = 0;
  double rate = 0.0;
};

struct LiveHistogramRow {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t delta = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t max = 0;
};

struct LiveMemRow {
  std::string tag;
  std::uint64_t current_bytes = 0;
  std::uint64_t peak_bytes = 0;
};

struct LiveSnapshot {
  std::uint64_t seq = 0;
  std::uint64_t t_ns = 0;
  std::vector<LiveCounterRow> counters;
  std::vector<LiveHistogramRow> histograms;
  std::vector<LiveMemRow> mem;
  std::uint64_t rss_bytes = 0;
  std::vector<LiveHealthRow> workers;
};

struct LiveAlertRow {
  std::uint64_t seq = 0;
  std::uint64_t t_ns = 0;
  std::string rule;
  std::string severity;  // "info" / "warn" / "crit"
  double value = 0.0;
  double baseline = 0.0;
  double threshold = 0.0;
  std::int64_t worker = -1;
  std::string message;
};

// The inherited JsonlDamage holds what a tolerant read skipped.
struct LiveDoc : JsonlDamage {
  std::string schema;  // "rpol.live.v1"
  std::uint64_t interval_ms = 0;
  std::size_t window = 0;
  std::vector<LiveSnapshot> snapshots;
  std::vector<LiveAlertRow> alerts;
};

// Parses an rpol.live.v1 JSONL document (read_jsonl in json.h). Unknown
// line types are skipped (forward compatibility).
LiveDoc parse_live_jsonl(std::string_view text, bool strict = false);
LiveDoc load_live_file(const std::string& path, bool strict = false);

// `rpol watch` view: latest snapshot's rate table, worker health strip,
// and any alerts fired at-or-after that snapshot's window.
void print_live_report(const LiveDoc& doc, std::FILE* out);

// `rpol alerts` view: every alert in the stream, grouped by rule.
void print_alerts_summary(const LiveDoc& doc, std::FILE* out);

}  // namespace rpol::obs

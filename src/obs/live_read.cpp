#include "obs/live_read.h"

namespace rpol::obs {

namespace {

void parse_snapshot_line(const Json& obj, LiveDoc& doc) {
  LiveSnapshot snap;
  snap.seq = u64_field(obj, "seq");
  snap.t_ns = u64_field(obj, "t_ns");
  if (const Json* counters = obj.find("counters"); counters != nullptr) {
    for (const auto& [name, v] : counters->obj) {
      LiveCounterRow row;
      row.name = name;
      row.total = u64_field(v, "total");
      row.delta = u64_field(v, "delta");
      row.rate = double_field(v, "rate");
      snap.counters.push_back(std::move(row));
    }
  }
  if (const Json* hists = obj.find("histograms"); hists != nullptr) {
    for (const auto& [name, v] : hists->obj) {
      LiveHistogramRow row;
      row.name = name;
      row.count = u64_field(v, "count");
      row.delta = u64_field(v, "delta");
      row.p50 = u64_field(v, "p50");
      row.p95 = u64_field(v, "p95");
      row.max = u64_field(v, "max");
      snap.histograms.push_back(std::move(row));
    }
  }
  if (const Json* mem = obj.find("mem"); mem != nullptr) {
    for (const auto& [tag, v] : mem->obj) {
      LiveMemRow row;
      row.tag = tag;
      row.current_bytes = u64_field(v, "current");
      row.peak_bytes = u64_field(v, "peak");
      snap.mem.push_back(std::move(row));
    }
  }
  snap.rss_bytes = u64_field(obj, "rss_bytes");
  if (const Json* workers = obj.find("workers"); workers != nullptr) {
    for (const Json& w : workers->arr) {
      LiveHealthRow row;
      row.worker = i64_field(w, "worker", -1);
      row.score = double_field(w, "score");
      row.evicted = bool_field(w, "evicted");
      row.consecutive_failures =
          static_cast<int>(i64_field(w, "consecutive_failures", 0));
      row.window_total = u64_field(w, "window_total");
      row.window_accepted = u64_field(w, "window_accepted");
      row.window_retransmissions = u64_field(w, "window_retransmissions");
      snap.workers.push_back(row);
    }
  }
  doc.snapshots.push_back(std::move(snap));
}

void parse_alert_line(const Json& obj, LiveDoc& doc) {
  LiveAlertRow row;
  row.seq = u64_field(obj, "seq");
  row.t_ns = u64_field(obj, "t_ns");
  row.rule = string_field(obj, "rule");
  row.severity = string_field(obj, "severity");
  row.value = double_field(obj, "value");
  row.baseline = double_field(obj, "baseline");
  row.threshold = double_field(obj, "threshold");
  row.worker = i64_field(obj, "worker", -1);
  row.message = string_field(obj, "message");
  doc.alerts.push_back(std::move(row));
}

void print_alert_row(const LiveAlertRow& alert, std::FILE* out) {
  std::fprintf(out, "  [%-4s] seq %-4llu %-18s %s\n", alert.severity.c_str(),
               static_cast<unsigned long long>(alert.seq), alert.rule.c_str(),
               alert.message.c_str());
}

}  // namespace

LiveDoc parse_live_jsonl(std::string_view text, bool strict) {
  LiveDoc doc;
  read_jsonl(text, strict, "live", doc, [&](const Json& obj) {
    const std::string type = string_field(obj, "type");
    if (type == "meta") {
      doc.schema = string_field(obj, "schema");
      doc.interval_ms = u64_field(obj, "interval_ms");
      doc.window = static_cast<std::size_t>(u64_field(obj, "window"));
    } else if (type == "snapshot") {
      parse_snapshot_line(obj, doc);
    } else if (type == "alert") {
      parse_alert_line(obj, doc);
    }
    // Unknown types: skipped for forward compatibility.
  });
  return doc;
}

LiveDoc load_live_file(const std::string& path, bool strict) {
  return parse_live_jsonl(read_file(path, "live"), strict);
}

void print_live_report(const LiveDoc& doc, std::FILE* out) {
  std::fprintf(out, "live stream (%s), %zu snapshot(s), interval %llu ms\n",
               doc.schema.empty() ? "unknown schema" : doc.schema.c_str(),
               doc.snapshots.size(),
               static_cast<unsigned long long>(doc.interval_ms));
  print_jsonl_damage(doc, out);
  if (doc.snapshots.empty()) {
    std::fprintf(out, "  (no snapshots yet)\n");
    return;
  }
  const LiveSnapshot& snap = doc.snapshots.back();
  std::fprintf(out, "  latest: seq %llu, t %.3f s, rss %s\n",
               static_cast<unsigned long long>(snap.seq),
               static_cast<double>(snap.t_ns) / 1e9,
               human_bytes(snap.rss_bytes).c_str());

  if (!snap.counters.empty()) {
    std::fprintf(out, "\n  %-32s %12s %10s %10s\n", "counter", "total",
                 "delta", "rate/tick");
    for (const LiveCounterRow& row : snap.counters) {
      std::fprintf(out, "  %-32s %12llu %10llu %10.2f\n", row.name.c_str(),
                   static_cast<unsigned long long>(row.total),
                   static_cast<unsigned long long>(row.delta), row.rate);
    }
  }

  if (!snap.histograms.empty()) {
    std::fprintf(out, "\n  %-32s %10s %8s %12s %12s\n", "histogram", "count",
                 "delta", "p50", "p95");
    for (const LiveHistogramRow& row : snap.histograms) {
      std::fprintf(out, "  %-32s %10llu %8llu %12llu %12llu\n",
                   row.name.c_str(),
                   static_cast<unsigned long long>(row.count),
                   static_cast<unsigned long long>(row.delta),
                   static_cast<unsigned long long>(row.p50),
                   static_cast<unsigned long long>(row.p95));
    }
  }

  if (!snap.workers.empty()) {
    // One worker per column: a compact strip for terminal watching.
    std::fprintf(out, "\n  workers:");
    for (const LiveHealthRow& row : snap.workers) {
      const char* state = row.evicted ? "EVICTED"
                          : row.score >= 75.0 ? "ok"
                                              : "degraded";
      std::fprintf(out, "  [w%lld %.0f %s]", static_cast<long long>(row.worker),
                   row.score, state);
    }
    std::fprintf(out, "\n");
  }

  // Alerts belonging to the latest window (same seq), then a recent tail.
  std::size_t active = 0;
  for (const LiveAlertRow& alert : doc.alerts) {
    if (alert.seq == snap.seq) ++active;
  }
  if (active > 0) {
    std::fprintf(out, "\n  active alerts (this window):\n");
    for (const LiveAlertRow& alert : doc.alerts) {
      if (alert.seq == snap.seq) print_alert_row(alert, out);
    }
  } else if (!doc.alerts.empty()) {
    std::fprintf(out, "\n  no active alerts (%zu earlier in stream)\n",
                 doc.alerts.size());
  }
}

void print_alerts_summary(const LiveDoc& doc, std::FILE* out) {
  std::fprintf(out, "alerts: %zu over %zu snapshot(s)\n", doc.alerts.size(),
               doc.snapshots.size());
  print_jsonl_damage(doc, out);
  if (doc.alerts.empty()) return;

  // Group by rule, preserving first-seen order.
  std::vector<std::string> rules;
  for (const LiveAlertRow& alert : doc.alerts) {
    bool seen = false;
    for (const std::string& r : rules) {
      if (r == alert.rule) {
        seen = true;
        break;
      }
    }
    if (!seen) rules.push_back(alert.rule);
  }
  for (const std::string& rule : rules) {
    std::size_t n = 0;
    for (const LiveAlertRow& alert : doc.alerts) {
      if (alert.rule == rule) ++n;
    }
    std::fprintf(out, "\n  %s (%zu):\n", rule.c_str(), n);
    for (const LiveAlertRow& alert : doc.alerts) {
      if (alert.rule == rule) print_alert_row(alert, out);
    }
  }
}

}  // namespace rpol::obs

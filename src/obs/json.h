// The JSON and JSONL core of src/obs, shared by every stream reader and
// writer:
//   - a minimal JSON value reader (parse_json), just enough for the objects,
//     nested objects and arrays the rpol.* exporters emit. Numbers keep their
//     raw token so u64 fields (byte counts, timestamps) parse losslessly;
//     rpol::obs emitters never produce values a double can't round-trip
//     except those u64s, which callers read back via as_u64();
//   - the JSONL line reader (read_jsonl) behind the trace analyzer
//     (analyze.h), the health reader (health_read.h) and the live reader
//     (live_read.h), with its damage report (JsonlDamage) and renderer;
//   - optional-field accessors, a file slurper and human_bytes for readers;
//   - json_escape and sink_path for the trace, health, live and flight
//     writers and the timeline and benchmark-registry exporters.
// The reader half allocates and throws; emitters only call the last two.

#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rpol::obs {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  std::string token;  // raw number token, or string payload
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  double as_double() const;
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  const Json* find(std::string_view key) const;
};

// Parses one complete JSON value (whitespace incl. newlines allowed around
// tokens, nothing may trail it); throws std::runtime_error on malformed
// input with the failing byte offset in the message.
Json parse_json(std::string_view text);

// Optional fields: the value of `key`, or the default when it is absent (or,
// for bool/string, not of that kind).
std::uint64_t u64_field(const Json& obj, std::string_view key,
                        std::uint64_t fallback = 0);
std::int64_t i64_field(const Json& obj, std::string_view key,
                       std::int64_t fallback = 0);
double double_field(const Json& obj, std::string_view key,
                    double fallback = 0.0);
bool bool_field(const Json& obj, std::string_view key);
std::string string_field(const Json& obj, std::string_view key);
// Mandatory fields: throws std::runtime_error naming `key` when absent.
const Json& require(const Json& obj, std::string_view key);

// ---------------------------------------------------------------------------
// JSONL streams (docs/observability.md, "Reading JSONL streams")

// What a tolerant read skipped. Each schema's document type inherits it.
struct JsonlDamage {
  // Interior lines that failed (a JSON syntax error or a record the schema
  // rejected), counted, with the first kMaxKeptErrors "line N: why" kept.
  static constexpr std::size_t kMaxKeptErrors = 8;
  std::size_t skipped_lines = 0;
  std::vector<std::string> parse_errors;
  // A final line with no trailing newline that fails is a write cut
  // mid-record (a crash, or a reader racing the writer), not interior
  // damage: it is flagged here and not counted in skipped_lines.
  bool truncated_tail = false;
  std::size_t truncated_tail_offset = 0;  // byte offset where that line starts
};

// Thrown by an on_record callback when the whole stream is unreadable (an
// unknown schema): propagates in tolerant and strict mode alike.
class JsonlFatal : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Splits `text` into lines, skips blank ones (only space, tab or CR),
// parses each of the rest and hands it to on_record in order. A failing
// line is recorded in `damage` (tolerant), or throws std::runtime_error
// "<what> line N: why" — for a cut final line, "<what> truncated mid-record
// at byte offset B (line N): why" — when strict.
void read_jsonl(std::string_view text, bool strict, std::string_view what,
                JsonlDamage& damage,
                const std::function<void(const Json&)>& on_record);

// Prints the damage warnings (nothing for an undamaged read).
void print_jsonl_damage(const JsonlDamage& damage, std::FILE* out);

// The whole file at `path`; throws "cannot open <what> file: <path>".
std::string read_file(const std::string& path, std::string_view what);

// "512 B", "1.50 KiB", "2.00 MiB", "1.25 GiB".
std::string human_bytes(std::uint64_t bytes);

// ---------------------------------------------------------------------------
// Writers

// `s` as the inside of a JSON string literal: quote and backslash escaped,
// \n \r \t by name, other control bytes as \u00XX.
std::string json_escape(std::string_view s);

// The sink file for a stream: $env_var when set and non-empty, else
// `default_path`.
std::string sink_path(const char* env_var, const std::string& default_path);

}  // namespace rpol::obs

#include "obs/json.h"

#include <cstdlib>
#include <fstream>
#include <iterator>

namespace rpol::obs {

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json parse() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't':
      case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  Json parse_object() {
    Json v;
    v.kind = Json::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      Json key = parse_string();
      skip_ws();
      expect(':');
      v.obj.emplace_back(std::move(key.token), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json parse_array() {
    Json v;
    v.kind = Json::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Json parse_string() {
    Json v;
    v.kind = Json::Kind::kString;
    expect('"');
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return v;
      if (c != '\\') {
        v.token += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': v.token += '"'; break;
        case '\\': v.token += '\\'; break;
        case '/': v.token += '/'; break;
        case 'n': v.token += '\n'; break;
        case 'r': v.token += '\r'; break;
        case 't': v.token += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          const unsigned long cp =
              std::strtoul(std::string(text_.substr(pos_, 4)).c_str(),
                           nullptr, 16);
          pos_ += 4;
          // The exporters only escape control characters, all < 0x80.
          v.token += static_cast<char>(cp & 0x7F);
          break;
        }
        default: fail("unsupported escape");
      }
    }
  }

  Json parse_bool() {
    Json v;
    v.kind = Json::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      v.b = true;
      pos_ += 4;
    } else if (text_.substr(pos_, 5) == "false") {
      v.b = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  Json parse_null() {
    if (text_.substr(pos_, 4) != "null") fail("bad literal");
    pos_ += 4;
    return Json{};
  }

  Json parse_number() {
    Json v;
    v.kind = Json::Kind::kNumber;
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    v.token = std::string(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

double Json::as_double() const { return std::strtod(token.c_str(), nullptr); }

std::uint64_t Json::as_u64() const {
  return std::strtoull(token.c_str(), nullptr, 10);
}

std::int64_t Json::as_i64() const {
  return std::strtoll(token.c_str(), nullptr, 10);
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json parse_json(std::string_view text) { return JsonParser(text).parse(); }

std::uint64_t u64_field(const Json& obj, std::string_view key,
                        std::uint64_t fallback) {
  const Json* v = obj.find(key);
  return v != nullptr ? v->as_u64() : fallback;
}

std::int64_t i64_field(const Json& obj, std::string_view key,
                       std::int64_t fallback) {
  const Json* v = obj.find(key);
  return v != nullptr ? v->as_i64() : fallback;
}

double double_field(const Json& obj, std::string_view key, double fallback) {
  const Json* v = obj.find(key);
  return v != nullptr ? v->as_double() : fallback;
}

bool bool_field(const Json& obj, std::string_view key) {
  const Json* v = obj.find(key);
  return v != nullptr && v->kind == Json::Kind::kBool && v->b;
}

std::string string_field(const Json& obj, std::string_view key) {
  const Json* v = obj.find(key);
  return (v != nullptr && v->kind == Json::Kind::kString) ? v->token
                                                          : std::string();
}

const Json& require(const Json& obj, std::string_view key) {
  const Json* v = obj.find(key);
  if (v == nullptr) {
    throw std::runtime_error("record missing field '" + std::string(key) +
                             "'");
  }
  return *v;
}

void read_jsonl(std::string_view text, bool strict, std::string_view what,
                JsonlDamage& damage,
                const std::function<void(const Json&)>& on_record) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t line_start = pos;
    std::size_t end = text.find('\n', pos);
    const bool terminated = end != std::string_view::npos;
    if (!terminated) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = terminated ? end + 1 : text.size();
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    try {
      on_record(parse_json(line));
    } catch (const JsonlFatal&) {
      throw;
    } catch (const std::exception& e) {
      const std::string where =
          "line " + std::to_string(line_no) + ": " + e.what();
      if (!terminated) {
        // Cut mid-record: the writer crashed or is still appending.
        if (strict) {
          throw std::runtime_error(
              std::string(what) + " truncated mid-record at byte offset " +
              std::to_string(line_start) + " (line " +
              std::to_string(line_no) + "): " + e.what());
        }
        damage.truncated_tail = true;
        damage.truncated_tail_offset = line_start;
        return;
      }
      if (strict) throw std::runtime_error(std::string(what) + " " + where);
      ++damage.skipped_lines;
      if (damage.parse_errors.size() < JsonlDamage::kMaxKeptErrors) {
        damage.parse_errors.push_back(where);
      }
    }
  }
}

void print_jsonl_damage(const JsonlDamage& damage, std::FILE* out) {
  if (damage.skipped_lines > 0) {
    std::fprintf(out, "WARNING: skipped %zu malformed line%s:\n",
                 damage.skipped_lines, damage.skipped_lines == 1 ? "" : "s");
    for (const std::string& err : damage.parse_errors) {
      std::fprintf(out, "  %s\n", err.c_str());
    }
    if (damage.parse_errors.size() < damage.skipped_lines) {
      std::fprintf(out, "  ... and %zu more\n",
                   damage.skipped_lines - damage.parse_errors.size());
    }
  }
  if (damage.truncated_tail) {
    std::fprintf(out,
                 "WARNING: final record truncated at byte %zu (writer cut "
                 "mid-append)\n",
                 damage.truncated_tail_offset);
  }
}

std::string read_file(const std::string& path, std::string_view what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + std::string(what) +
                             " file: " + path);
  }
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string human_bytes(std::uint64_t bytes) {
  char buf[64];
  if (bytes >= 1024ull * 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%.2f GiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0));
  } else if (bytes >= 1024ull * 1024) {
    std::snprintf(buf, sizeof buf, "%.2f MiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof buf, "%.2f KiB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string sink_path(const char* env_var, const std::string& default_path) {
  const char* env = std::getenv(env_var);
  return (env != nullptr && env[0] != '\0') ? env : default_path;
}

}  // namespace rpol::obs

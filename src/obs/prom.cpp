#include "obs/prom.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace drlhmd::obs {

namespace {

bool name_start_char(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}
bool name_char(char c) {
  return name_start_char(c) || std::isdigit(static_cast<unsigned char>(c));
}
bool label_start_char(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool label_char(char c) {
  return label_start_char(c) || std::isdigit(static_cast<unsigned char>(c));
}

std::string escape_label_value(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string format_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// `name{k="v",...}` with an optional extra label appended last.
std::string series(const std::string& name, const Labels& labels,
                   const char* extra_key = nullptr,
                   const std::string& extra_value = {}) {
  std::string out = name;
  if (!labels.empty() || extra_key != nullptr) {
    out += '{';
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) out += ',';
      first = false;
      out += prom_name(k);
      out += "=\"";
      out += escape_label_value(v);
      out += '"';
    }
    if (extra_key != nullptr) {
      if (!first) out += ',';
      out += extra_key;
      out += "=\"";
      out += escape_label_value(extra_value);
      out += '"';
    }
    out += '}';
  }
  return out;
}

/// Emit `# TYPE` the first time a sanitized name is seen.
void type_line(std::string& out, std::map<std::string, bool>& seen,
               const std::string& name, const char* type) {
  if (seen.emplace(name, true).second) {
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
  }
}

void sample(std::string& out, const std::string& series_text, double value) {
  out += series_text;
  out += ' ';
  out += format_value(value);
  out += '\n';
}

}  // namespace

std::string prom_name(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) out += name_char(c) ? c : '_';
  if (out.empty() || !name_start_char(out[0])) out.insert(out.begin(), '_');
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::map<std::string, bool> typed;

  for (const auto& c : snapshot.counters) {
    const std::string name = prom_name(c.name);
    type_line(out, typed, name, "counter");
    sample(out, series(name, c.labels), static_cast<double>(c.value));
  }

  for (const auto& g : snapshot.gauges) {
    const std::string name = prom_name(g.name);
    type_line(out, typed, name, "gauge");
    sample(out, series(name, g.labels), g.value);
  }

  for (const auto& t : snapshot.tails) {
    const std::string name = prom_name(t.name);
    type_line(out, typed, name, "summary");
    static constexpr struct {
      const char* label;
      double TailHistogram::Snapshot::* member;
    } kQuantiles[] = {
        {"0.5", &TailHistogram::Snapshot::p50},
        {"0.9", &TailHistogram::Snapshot::p90},
        {"0.99", &TailHistogram::Snapshot::p99},
        {"0.999", &TailHistogram::Snapshot::p999},
        {"0.9999", &TailHistogram::Snapshot::p9999},
    };
    for (const auto& q : kQuantiles)
      sample(out, series(name, t.labels, "quantile", q.label),
             t.data.*(q.member));
    sample(out, series(name + "_sum", t.labels), t.data.sum);
    sample(out, series(name + "_count", t.labels),
           static_cast<double>(t.data.count));
  }

  return out;
}

// ---------------------------------------------------------------------------
// Lint.

namespace {

class Linter {
 public:
  explicit Linter(std::string_view text) : text_(text) {}

  bool run(std::string* error) {
    std::size_t line_no = 0;
    std::size_t pos = 0;
    while (pos <= text_.size()) {
      const std::size_t eol = text_.find('\n', pos);
      const std::string_view line =
          text_.substr(pos, (eol == std::string_view::npos ? text_.size()
                                                           : eol) -
                                pos);
      ++line_no;
      std::string reason;
      if (!check_line(line, reason)) {
        if (error != nullptr)
          *error = "line " + std::to_string(line_no) + ": " + reason;
        return false;
      }
      if (eol == std::string_view::npos) break;
      pos = eol + 1;
    }
    return true;
  }

 private:
  bool check_line(std::string_view line, std::string& reason) {
    if (line.empty()) return true;
    if (line[0] == '#') return check_comment(line, reason);
    return check_sample(line, reason);
  }

  bool check_comment(std::string_view line, std::string& reason) {
    if (line.rfind("# TYPE ", 0) != 0) return true;  // HELP / free comment
    std::string_view rest = line.substr(7);
    const std::size_t space = rest.find(' ');
    if (space == std::string_view::npos) {
      reason = "TYPE line missing type";
      return false;
    }
    const std::string name(rest.substr(0, space));
    const std::string_view type = rest.substr(space + 1);
    if (!valid_name(name)) {
      reason = "invalid metric name in TYPE line";
      return false;
    }
    if (type != "counter" && type != "gauge" && type != "histogram" &&
        type != "summary" && type != "untyped") {
      reason = "unknown metric type '" + std::string(type) + "'";
      return false;
    }
    if (!types_.emplace(name, std::string(type)).second) {
      reason = "duplicate TYPE for '" + name + "'";
      return false;
    }
    return true;
  }

  bool check_sample(std::string_view line, std::string& reason) {
    std::size_t pos = 0;
    // Metric name.
    if (pos >= line.size() || !name_start_char(line[pos])) {
      reason = "sample does not start with a metric name";
      return false;
    }
    while (pos < line.size() && name_char(line[pos])) ++pos;
    const std::string name(line.substr(0, pos));
    // Optional label block.
    if (pos < line.size() && line[pos] == '{') {
      ++pos;
      while (pos < line.size() && line[pos] != '}') {
        if (!label_start_char(line[pos])) {
          reason = "invalid label name";
          return false;
        }
        while (pos < line.size() && label_char(line[pos])) ++pos;
        if (pos >= line.size() || line[pos] != '=') {
          reason = "label missing '='";
          return false;
        }
        ++pos;
        if (pos >= line.size() || line[pos] != '"') {
          reason = "label value not quoted";
          return false;
        }
        ++pos;
        while (pos < line.size() && line[pos] != '"') {
          if (line[pos] == '\\') {
            ++pos;
            if (pos >= line.size() ||
                (line[pos] != '\\' && line[pos] != '"' && line[pos] != 'n')) {
              reason = "bad escape in label value";
              return false;
            }
          }
          ++pos;
        }
        if (pos >= line.size()) {
          reason = "unterminated label value";
          return false;
        }
        ++pos;  // closing quote
        if (pos < line.size() && line[pos] == ',') ++pos;
      }
      if (pos >= line.size()) {
        reason = "unterminated label block";
        return false;
      }
      ++pos;  // '}'
    }
    if (pos >= line.size() || line[pos] != ' ') {
      reason = "missing space before value";
      return false;
    }
    ++pos;
    // Value (exposition float, or NaN/+Inf/-Inf literals).
    const std::string value(line.substr(pos));
    const std::size_t value_end = value.find(' ');
    const std::string value_tok = value.substr(0, value_end);
    if (value_tok != "NaN" && value_tok != "+Inf" && value_tok != "-Inf") {
      char* end = nullptr;
      std::strtod(value_tok.c_str(), &end);
      if (end == value_tok.c_str() || *end != '\0') {
        reason = "unparsable sample value '" + value_tok + "'";
        return false;
      }
    }
    // Optional trailing timestamp (integer milliseconds).
    if (value_end != std::string::npos) {
      const std::string ts = value.substr(value_end + 1);
      if (ts.empty() ||
          ts.find_first_not_of("-0123456789") != std::string::npos) {
        reason = "malformed timestamp";
        return false;
      }
    }
    // Every series must be covered by a prior TYPE declaration, either by
    // exact name or via the histogram/summary child-series suffixes.
    if (types_.count(name) != 0) return true;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string_view sv(suffix);
      if (name.size() > sv.size() &&
          name.compare(name.size() - sv.size(), sv.size(), sv) == 0) {
        const std::string base = name.substr(0, name.size() - sv.size());
        const auto it = types_.find(base);
        if (it != types_.end() &&
            (it->second == "histogram" || it->second == "summary"))
          return true;
      }
    }
    reason = "sample '" + name + "' has no preceding TYPE line";
    return false;
  }

  static bool valid_name(const std::string& name) {
    if (name.empty() || !name_start_char(name[0])) return false;
    for (const char c : name)
      if (!name_char(c)) return false;
    return true;
  }

  std::string_view text_;
  std::map<std::string, std::string> types_;
};

}  // namespace

bool prom_lint(std::string_view text, std::string* error) {
  return Linter(text).run(error);
}

}  // namespace drlhmd::obs

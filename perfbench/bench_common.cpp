#include "bench_common.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace ccbench {

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::set(std::string key, Json value) {
  as_object().emplace_back(std::move(key), std::move(value));
}

namespace {

void dump_string(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void dump_value(const Json& j, std::string* out) {
  if (j.is_null()) {
    *out += "null";
  } else if (j.is_bool()) {
    *out += j.as_bool() ? "true" : "false";
  } else if (j.is_number()) {
    const double d = j.as_number();
    if (!std::isfinite(d)) {
      *out += "null";
      return;
    }
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof(buf), d);
    out->append(buf, r.ptr);
  } else if (j.is_string()) {
    dump_string(j.as_string(), out);
  } else if (j.is_array()) {
    out->push_back('[');
    bool first = true;
    for (const Json& e : j.as_array()) {
      if (!first) *out += ", ";
      first = false;
      dump_value(e, out);
    }
    out->push_back(']');
  } else {
    out->push_back('{');
    bool first = true;
    for (const auto& [k, v] : j.as_object()) {
      if (!first) *out += ", ";
      first = false;
      dump_string(k, out);
      *out += ": ";
      dump_value(v, out);
    }
    out->push_back('}');
  }
}

class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  Json document() {
    Json v = value(0);
    ws();
    if (i_ != s_.size()) fail("trailing data");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON: " + what + " at byte " +
                             std::to_string(i_));
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\t' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }
  bool literal(const char* word) {
    const size_t n = std::char_traits<char>::length(word);
    if (s_.compare(i_, n, word) != 0) return false;
    i_ += n;
    return true;
  }

  Json value(int depth) {
    if (depth > 64) fail("nesting too deep");
    ws();
    if (i_ >= s_.size()) fail("unexpected end");
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      Json::Object o;
      if (eat('}')) return o;
      do {
        ws();
        std::string k = string();
        expect(':');
        o.emplace_back(std::move(k), value(depth + 1));
      } while (eat(','));
      expect('}');
      return o;
    }
    if (c == '[') {
      ++i_;
      Json::Array a;
      if (eat(']')) return a;
      do {
        a.push_back(value(depth + 1));
      } while (eat(','));
      expect(']');
      return a;
    }
    if (c == '"') return string();
    if (literal("true")) return true;
    if (literal("false")) return false;
    if (literal("null")) return nullptr;
    return number();
  }

  std::string string() {
    if (i_ >= s_.size() || s_[i_] != '"') fail("expected string");
    ++i_;
    std::string out;
    while (true) {
      if (i_ >= s_.size()) fail("unterminated string");
      const char c = s_[i_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control byte in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (i_ >= s_.size()) fail("unterminated escape");
      const char e = s_[i_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (i_ + 4 > s_.size()) fail("short \\u escape");
          unsigned cp = 0;
          const auto r = std::from_chars(s_.data() + i_, s_.data() + i_ + 4,
                                         cp, 16);
          if (r.ptr != s_.data() + i_ + 4) fail("bad \\u escape");
          i_ += 4;
          // Records only ever carry ASCII; anything wider is kept as
          // UTF-8 of the code unit (surrogates are not paired).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  Json number() {
    const size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    double d = 0;
    const auto r = std::from_chars(s_.data() + start, s_.data() + i_, d);
    if (start == i_ || r.ec != std::errc() || r.ptr != s_.data() + i_) {
      i_ = start;
      fail("bad value");
    }
    return d;
  }

  const std::string& s_;
  size_t i_ = 0;
};

// statistics.quantiles(data, n=4) with the default "exclusive" method.
std::vector<double> py_quartiles(const std::vector<double>& sorted) {
  const size_t ld = sorted.size();
  if (ld == 1) return {sorted[0], sorted[0], sorted[0]};
  const size_t m = ld + 1;
  std::vector<double> out;
  for (size_t i = 1; i < 4; ++i) {
    size_t j = i * m / 4;
    j = std::clamp<size_t>(j, 1, ld - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    out.push_back((sorted[j - 1] * (4 - delta) + sorted[j] * delta) / 4);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(*this, &out);
  return out;
}

Json Json::parse(const std::string& text) { return Parser(text).document(); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Summary summarize(std::vector<double> samples, bool higher_is_better) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  s.min = samples.front();
  s.max = samples.back();
  s.median = n % 2 == 1 ? samples[n / 2]
                        : (samples[n / 2 - 1] + samples[n / 2]) / 2;
  const std::vector<double> q = py_quartiles(samples);
  s.q1 = q[0];
  s.q3 = q[2];
  if (n >= 11) {
    // Order by badness: the k-th worst-but-10 sample leaves exactly ten
    // samples beyond it.
    if (higher_is_better) std::reverse(samples.begin(), samples.end());
    const size_t k = n - 10;
    s.tail_pct = static_cast<int>(100 * k / n);
    s.tail_value = samples[k - 1];
    s.tail_beyond = n - k;
  }
  return s;
}

Json to_json(const Summary& s, const std::string& unit) {
  Json::Object o;
  o.emplace_back("unit", unit);
  o.emplace_back("n", static_cast<uint64_t>(s.n));
  o.emplace_back("median", s.median);
  o.emplace_back("q1", s.q1);
  o.emplace_back("q3", s.q3);
  o.emplace_back("min", s.min);
  o.emplace_back("max", s.max);
  if (s.tail_pct >= 0) {
    o.emplace_back("tail", Json::Object{{"pct", s.tail_pct},
                                        {"value", s.tail_value},
                                        {"beyond", static_cast<uint64_t>(
                                                       s.tail_beyond)}});
  } else {
    o.emplace_back("tail", nullptr);
  }
  return o;
}

Json env_block(uint64_t reps) {
  Json::Object o;
  o.emplace_back("git_sha", CCBENCH_GIT_SHA);
  o.emplace_back("compiler", CCBENCH_COMPILER);
  o.emplace_back("build_type", CCBENCH_BUILD_TYPE);
  o.emplace_back("flags", CCBENCH_FLAGS);
  o.emplace_back("cpu_model", cpu_model());
  o.emplace_back("nproc", std::thread::hardware_concurrency());
  o.emplace_back("reps", reps);
  return o;
}

double current_rss_mb() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  if (!(in >> size >> resident)) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

void trim_heap() { malloc_trim(0); }

}  // namespace ccbench

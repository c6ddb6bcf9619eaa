// Shared result schema for the end-to-end benchmark.
//
// Every run writes one record: the workload, its seed and settings, an env
// block saying where and how the numbers were produced, and per metric the
// median, quartiles, min, max and sample count over the run's passes, plus
// a tail percentile chosen by one rule — the highest percentile (in the
// metric's worse direction) with at least ten samples beyond it, reported
// with its sample count. Records are plain JSON; a tiny DOM (Json) both
// writes them and reads them back for merging and self-checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace ccbench {

// Minimal JSON value: enough to emit records and to read back
// BENCHMARK.json and committed result files. Objects keep insertion order.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool b) : v_(b) {}
  Json(double d) : v_(d) {}
  Json(int i) : v_(static_cast<double>(i)) {}
  Json(unsigned u) : v_(static_cast<double>(u)) {}
  Json(int64_t i) : v_(static_cast<double>(i)) {}
  Json(uint64_t u) : v_(static_cast<double>(u)) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(Array a) : v_(std::move(a)) {}
  Json(Object o) : v_(std::move(o)) {}

  bool is_null() const { return v_.index() == 0; }
  bool is_bool() const { return v_.index() == 1; }
  bool is_number() const { return v_.index() == 2; }
  bool is_string() const { return v_.index() == 3; }
  bool is_array() const { return v_.index() == 4; }
  bool is_object() const { return v_.index() == 5; }

  bool as_bool() const { return std::get<bool>(v_); }
  double as_number() const { return std::get<double>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& as_array() const { return std::get<Array>(v_); }
  Array& as_array() { return std::get<Array>(v_); }
  const Object& as_object() const { return std::get<Object>(v_); }
  Object& as_object() { return std::get<Object>(v_); }

  // Object member lookup; null when absent or not an object.
  const Json* find(const std::string& key) const;
  // Appends (objects only).
  void set(std::string key, Json value);

  // Compact single-line rendering; numbers use the shortest text that
  // round-trips, so every measured digit survives.
  std::string dump() const;
  // Throws std::runtime_error naming the offset of the first bad byte.
  static Json parse(const std::string& text);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

// Reads a whole file; throws std::runtime_error when it cannot.
std::string read_file(const std::string& path);

// Order statistics of one metric over a run's samples.
struct Summary {
  size_t n = 0;
  double median = 0, q1 = 0, q3 = 0, min = 0, max = 0;
  // Tail percentile: the highest percentile, counted in the worse direction,
  // with at least 10 samples beyond it; absent (tail_pct < 0) below 11
  // samples.
  int tail_pct = -1;
  double tail_value = 0;
  size_t tail_beyond = 0;
};

// Quartiles follow Python's statistics.quantiles(n=4) ("exclusive"
// method), so a record and a script reading the raw samples agree.
Summary summarize(std::vector<double> samples, bool higher_is_better);
Json to_json(const Summary& s, const std::string& unit);

// Where the numbers came from: git SHA and build settings fixed at
// configure time, plus the host's CPU model and core count.
Json env_block(uint64_t reps);

// Resident set: current, and the process high-water mark (ru_maxrss), in
// MiB. reset_peak_rss() lowers the high-water mark to the current RSS
// (Linux clear_refs); returns false where that is not permitted.
double current_rss_mb();
double peak_rss_mb();
bool reset_peak_rss();
// Returns freed heap pages to the OS so RSS deltas measure live memory.
void trim_heap();

}  // namespace ccbench

// ccstarve_bench — the end-to-end benchmark (see perfbench/README.md).
//
//   ccstarve_bench --workload <paper|cohort10k|warp_hour|observed>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--quick] [--record <path>] [--repo <dir>]
//   ccstarve_bench --selftest [--repo <dir>]
//   ccstarve_bench --merge <out.json> <record.json>...
//
// A workload run is one single-threaded process. It prints each metric with
// its unit, then the full record (env block, per-metric median, quartiles,
// min, max, n and tail percentile) on a line starting with "record ", and
// last a one-line JSON result: {"correct", "attempted", "failed",
// "metrics"} — the end-to-end metrics untraced, the per-layer ones traced.
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad
// usage.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "check/scenarios.hpp"
#include "workloads.hpp"

namespace ccbench {
namespace {

constexpr const char* kSchema = "ccstarve-bench/1";

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ccstarve_bench: %s\n"
               "usage: ccstarve_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--quick] [--record <path>] "
               "[--repo <dir>]\n"
               "       ccstarve_bench --selftest [--repo <dir>]\n"
               "       ccstarve_bench --merge <out.json> <record.json>...\n",
               why.c_str());
  std::exit(2);
}

uint64_t parse_u64(const std::string& flag, const std::string& v) {
  size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used, 10);
  } catch (const std::exception&) {
    used = 0;
  }
  if (v.empty() || used != v.size() || v[0] == '-') {
    usage(flag + " wants a non-negative integer (got '" + v + "')");
  }
  return x;
}

double parse_seconds(const std::string& v) {
  size_t used = 0;
  double x = -1;
  try {
    x = std::stod(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != v.size() || !std::isfinite(x) || x < 0 || x > 3600) {
    usage("--seconds wants a number in [0, 3600] (got '" + v + "')");
  }
  return x;
}

// A record under a results/ directory is a committed trajectory point;
// a --quick record never is one.
bool under_results(const std::string& path) {
  return std::filesystem::absolute(path).parent_path().filename() ==
         "results";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

const MetricDef& metric_def(const std::string& name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *list) {
      if (name == d.name) return d;
    }
  }
  throw std::logic_error("no metric named " + name);
}

Json value_json(double v, const char* unit) {
  return Json::Object{{"value", v}, {"unit", unit}};
}

int run(const Options& opt, const std::string& record_path) {
  if (opt.quick && !record_path.empty() && under_results(record_path)) {
    usage("refusing to write a --quick record under results/");
  }
  const WorkloadResult r = run_workload(opt);
  for (const std::string& n : r.failure_notes) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", n.c_str());
  }
  for (const KnownGap& g : r.known_gaps) {
    std::fprintf(stderr, "KNOWN GAP (not counted): %s %.6g, limit %.6g\n",
                 g.check.c_str(), g.measured, g.limit);
  }
  const bool correct = r.failed == 0 && r.attempted > 0;

  Json::Object metrics;  // the result line's
  Json::Object detail;   // the record's
  std::printf("ccstarve_bench: workload=%s seed=%llu seconds=%g trace=%d%s "
              "passes=%llu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.quick ? " quick" : "",
              static_cast<unsigned long long>(r.passes));
  if (!opt.trace) {
    // value: what the result line reports; samples: what it summarizes.
    struct Row {
      const char* name;
      double value;
      const char* estimator;
      const std::vector<double>& samples;
    };
    const std::vector<double> rss = {r.peak_rss_mb};
    const Row rows[] = {
        {"sim_per_wall", r.sim_per_wall,
         r.sim_per_wall_estimator.c_str(),
         r.pass_sim_per_wall},
        {"setup_s", summarize(r.setup_s, false).median, "median of samples",
         r.setup_s},
        {"peak_rss_mb", r.peak_rss_mb,
         "ru_maxrss over the timed passes", rss},
    };
    for (const Row& row : rows) {
      const MetricDef& d = metric_def(row.name);
      const Summary s = summarize(row.samples, d.higher_is_better);
      std::printf("  %-14s %-12.6g %-13s (%zu samples: median %.6g, q1 "
                  "%.6g, q3 %.6g)\n",
                  d.name, row.value, d.unit, s.n, s.median, s.q1, s.q3);
      metrics.emplace_back(d.name, value_json(row.value, d.unit));
      Json j = to_json(s, d.unit);
      j.set("value", row.value);
      j.set("estimator", row.estimator);
      j.set("samples", Json::Array(row.samples.begin(), row.samples.end()));
      detail.emplace_back(d.name, std::move(j));
    }
  } else {
    for (const auto& [name, value] : r.layers) {
      const MetricDef& d = metric_def(name);
      std::printf("  %-24s %-14.6g %s\n", d.name, value, d.unit);
      metrics.emplace_back(d.name, value_json(value, d.unit));
      detail.emplace_back(d.name, value_json(value, d.unit));
    }
  }
  const double fail_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) /
                            static_cast<double>(r.attempted)
                      : 1.0;
  std::printf("  %-14s %-12.6g (%llu of %llu checks failed)\n", "fail_frac",
              fail_frac, static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));

  Json::Object rec;
  rec.emplace_back("schema", kSchema);
  rec.emplace_back("workload", opt.workload);
  rec.emplace_back("seed", opt.seed);
  rec.emplace_back("seconds", opt.seconds);
  rec.emplace_back("trace", opt.trace);
  rec.emplace_back("quick", opt.quick);
  rec.emplace_back("env", env_block(r.passes));
  rec.emplace_back("correct", correct);
  rec.emplace_back("attempted", r.attempted);
  rec.emplace_back("failed", r.failed);
  rec.emplace_back("fail_frac", fail_frac);
  Json::Array gaps;
  for (const KnownGap& g : r.known_gaps) {
    gaps.push_back(Json::Object{
        {"check", g.check}, {"measured", g.measured}, {"limit", g.limit}});
  }
  rec.emplace_back("known_gaps", std::move(gaps));
  if (!opt.trace) {
    rec.emplace_back("rss_peak_reset_after_warmup", r.rss_reset);
    // Each item's fastest run and its share of their sum: where the
    // workload's time goes.
    double total = 0;
    for (const ItemCost& it : r.items) total += it.best_run_s;
    Json::Array items;
    for (const ItemCost& it : r.items) {
      items.push_back(Json::Object{{"name", it.name},
                                   {"sim_s", it.sim_s},
                                   {"best_run_s", it.best_run_s},
                                   {"wall_share", it.best_run_s / total}});
    }
    rec.emplace_back("items", std::move(items));
  }
  rec.emplace_back("metrics", std::move(detail));
  const std::string record = Json(std::move(rec)).dump();
  std::printf("record %s\n", record.c_str());
  if (!record_path.empty()) write_file(record_path, record);

  Json::Object result;
  result.emplace_back("correct", correct);
  result.emplace_back("attempted", r.attempted);
  result.emplace_back("failed", r.failed);
  result.emplace_back("metrics", std::move(metrics));
  std::printf("%s\n", Json(std::move(result)).dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --merge: one baseline file from several run records of one build — the
// records verbatim plus, per workload and metric, the summary over the
// runs' medians (traced values are single numbers per run).
int merge(const std::string& out_path, const std::vector<std::string>& ins) {
  if (ins.empty()) usage("--merge wants an output and at least one record");
  Json::Array runs;
  std::string sha;
  // Per-run values grouped by "workload/metric", in first-seen order.
  std::vector<std::string> keys;
  std::vector<std::vector<double>> values;
  for (const std::string& path : ins) {
    Json rec = Json::parse(read_file(path));
    const Json* quick = rec.find("quick");
    const Json* env = rec.find("env");
    const Json* workload = rec.find("workload");
    const Json* metrics = rec.find("metrics");
    if (!quick || !quick->is_bool() || !env || !env->find("git_sha") ||
        !workload || !workload->is_string() || !metrics ||
        !metrics->is_object()) {
      usage(path + " is not a ccstarve_bench record");
    }
    if (quick->as_bool()) usage(path + " is a --quick record; not merging it");
    const std::string this_sha = env->find("git_sha")->as_string();
    if (!sha.empty() && this_sha != sha) {
      usage(path + " comes from " + this_sha + ", not " + sha);
    }
    sha = this_sha;
    for (const auto& [name, m] : metrics->as_object()) {
      const Json* v = m.find("value");
      if (v == nullptr || !v->is_number()) continue;
      const std::string key = workload->as_string() + "/" + name;
      size_t k = 0;
      while (k < keys.size() && keys[k] != key) ++k;
      if (k == keys.size()) {
        keys.push_back(key);
        values.emplace_back();
      }
      values[k].push_back(v->as_number());
    }
    runs.push_back(std::move(rec));
  }
  Json::Object summary;
  for (size_t k = 0; k < keys.size(); ++k) {
    const std::string metric = keys[k].substr(keys[k].find('/') + 1);
    const MetricDef& d = metric_def(metric);
    summary.emplace_back(keys[k],
                         to_json(summarize(values[k], d.higher_is_better),
                                 d.unit));
  }
  Json env = *runs.front().find("env");
  for (auto& [k, v] : env.as_object()) {
    if (k == "reps") v = Json(static_cast<uint64_t>(runs.size()));
  }
  Json::Object out;
  out.emplace_back("schema", kSchema);
  out.emplace_back("kind", "baseline");
  out.emplace_back("quick", false);
  out.emplace_back("env", std::move(env));
  out.emplace_back("summary", std::move(summary));
  out.emplace_back("runs", std::move(runs));
  write_file(out_path, Json(std::move(out)).dump());
  std::printf("wrote %s (%zu runs)\n", out_path.c_str(), ins.size());
  return 0;
}

// --selftest: the shimmed topology against every committed digest, every
// workload's checks at --quick size (untraced and traced), the metric and
// workload names against BENCHMARK.json, and the committed results/*.json.
int selftest(const std::string& repo) {
  int failures = 0;
  const auto fail = [&failures](const std::string& what) {
    std::fprintf(stderr, "SELFTEST FAILED: %s\n", what.c_str());
    ++failures;
  };

  std::vector<std::string> notes;
  const size_t matched = check_topology_digests(repo, &notes);
  for (const std::string& n : notes) fail(n);
  const size_t want = ccstarve::golden::golden_specs().size();
  if (matched != want) {
    fail("topology reproduced " + std::to_string(matched) + " of " +
         std::to_string(want) + " committed digests");
  }
  std::printf("selftest: topology digests %zu/%zu\n", matched, want);

  Json bench;
  try {
    bench = Json::parse(read_file(repo + "/BENCHMARK.json"));
  } catch (const std::exception& e) {
    fail(std::string("BENCHMARK.json: ") + e.what());
  }
  const auto names_of = [&bench](const char* key) {
    std::vector<std::string> out;
    const Json* list = bench.find(key);
    if (list == nullptr || !list->is_array()) return out;
    for (const Json& e : list->as_array()) {
      const Json* name = e.find("name");
      std::string s = name && name->is_string() ? name->as_string() : "?";
      if (const Json* unit = e.find("unit")) {
        s += " [" + unit->as_string() + "]";
      }
      if (const Json* better = e.find("better")) {
        s += " " + better->as_string();
      }
      out.push_back(s);
    }
    return out;
  };
  const auto catalogue = [](const std::vector<MetricDef>& defs) {
    std::vector<std::string> out;
    for (const MetricDef& d : defs) {
      out.push_back(std::string(d.name) + " [" + d.unit + "] " +
                    (d.higher_is_better ? "higher" : "lower"));
    }
    return out;
  };
  if (names_of("workloads") != workload_names()) {
    fail("BENCHMARK.json workloads differ from ccstarve_bench's");
  }
  if (names_of("end_to_end") != catalogue(end_to_end_metrics())) {
    fail("BENCHMARK.json end_to_end metrics differ from ccstarve_bench's");
  }
  if (names_of("per_layer") != catalogue(per_layer_metrics())) {
    fail("BENCHMARK.json per_layer metrics differ from ccstarve_bench's");
  }

  for (const std::string& w : workload_names()) {
    for (const bool trace : {false, true}) {
      Options opt;
      opt.workload = w;
      opt.seed = 7;
      opt.seconds = 0;
      opt.trace = trace;
      opt.quick = true;
      opt.repo = repo;
      const WorkloadResult r = run_workload(opt);
      for (const std::string& n : r.failure_notes) fail(w + ": " + n);
      if (r.failed != 0 || r.attempted == 0) {
        fail(w + (trace ? " traced" : "") + ": " + std::to_string(r.failed) +
             " of " + std::to_string(r.attempted) + " checks failed");
      }
      if (!trace) {
        const bool ok = r.sim_per_wall > 0 && !r.setup_s.empty() &&
                        r.setup_s[0] > 0 && r.peak_rss_mb > 0;
        if (!ok) fail(w + ": an end-to-end metric is missing or zero");
      } else {
        std::vector<std::string> got;
        double shares = 0;
        for (const auto& [name, value] : r.layers) {
          got.push_back(name);
          if (name.size() > 6 && name.substr(name.size() - 6) == ".share") {
            shares += value;
          }
          if (!std::isfinite(value)) fail(w + ": " + name + " not finite");
        }
        std::vector<std::string> want_names;
        for (const MetricDef& d : per_layer_metrics()) {
          want_names.push_back(d.name);
        }
        if (got != want_names) fail(w + ": traced metric names differ");
        if (std::abs(shares - 1.0) > 0.01) {
          fail(w + ": layer shares sum to " + std::to_string(shares));
        }
      }
      std::printf("selftest: %-9s %-6s %llu checks, %llu failed\n", w.c_str(),
                  trace ? "traced" : "timed",
                  static_cast<unsigned long long>(r.attempted),
                  static_cast<unsigned long long>(r.failed));
    }
  }

  const std::filesystem::path results =
      std::filesystem::path(repo) / "perfbench" / "results";
  size_t files = 0;
  if (std::filesystem::is_directory(results)) {
    for (const auto& entry : std::filesystem::directory_iterator(results)) {
      if (entry.path().extension() != ".json") continue;
      ++files;
      const std::string name = entry.path().filename().string();
      try {
        const Json j = Json::parse(read_file(entry.path().string()));
        const Json* env = j.find("env");
        const Json* quick = j.find("quick");
        if (env == nullptr || !env->is_object() || !env->find("git_sha")) {
          fail("results/" + name + " has no env block");
        }
        if (quick == nullptr || !quick->is_bool() || quick->as_bool()) {
          fail("results/" + name + " is a quick (or unmarked) record");
        }
      } catch (const std::exception& e) {
        fail("results/" + name + ": " + e.what());
      }
    }
  }
  std::printf("selftest: %zu committed result files checked\n", files);
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ccbench

int main(int argc, char** argv) {
  using namespace ccbench;
  Options opt;
  std::string record_path;
  bool selftest_mode = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "--merge") {
    if (args.size() < 3) usage("--merge wants an output and records");
    try {
      return merge(args[1], std::vector<std::string>(args.begin() + 2,
                                                     args.end()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ccstarve_bench: %s\n", e.what());
      return 2;
    }
  }
  for (size_t i = 0; i < args.size(); ++i) {
    std::string flag = args[i];
    std::string value;
    const size_t eq = flag.find('=');
    const bool inline_value = eq != std::string::npos;
    if (inline_value) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    }
    const auto take = [&]() -> std::string {
      if (inline_value) return value;
      if (i + 1 >= args.size()) usage(flag + " wants a value");
      return args[++i];
    };
    if (flag == "--workload") {
      opt.workload = take();
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = parse_u64(flag, take());
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = parse_seconds(take());
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string v = take();
      if (v != "0" && v != "1") usage("--trace wants 0 or 1 (got '" + v + "')");
      opt.trace = v == "1";
      have_trace = true;
    } else if (flag == "--quick" && !inline_value) {
      opt.quick = true;
    } else if (flag == "--record") {
      record_path = take();
    } else if (flag == "--repo") {
      opt.repo = take();
    } else if (flag == "--selftest" && !inline_value) {
      selftest_mode = true;
    } else {
      usage("unknown argument '" + args[i] + "'");
    }
  }
  if (!std::filesystem::is_directory(opt.repo + "/tests/golden")) {
    usage("no tests/golden under --repo '" + opt.repo + "'");
  }
  try {
    if (selftest_mode) return selftest(opt.repo);
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
      usage("--workload, --seed, --seconds and --trace are all required");
    }
    const std::vector<std::string>& names = workload_names();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
      usage("unknown workload '" + opt.workload +
            "' (want paper, cohort10k, warp_hour or observed)");
    }
    return run(opt, record_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccstarve_bench: %s\n", e.what());
    return 1;
  }
}

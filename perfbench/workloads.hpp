// The benchmark's four workloads, their correctness checks, and the metric
// catalogue BENCHMARK.json mirrors.
//
//   paper      the 24 registry scenarios (golden::all_specs), detached
//   cohort10k  10,240 flows (copa/bbr/vegas/cubic x 64 start tranches x 40)
//   warp_hour  hour-scale runs through the warp engine (sim/warp)
//   observed   the paper inputs with every observer attached
//
// Each run builds its inputs from the seed alone, through the same spec
// grammar ccstarve_run and the sweep engine use, and never reads inputs
// from elsewhere; the golden digests under tests/golden are read only to
// check outputs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ccbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  // Smaller inputs for the self-test; a quick record is never a result.
  bool quick = false;
  // Repository root: tests/golden and BENCHMARK.json live under it.
  std::string repo = ".";
};

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
};
const std::vector<std::string>& workload_names();
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

// One item of a timed pass (a scenario, a warp case, a slice of simulated
// time) and its fastest run in the process.
struct ItemCost {
  std::string name;
  double sim_s = 0;
  double best_run_s = 0;
};

// A check that is known to fail at this commit. It is still evaluated and
// its measured value reported, but it does not count in attempted/failed:
// a run with a failed check exits non-zero and yields no measurement.
struct KnownGap {
  std::string check;
  double measured = 0;
  double limit = 0;
};

struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failure_notes;  // the first few, for stderr
  std::vector<KnownGap> known_gaps;        // one per distinct check
  uint64_t passes = 0;
  // Untraced runs. The headline sim_per_wall is computed from each item's
  // fastest run across the passes (see timed_passes); pass_sim_per_wall
  // keeps every pass's own value.
  double sim_per_wall = 0;
  std::string sim_per_wall_estimator;  // how the items' times are combined
  std::vector<double> pass_sim_per_wall;
  std::vector<ItemCost> items;
  std::vector<double> setup_s;  // setup samples; the metric is their median
  double peak_rss_mb = 0;
  bool rss_reset = false;  // high-water mark was reset after warm-up
  // Traced runs: every per-layer metric, in catalogue order.
  std::vector<std::pair<std::string, double>> layers;
};

// Throws std::invalid_argument for an unknown workload name.
WorkloadResult run_workload(const Options& opt);

// Runs the shimmed topology over the 21 committed golden specs and returns
// how many digests matched; failures are appended to `notes`.
size_t check_topology_digests(const std::string& repo,
                              std::vector<std::string>* notes);

}  // namespace ccbench

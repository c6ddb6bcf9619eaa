#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "bench_common.hpp"
#include "check/invariants.hpp"
#include "check/scenarios.hpp"
#include "core/fluid.hpp"
#include "obs/flight.hpp"
#include "obs/telemetry.hpp"
#include "sim/warp/warp.hpp"
#include "topology.hpp"
#include "util/rng.hpp"

namespace ccbench {

using namespace ccstarve;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> k = {"paper", "cohort10k",
                                             "warp_hour", "observed"};
  return k;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> k = {
      {"sim_per_wall", "sim-s/wall-s", true},
      {"setup_s", "s", false},
      {"peak_rss_mb", "MB", false},
  };
  return k;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> k = {
      {"sim.events", "count", false},
      {"sim.events_per_s", "1/s", true},
      {"sim.coalesced_frac", "frac", true},
      {"sim.far_frac", "frac", false},
      {"sim.replay_ns_per_event", "ns", false},
      {"sim.self_ns_per_event", "ns", false},
      {"sim.share", "frac", false},
      {"link.calls", "count", false},
      {"link.self_ns", "ns/call", false},
      {"link.share", "frac", false},
      {"link.drop_frac", "frac", false},
      {"path.calls", "count", false},
      {"path.self_ns", "ns/call", false},
      {"path.share", "frac", false},
      {"receiver.calls", "count", false},
      {"receiver.self_ns", "ns/call", false},
      {"receiver.share", "frac", false},
      {"sender.calls", "count", false},
      {"sender.self_ns", "ns/call", false},
      {"sender.share", "frac", false},
      {"sender.retx_frac", "frac", false},
      {"sender.rtos", "count", false},
      {"cc.calls", "count", false},
      {"cc.self_ns", "ns/call", false},
      {"cc.share", "frac", false},
      {"mem.rss_per_flow_kb", "KB", false},
      {"mem.setup_us_per_flow", "us", false},
      {"obs.telemetry_pct", "%", false},
      {"obs.flight_pct", "%", false},
      {"obs.check_pct", "%", false},
      {"obs.digest_pct", "%", false},
      {"obs.attach_frac", "frac", false},
      {"warp.attempts", "count", false},
      {"warp.warps", "count", true},
      {"warp.refusals", "count", false},
      {"warp.warped_frac", "frac", true},
      {"warp.packet_events", "count", false},
      {"warp.snapshot_ms", "ms", false},
      {"warp.fork_ms", "ms", false},
      {"warp.validate_ns", "ns/flow-step", false},
      {"warp.max_flow_err", "frac", false},
      {"trace.overhead_pct", "%", false},
      {"trace.topology_matched", "count", true},
  };
  return k;
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median_of(std::vector<double> v) {
  return v.empty() ? 0 : summarize(std::move(v), true).median;
}

double pct_over(double with, double without) {
  return without > 0 ? (with / without - 1.0) * 100.0 : 0;
}

// Counts every check against the run's totals; keeps the first few
// failure descriptions. `what` is only evaluated on failure.
class Checks {
 public:
  explicit Checks(WorkloadResult* r) : r_(r) {}
  template <typename Describe>
  bool expect(bool ok, Describe&& what) {
    ++r_->attempted;
    if (!ok) {
      ++r_->failed;
      if (r_->failure_notes.size() < 8) r_->failure_notes.push_back(what());
    }
    return ok;
  }
  // Evaluates a check known to fail (see KnownGap): recorded, never
  // counted. Later passes update the same entry.
  void known_gap(const std::string& check, double measured, double limit) {
    for (KnownGap& g : r_->known_gaps) {
      if (g.check == check) {
        g.measured = measured;
        return;
      }
    }
    r_->known_gaps.push_back({check, measured, limit});
  }

 private:
  WorkloadResult* r_;
};

// Wall time of one item (a scenario, a warp case) within one pass.
struct ItemTime {
  double setup = 0;   // build + attach
  double attach = 0;  // the attach part of setup
  double run = 0;     // run (+ telemetry finish / checker checkpoint)
};
using PassTimes = std::vector<ItemTime>;  // indexed by item

double total_run(const PassTimes& p) {
  double s = 0;
  for (const ItemTime& t : p) s += t.run;
  return s;
}

std::vector<double> runs_of(const PassTimes& p) {
  std::vector<double> out;
  for (const ItemTime& t : p) out.push_back(t.run);
  return out;
}

// Every item does bit-identical work in every pass (the checks hold each
// pass to the reference), so the spread of its run times is host
// interference alone, and interference only ever slows a run down. On a
// shared host it comes as stretches of 1.3-2x slowdown lasting seconds,
// which can cover most of a run; an item's fastest run discounts them, and
// the sum of the fastest runs is the cost of one pass.
class ItemBest {
 public:
  explicit ItemBest(size_t n)
      : best_(n, std::numeric_limits<double>::infinity()) {}
  void add(const PassTimes& p) {
    for (size_t i = 0; i < best_.size(); ++i) {
      best_[i] = std::min(best_[i], p[i].run);
    }
  }
  double sum() const {
    return std::accumulate(best_.begin(), best_.end(), 0.0);
  }
  const std::vector<double>& times() const { return best_; }

 private:
  std::vector<double> best_;
};

// How a workload turns its items' simulated seconds and run times into one
// sim_per_wall.
enum class Rate {
  // Sum over sum: the speed of running all the items, which is what a user
  // running the suite waits for.
  kTotal,
  // Geometric mean of the items' own speeds: each item weighs the same
  // whatever its speed. For items whose speeds differ by orders of
  // magnitude, where the sum would be the slowest item's speed alone.
  kGeometric,
};

double sim_rate(const std::vector<double>& sim_s,
                const std::vector<double>& run_s, Rate rate) {
  if (rate == Rate::kTotal) {
    return std::accumulate(sim_s.begin(), sim_s.end(), 0.0) /
           std::accumulate(run_s.begin(), run_s.end(), 0.0);
  }
  double log_sum = 0;
  for (size_t i = 0; i < sim_s.size(); ++i) {
    log_sum += std::log(sim_s[i] / run_s[i]);
  }
  return std::exp(log_sum / static_cast<double>(sim_s.size()));
}

// The headline sim_per_wall from each item's fastest run, and the items
// themselves for the record.
void set_headline(const std::vector<std::string>& names,
                  const std::vector<double>& sim_s, const ItemBest& best,
                  Rate rate, WorkloadResult* r) {
  r->sim_per_wall = sim_rate(sim_s, best.times(), rate);
  r->sim_per_wall_estimator =
      rate == Rate::kTotal
          ? "simulated seconds of all items / sum of each item's fastest "
            "run; samples are whole passes"
          : "geometric mean over items of simulated seconds / the item's "
            "fastest run; samples are whole passes";
  r->items.clear();
  for (size_t i = 0; i < names.size(); ++i) {
    r->items.push_back({names[i], sim_s[i], best.times()[i]});
  }
}

// A fresh seeded visiting order per pass: the run's seed decides the
// sequence in which the items meet the allocator and caches.
std::vector<size_t> seeded_order(size_t n, Rng& rng) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

std::vector<size_t> natural_order(size_t n) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  return order;
}

TimeNs end_of(const golden::GoldenSpec& spec) {
  return TimeNs::seconds(spec.duration_s);
}

// Runs timed passes over the specs until `seconds` of wall time have gone
// by (at least `min_passes`): one sim_per_wall and setup sample per pass,
// and the headline sim_per_wall from each item's fastest run.
template <typename Pass>  // PassTimes pass(const std::vector<size_t>& order)
void timed_passes(const Options& opt,
                  const std::vector<golden::GoldenSpec>& specs, Rate rate,
                  size_t min_passes, WorkloadResult* r, Pass&& pass) {
  std::vector<std::string> names;
  std::vector<double> sim_s;
  for (const golden::GoldenSpec& s : specs) {
    names.push_back(s.name);
    sim_s.push_back(s.duration_s);
  }
  Rng rng(opt.seed);
  ItemBest best(specs.size());
  const auto start = Clock::now();
  while (r->passes < min_passes || seconds_since(start) < opt.seconds) {
    const PassTimes t = pass(seeded_order(specs.size(), rng));
    best.add(t);
    double setup = 0;
    for (const ItemTime& it : t) setup += it.setup;
    r->pass_sim_per_wall.push_back(sim_rate(sim_s, runs_of(t), rate));
    r->setup_s.push_back(setup);
    ++r->passes;
  }
  set_headline(names, sim_s, best, rate, r);
}

void start_timed_phase(WorkloadResult* r) {
  trim_heap();
  r->rss_reset = reset_peak_rss();
}

// What one run of one scenario produced, for cross-run comparison.
struct Outcome {
  RunCounts counts;
  bool has_counts = false;  // false for the trace-link harness
  std::string digest;       // empty when no recorder was attached
  uint64_t records = 0;
};

Outcome outcome_of(Scenario& sc, const TraceRecorder* rec) {
  Outcome o;
  o.counts = counts_of(sc);
  o.has_counts = true;
  if (rec != nullptr) {
    o.digest = rec->digest_hex();
    o.records = rec->records();
  }
  return o;
}

Outcome outcome_of(const golden::GoldenResult& r) {
  Outcome o;
  o.counts.events = r.events;
  o.digest = r.digest_hex;
  o.records = r.records;
  return o;
}

bool same_run(const Outcome& a, const Outcome& b) {
  if (a.counts.events != b.counts.events) return false;
  if (!a.digest.empty() && !b.digest.empty() && a.digest != b.digest) {
    return false;
  }
  if (a.has_counts && b.has_counts &&
      (a.counts.sent != b.counts.sent ||
       a.counts.delivered != b.counts.delivered ||
       a.counts.drops != b.counts.drops)) {
    return false;
  }
  return true;
}

std::string describe(const Outcome& o) {
  std::string s = "events=" + std::to_string(o.counts.events);
  if (o.has_counts) {
    s += " sent=" + std::to_string(o.counts.sent) +
         " delivered=" + std::to_string(o.counts.delivered) +
         " drops=" + std::to_string(o.counts.drops);
  }
  if (!o.digest.empty()) s += " digest=" + o.digest;
  return s;
}

std::string mismatch(const std::string& what, const std::string& name,
                     const Outcome& got, const Outcome& want) {
  return what + " " + name + ": got " + describe(got) + ", want " +
         describe(want);
}

RunCounts sum_counts(const std::vector<Outcome>& outs) {
  RunCounts c;
  for (const Outcome& o : outs) {
    c.events += o.counts.events;
    c.coalesced += o.counts.coalesced;
    c.sent += o.counts.sent;
    c.new_segments += o.counts.new_segments;
    c.delivered += o.counts.delivered;
    c.drops += o.counts.drops;
    c.rtos += o.counts.rtos;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Replay: the workload's own schedule-delay stream through a bare Simulator
// (bench_simcore's replay, generalised to any captured stream), isolating
// the event loop's cost from everything the callbacks do.

// The wheel covers 4096 slots of 16.384 us; later schedules go to the far
// heap (sim/simulator.hpp).
constexpr int64_t kWheelHorizonNs = int64_t{4096} << 14;

struct ReplayPayload {
  unsigned char bytes[48];  // sized like a (sink, Packet) callback
};

struct ReplayChain {
  Simulator* sim;
  const std::vector<int64_t>* deltas;
  size_t* next;
  uint64_t* acc;
  ReplayPayload payload;

  void operator()() const {
    *acc += payload.bytes[0];
    if (*next >= deltas->size()) return;
    const int64_t d = (*deltas)[(*next)++];
    ReplayChain again = *this;
    again.payload.bytes[0] ^= static_cast<unsigned char>(d);
    sim->schedule_in(TimeNs::nanos(d), again);
  }
};

struct ReplayTotals {
  double seconds = 0;
  uint64_t events = 0;
  uint64_t schedules = 0;
  uint64_t far = 0;
};

// `pending` estimates the capture's concurrent event count; that many
// chains drain the stream so the replayed queue depth is realistic.
void replay(const std::vector<int64_t>& deltas, uint64_t pending,
            ReplayTotals* t) {
  t->schedules += deltas.size();
  for (const int64_t d : deltas) {
    if (d >= kWheelHorizonNs) ++t->far;
  }
  const uint64_t chains =
      std::clamp<uint64_t>(pending, 256, std::max<uint64_t>(deltas.size(), 1));
  Simulator sim;
  size_t next = 0;
  uint64_t acc = 0;
  const auto start = Clock::now();
  for (uint64_t c = 0; c < chains && next < deltas.size(); ++c) {
    ReplayChain chain{&sim, &deltas, &next, &acc, {}};
    chain.payload.bytes[0] = static_cast<unsigned char>(c);
    sim.schedule_in(TimeNs::nanos(deltas[next++]), chain);
  }
  uint64_t n = 0;
  while (sim.run_next()) ++n;
  t->seconds += seconds_since(start);
  t->events += n;
  if (acc == ~uint64_t{0}) std::fprintf(stderr, "replay checksum wrapped\n");
}

// ---------------------------------------------------------------------------
// Per-scenario probes, run outside any timed region: memory per flow, setup
// per flow, and the warp engine's snapshot / shift+fork / fluid-validation
// calls on the scenario's end state — on warp_hour, at each case's first
// warp point, with that warp's own delta and credits.

struct WarpPoint {
  TimeNs delta = TimeNs::zero();
  std::vector<uint64_t> credits;
};

struct Extras {
  double rss_kb = 0;
  double setup_s = 0;
  uint64_t flows = 0;
  double snapshot_ms = 0;
  double fork_ms = 0;
  double validate_s = 0;
  double validate_flow_steps = 0;
};

void probe_warp_calls(Scenario& sc, const WarpPoint& wp, Extras* x) {
  // The validation WarpRunner::attempt_warp performs: every started flow
  // with a fluid model, at its believed base RTT and its jitter boxes'
  // effective eta, integrated across the gap. Without a warp to take
  // (every workload but warp_hour) the modelled flows are integrated for
  // one second; the metric is per flow-step either way.
  const warp::WarpConfig wc;
  const TimeNs now = sc.sim().now();
  std::vector<FluidFlowSpec> flows;
  std::vector<double> w0;
  for (size_t i = 0; sc.has_bottleneck() && i < sc.flow_count(); ++i) {
    if (!sc.sender(i).started()) continue;
    auto model = warp::fluid_model_for(sc.sender(i).cca());
    if (!model) continue;
    FluidFlowSpec fs;
    fs.cca = std::move(model);
    fs.rm = sc.min_rtt(i);
    fs.eta = sc.data_box(i).policy().warp_caps(now).eta +
             sc.ack_box(i).policy().warp_caps(now).eta;
    flows.push_back(std::move(fs));
    w0.push_back(static_cast<double>(sc.flow_table().cwnd_bytes[i]));
  }
  const TimeNs horizon = wp.delta > TimeNs::zero()
                             ? ccstarve::min(wp.delta, wc.validation_horizon)
                             : TimeNs::seconds(1);

  constexpr int kReps = 3;
  std::vector<double> snap_ms, fork_ms, validate_s;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = Clock::now();
    ScenarioSnapshot snap = sc.snapshot();
    snap_ms.push_back(seconds_since(t0) * 1e3);
    t0 = Clock::now();
    warp::shift_snapshot(snap, wp.delta, wp.credits);
    std::unique_ptr<Scenario> forked = Scenario::fork(snap);
    fork_ms.push_back(seconds_since(t0) * 1e3);
    forked.reset();
    if (flows.empty()) continue;
    t0 = Clock::now();
    integrate_fluid(flows, sc.link().rate(), w0,
                    sc.link().queueing_delay().to_seconds(), horizon,
                    wc.fluid_dt);
    validate_s.push_back(seconds_since(t0));
  }
  x->snapshot_ms += median_of(snap_ms);
  x->fork_ms += median_of(fork_ms);
  if (!flows.empty()) {
    x->validate_s += median_of(validate_s);
    x->validate_flow_steps +=
        static_cast<double>(flows.size()) * (horizon / wc.fluid_dt);
  }
}

// ---------------------------------------------------------------------------
// Observers. A run attaches none, one, or all of them, the way ccstarve_run
// does: recorder first, then checker, telemetry (10 ms buckets, feeding the
// flight recorder's detector link), flight recorder (never-trigger: records
// without exporting).

enum class Attach { kNone, kRecorder, kTelemetry, kFlight, kChecker, kAll };

obs::FlightConfig never_trigger() {
  obs::FlightConfig fc;
  fc.trigger = obs::FlightTrigger::kNever;
  return fc;
}

struct Consumers {
  Consumers(Attach a, std::vector<int64_t>* deltas) {
    recorder = a == Attach::kRecorder || a == Attach::kAll;
    if (deltas != nullptr) rec.collect_schedule_deltas(deltas);
    if (a == Attach::kFlight || a == Attach::kAll) {
      flight.emplace(never_trigger());
    }
    if (a == Attach::kTelemetry || a == Attach::kAll) {
      obs::TelemetryConfig tc;
      tc.interval = TimeNs::millis(10);
      tc.flight = flight ? &*flight : nullptr;
      tele.emplace(std::move(tc));
    }
    if (a == Attach::kChecker || a == Attach::kAll) checker.emplace();
  }

  void attach(Scenario& sc) {
    if (recorder) sc.sim().set_tracer(&rec);
    if (checker) checker->attach(sc);
    if (tele) tele->attach(sc);
    if (flight) flight->attach(sc);
  }
  void finish(TimeNs end) {
    if (tele) tele->finish(end);
    if (checker) checker->checkpoint();
  }
  golden::GoldenResult run_trace_link(const golden::GoldenSpec& spec) {
    return golden::run_trace_link_golden(spec, checker ? &*checker : nullptr,
                                         tele ? &*tele : nullptr,
                                         flight ? &*flight : nullptr);
  }

  bool recorder = false;
  TraceRecorder rec;
  std::optional<obs::FlightRecorder> flight;
  std::optional<obs::FlowTelemetry> tele;
  std::optional<check::InvariantChecker> checker;
};

struct PassOpts {
  Attach attach = Attach::kNone;
  const std::vector<Outcome>* ref = nullptr;  // compare outcomes when set
  std::vector<Outcome>* outs = nullptr;       // collect outcomes (by index)
  ReplayTotals* replay = nullptr;  // capture + replay the schedule stream
  Extras* extras = nullptr;
  const std::vector<WarpPoint>* warp_points = nullptr;
  // Workload-specific checks on each finished Scenario.
  void (*check)(Scenario& sc, Checks& ck) = nullptr;
  const char* label = "pass";
};

// Runs spec `i` through the program's own factories (golden::build_golden /
// run_trace_link_golden). The trace-link harness builds, attaches its
// recorder and runs in one call, so all of its time counts as run time.
// Items share one heap, as the scenarios a sweep worker runs do: an item
// reuses the memory the one before it freed. (Starting each item from a
// trimmed heap, as a fresh process would, made page faults two thirds of
// set-up time, and their cost swung with the host's memory pressure.)
// Only the per-scenario probes trim, so their RSS deltas count live memory.
ItemTime scenario_run(const std::vector<golden::GoldenSpec>& specs, size_t i,
                      const PassOpts& po, Checks& ck) {
  const golden::GoldenSpec& spec = specs[i];
  ItemTime t;
  std::vector<int64_t> deltas;
  Consumers cons(po.attach,
                 po.replay != nullptr && !spec.trace_link ? &deltas : nullptr);
  Outcome out;
  if (po.extras != nullptr) trim_heap();
  if (spec.trace_link) {
    const auto t0 = Clock::now();
    out = outcome_of(cons.run_trace_link(spec));
    t.run = seconds_since(t0);
  } else {
    const double rss0 = po.extras != nullptr ? current_rss_mb() : 0;
    const auto t0 = Clock::now();
    std::unique_ptr<Scenario> sc = golden::build_golden(spec);
    const auto t1 = Clock::now();
    cons.attach(*sc);
    const auto t2 = Clock::now();
    sc->run_until(end_of(spec));
    cons.finish(end_of(spec));
    const auto t3 = Clock::now();
    t.attach = seconds_between(t1, t2);
    t.setup = seconds_between(t0, t1) + t.attach;
    t.run = seconds_between(t2, t3);
    out = outcome_of(*sc, cons.recorder ? &cons.rec : nullptr);
    if (po.check != nullptr) po.check(*sc, ck);
    if (po.replay != nullptr) {
      const uint64_t settled = out.counts.events + out.counts.coalesced;
      replay(deltas, deltas.size() > settled ? deltas.size() - settled : 0,
             po.replay);
    }
    if (po.extras != nullptr) {
      Extras& x = *po.extras;
      x.rss_kb += (current_rss_mb() - rss0) * 1024.0;
      x.setup_s += seconds_between(t0, t1);
      x.flows += sc->flow_count();
      probe_warp_calls(*sc, po.warp_points ? (*po.warp_points)[i] : WarpPoint{},
                       po.extras);
    }
  }
  if (cons.checker) {
    ck.expect(cons.checker->ok(), [&] {
      return std::string(po.label) + " " + spec.name +
             ": invariant violations: " + cons.checker->report(2);
    });
  }
  if (po.ref != nullptr) {
    ck.expect(same_run(out, (*po.ref)[i]), [&] {
      return mismatch(po.label, spec.name, out, (*po.ref)[i]);
    });
  }
  if (po.outs != nullptr) (*po.outs)[i] = std::move(out);
  return t;
}

PassTimes scenario_pass(const std::vector<golden::GoldenSpec>& specs,
                        const std::vector<size_t>& order, const PassOpts& po,
                        Checks& ck) {
  if (po.outs != nullptr) po.outs->assign(specs.size(), Outcome{});
  PassTimes t(specs.size());
  for (const size_t i : order) t[i] = scenario_run(specs, i, po, ck);
  return t;
}

// One pass of the shimmed topology, spans accumulating on `clock`.
PassTimes topology_pass(const std::vector<golden::GoldenSpec>& specs,
                        SpanClock& clock, bool record,
                        std::vector<Outcome>* outs) {
  PassTimes t(specs.size());
  outs->assign(specs.size(), Outcome{});
  for (size_t i = 0; i < specs.size(); ++i) {
    const golden::GoldenSpec& spec = specs[i];
    TraceRecorder rec;
    TracedTopology topo(spec, clock, record ? &rec : nullptr);
    const double before = clock.wall_ns();
    topo.run_until(end_of(spec));
    t[i].run = (clock.wall_ns() - before) * 1e-9;
    Outcome& o = (*outs)[i];
    o.counts = topo.counts();
    o.has_counts = !spec.trace_link;
    if (record) {
      o.digest = rec.digest_hex();
      o.records = rec.records();
    }
  }
  return t;
}

std::string committed_digest(const std::string& repo, const std::string& name) {
  std::ifstream in(repo + "/tests/golden/" + name + ".digest");
  std::string tok;
  if (!(in >> tok) || tok.rfind("fnv1a64=", 0) != 0) return "";
  return tok.substr(8);
}

// Checks each golden spec's digest in `outs` (parallel to `specs`) against
// tests/golden; specs without a committed digest (the bench_specs rows)
// are skipped. Returns the number that matched.
size_t check_committed(const std::string& repo,
                       const std::vector<golden::GoldenSpec>& specs,
                       const std::vector<Outcome>& outs, const char* label,
                       Checks& ck) {
  size_t matched = 0;
  for (const golden::GoldenSpec& g : golden::golden_specs()) {
    const std::string want = committed_digest(repo, g.name);
    for (size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].name != g.name) continue;
      const bool ok = !want.empty() && outs[i].digest == want;
      ck.expect(ok, [&] {
        return std::string(label) + " " + g.name + ": digest " +
               outs[i].digest + " vs committed " +
               (want.empty() ? "<missing>" : want);
      });
      matched += ok ? 1 : 0;
    }
  }
  return matched;
}

// The 24 registry scenarios at their registry seeds; --quick quarters the
// durations.
std::vector<golden::GoldenSpec> registry_specs(bool quick) {
  std::vector<golden::GoldenSpec> specs = golden::all_specs();
  if (quick) {
    for (golden::GoldenSpec& s : specs) s.duration_s /= 4;
  }
  return specs;
}

// ---------------------------------------------------------------------------
// Traced runs: everything the per-layer table needs, gathered per workload
// and turned into metrics in one place.

struct Traced {
  std::vector<PassTimes> detached;  // per round
  std::vector<PassTimes> topology;  // per round
  std::vector<SpanClock> clocks;    // per round
  RunCounts counts;                 // of one topology pass
  uint64_t records = 0;
  ReplayTotals replay;
  Extras extras;
  double telemetry_pct = 0, flight_pct = 0, check_pct = 0, digest_pct = 0;
  double attach_frac = 0;
  warp::WarpStats warp;
  double warped_frac = 0;
  uint64_t warp_packet_events = 0;
  double max_flow_err = 0;
  uint64_t topology_matched = 0;

  double detached_cost() const { return best_cost(detached); }
  // Sum over items of each item's fastest run across `rounds`.
  static double best_cost(const std::vector<PassTimes>& rounds) {
    if (rounds.empty()) return 0;
    ItemBest m(rounds.front().size());
    for (const PassTimes& p : rounds) m.add(p);
    return m.sum();
  }
};

// The share of setup spent attaching observers, median over `rounds`.
double attach_share(const std::vector<PassTimes>& rounds) {
  std::vector<double> attach, setup;
  for (const PassTimes& p : rounds) {
    double a = 0, s = 0;
    for (const ItemTime& t : p) {
      a += t.attach;
      s += t.setup;
    }
    attach.push_back(a);
    setup.push_back(s);
  }
  const double total = median_of(setup);
  return total > 0 ? median_of(attach) / total : 0;
}

// Alternates detached passes with shimmed-topology passes `rounds` times,
// so interference hits both sides alike, and checks that every topology
// run reproduces the detached one.
void detached_vs_topology(const std::vector<golden::GoldenSpec>& specs,
                          int rounds, Checks& ck, Traced* tr,
                          void (*check)(Scenario&, Checks&) = nullptr) {
  const std::vector<size_t> order = natural_order(specs.size());
  for (int round = 0; round < rounds; ++round) {
    std::vector<Outcome> detached;
    PassOpts po;
    po.outs = &detached;
    po.check = check;
    po.label = "detached";
    tr->detached.push_back(scenario_pass(specs, order, po, ck));

    tr->clocks.emplace_back();
    std::vector<Outcome> topo;
    tr->topology.push_back(
        topology_pass(specs, tr->clocks.back(), false, &topo));
    for (size_t i = 0; i < specs.size(); ++i) {
      const bool ok = same_run(topo[i], detached[i]);
      ck.expect(ok, [&] {
        return mismatch("topology", specs[i].name, topo[i], detached[i]);
      });
      if (round == 0 && ok) ++tr->topology_matched;
    }
    if (round == 0) tr->counts = sum_counts(topo);
  }
}

// The per-scenario probes in a pass of their own.
void extras_pass(const std::vector<golden::GoldenSpec>& specs,
                 const std::vector<WarpPoint>* warp_points, Checks& ck,
                 Traced* tr) {
  PassOpts po;
  po.extras = &tr->extras;
  po.warp_points = warp_points;
  po.label = "probe";
  scenario_pass(specs, natural_order(specs.size()), po, ck);
}

// `rounds` recorded passes: the first also captures and replays every
// scenario's schedule stream. Returns the best-of recorded cost.
double recorded_passes(const std::vector<golden::GoldenSpec>& specs,
                       int rounds, Checks& ck, Traced* tr) {
  std::vector<PassTimes> times;
  for (int round = 0; round < rounds; ++round) {
    std::vector<Outcome> outs;
    PassOpts po;
    po.attach = Attach::kRecorder;
    po.outs = &outs;
    po.replay = round == 0 ? &tr->replay : nullptr;
    po.label = "recorded";
    times.push_back(scenario_pass(specs, natural_order(specs.size()), po, ck));
    if (round == 0) {
      for (const Outcome& o : outs) tr->records += o.records;
    }
  }
  return Traced::best_cost(times);
}

// The shimmed topology with a recorder, against reference digests.
std::vector<Outcome> topology_digests(
    const std::vector<golden::GoldenSpec>& specs,
    const std::vector<Outcome>& ref, Checks& ck, Traced* tr) {
  SpanClock scratch;
  std::vector<Outcome> outs;
  topology_pass(specs, scratch, true, &outs);
  for (size_t i = 0; i < specs.size(); ++i) {
    const bool ok = same_run(outs[i], ref[i]);
    ck.expect(ok, [&] {
      return mismatch("topology digest", specs[i].name, outs[i], ref[i]);
    });
    tr->topology_matched += ok ? 1 : 0;
  }
  return outs;
}

std::vector<std::pair<std::string, double>> layer_metrics(const Traced& tr) {
  std::map<std::string, double> m;
  // The layer split comes from the fastest topology round.
  const auto fastest = std::min_element(
      tr.topology.begin(), tr.topology.end(),
      [](const PassTimes& a, const PassTimes& b) {
        return total_run(a) < total_run(b);
      });
  const SpanClock& clock = tr.clocks[fastest - tr.topology.begin()];
  const RunCounts& c = tr.counts;
  const double wall_ns = clock.wall_ns();
  for (const Layer l : kLayers) {
    const std::string n = layer_name(l);
    m[n + ".share"] = wall_ns > 0 ? clock.self_ns(l) / wall_ns : 0;
    if (l == Layer::kSim) continue;
    const double calls = static_cast<double>(clock.calls(l));
    m[n + ".calls"] = calls;
    m[n + ".self_ns"] = calls > 0 ? clock.self_ns(l) / calls : 0;
  }
  const double events = static_cast<double>(c.events);
  const double detached = tr.detached_cost();
  m["sim.events"] = events;
  m["sim.events_per_s"] = detached > 0 ? events / detached : 0;
  m["sim.coalesced_frac"] =
      c.events + c.coalesced > 0
          ? static_cast<double>(c.coalesced) /
                static_cast<double>(c.events + c.coalesced)
          : 0;
  m["sim.far_frac"] = tr.replay.schedules > 0
                          ? static_cast<double>(tr.replay.far) /
                                static_cast<double>(tr.replay.schedules)
                          : 0;
  m["sim.replay_ns_per_event"] =
      tr.replay.events > 0
          ? tr.replay.seconds * 1e9 / static_cast<double>(tr.replay.events)
          : 0;
  m["sim.self_ns_per_event"] =
      events > 0 ? clock.self_ns(Layer::kSim) / events : 0;
  const double sent = static_cast<double>(c.sent);
  m["link.drop_frac"] = sent > 0 ? static_cast<double>(c.drops) / sent : 0;
  m["sender.retx_frac"] =
      sent > 0 ? static_cast<double>(c.sent - c.new_segments) / sent : 0;
  m["sender.rtos"] = static_cast<double>(c.rtos);
  const double flows = static_cast<double>(tr.extras.flows);
  m["mem.rss_per_flow_kb"] = flows > 0 ? tr.extras.rss_kb / flows : 0;
  m["mem.setup_us_per_flow"] = flows > 0 ? tr.extras.setup_s * 1e6 / flows : 0;
  m["obs.telemetry_pct"] = tr.telemetry_pct;
  m["obs.flight_pct"] = tr.flight_pct;
  m["obs.check_pct"] = tr.check_pct;
  m["obs.digest_pct"] = tr.digest_pct;
  m["obs.attach_frac"] = tr.attach_frac;
  m["warp.attempts"] = static_cast<double>(tr.warp.attempts);
  m["warp.warps"] = static_cast<double>(tr.warp.warps);
  m["warp.refusals"] = static_cast<double>(tr.warp.refusals());
  m["warp.warped_frac"] = tr.warped_frac;
  m["warp.packet_events"] = static_cast<double>(
      tr.warp_packet_events > 0 ? tr.warp_packet_events : tr.records);
  m["warp.snapshot_ms"] = tr.extras.snapshot_ms;
  m["warp.fork_ms"] = tr.extras.fork_ms;
  m["warp.validate_ns"] =
      tr.extras.validate_flow_steps > 0
          ? tr.extras.validate_s * 1e9 / tr.extras.validate_flow_steps
          : 0;
  m["warp.max_flow_err"] = tr.max_flow_err;
  m["trace.overhead_pct"] =
      pct_over(Traced::best_cost(tr.topology), detached);
  m["trace.topology_matched"] = static_cast<double>(tr.topology_matched);

  std::vector<std::pair<std::string, double>> out;
  for (const MetricDef& d : per_layer_metrics()) {
    const auto it = m.find(d.name);
    if (it == m.end()) {
      throw std::logic_error(std::string("per-layer metric not computed: ") +
                             d.name);
    }
    out.emplace_back(d.name, it->second);
  }
  return out;
}

// ---------------------------------------------------------------------------
// paper / observed

WorkloadResult run_registry(const Options& opt, bool observed) {
  WorkloadResult r;
  Checks ck(&r);
  const std::vector<golden::GoldenSpec> specs = registry_specs(opt.quick);

  // Untimed warm-up: a recorded pass, the reference every later pass must
  // reproduce, itself held to the committed digests at full length.
  std::vector<Outcome> ref;
  PassOpts rp;
  rp.attach = Attach::kRecorder;
  rp.outs = &ref;
  rp.label = "reference";
  scenario_pass(specs, natural_order(specs.size()), rp, ck);
  if (!opt.quick) check_committed(opt.repo, specs, ref, "reference", ck);

  if (!opt.trace) {
    start_timed_phase(&r);
    PassOpts po;
    po.attach = observed ? Attach::kAll : Attach::kNone;
    po.ref = &ref;
    po.label = observed ? "observed" : "detached";
    timed_passes(opt, specs, Rate::kTotal, opt.quick ? 1 : 3, &r,
                 [&](const std::vector<size_t>& order) {
                   return scenario_pass(specs, order, po, ck);
                 });
    r.peak_rss_mb = peak_rss_mb();
    return r;
  }

  Traced tr;
  const int rounds = opt.quick ? 1 : 4;
  detached_vs_topology(specs, rounds, ck, &tr);
  extras_pass(specs, nullptr, ck, &tr);
  tr.digest_pct =
      pct_over(recorded_passes(specs, rounds, ck, &tr), tr.detached_cost());
  const std::vector<Outcome> topo = topology_digests(specs, ref, ck, &tr);
  // The topology's digests also answer to tests/golden directly.
  if (!opt.quick) {
    check_committed(opt.repo, specs, topo, "topology", ck);
  } else {
    std::vector<std::string> notes;
    check_topology_digests(opt.repo, &notes);
    for (const std::string& n : notes) ck.expect(false, [&] { return n; });
  }
  if (observed) {
    // Each consumer alone, and all together (the observed workload itself),
    // against the detached passes.
    std::map<Attach, std::vector<PassTimes>> with;
    for (int round = 0; round < rounds; ++round) {
      for (const Attach a : {Attach::kTelemetry, Attach::kFlight,
                             Attach::kChecker, Attach::kAll}) {
        PassOpts po;
        po.attach = a;
        po.ref = &ref;
        po.label = "observer";
        with[a].push_back(
            scenario_pass(specs, natural_order(specs.size()), po, ck));
      }
    }
    const double base = tr.detached_cost();
    const auto cost = [&with](Attach a) {
      return Traced::best_cost(with[a]);
    };
    tr.telemetry_pct = pct_over(cost(Attach::kTelemetry), base);
    tr.flight_pct = pct_over(cost(Attach::kFlight), base);
    tr.check_pct = pct_over(cost(Attach::kChecker), base);
    tr.attach_frac = attach_share(with[Attach::kAll]);
  }
  r.layers = layer_metrics(tr);
  r.passes = static_cast<uint64_t>(rounds);
  return r;
}

// ---------------------------------------------------------------------------
// cohort10k

// 10,240 flows: copa/bbr/vegas/cubic x 64 start tranches across [0, 0.5) s
// x 40 flows each, 1 Mbit/s of fair share per flow, 40 ms RTT, 2 BDP of
// drop-tail buffer, 1.5 sim-s (every flow runs for at least 1 s), no
// observers. The seed picks each tranche's offset inside its slot and the
// order its four CCA cohorts are added (and so their flow ids).
golden::GoldenSpec cohort_spec(uint64_t seed, bool quick) {
  const int tranches = quick ? 16 : 64;
  const int per_cca = quick ? 10 : 40;
  const char* const kCcas[4] = {"copa", "bbr", "vegas", "cubic"};
  Rng rng(seed);
  const double width = 0.5 / tranches;
  std::string set;
  for (int k = 0; k < tranches; ++k) {
    // Microsecond-quantized so the spec text carries the exact start.
    const double offset = std::floor(rng.uniform(0, width) * 1e6) / 1e6;
    std::array<int, 4> order = {0, 1, 2, 3};
    for (int i = 3; i > 0; --i) {
      std::swap(order[i], order[rng.next_below(static_cast<uint64_t>(i) + 1)]);
    }
    for (const int c : order) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s:start=%.6f*%d", kCcas[c],
                    k * width + offset, per_cca);
      if (!set.empty()) set += '+';
      set += buf;
    }
  }
  golden::GoldenSpec spec;
  spec.name = "cohort10k";
  spec.flow_set = set;
  spec.link_mbps = tranches * 4 * per_cca;
  spec.rtt_ms = 40;
  spec.buffer = "2bdp";
  spec.seed = seed;
  spec.duration_s = quick ? 1.0 : 1.5;
  return spec;
}

// Every flow's FlowTable inflight equals its scoreboard's bytes, and every
// segment sent reached the bottleneck and was dropped, delivered or is
// still queued (no loss gates, no prefill, no probes in this workload).
void check_cohort(Scenario& sc, Checks& ck) {
  const FlowTable& t = sc.flow_table();
  uint64_t sent = 0;
  for (size_t i = 0; i < sc.flow_count(); ++i) {
    sent += t.packets_sent[i];
    ck.expect(t.inflight_bytes[i] == sc.sender(i).scoreboard_bytes(), [&] {
      return "cohort flow " + std::to_string(i) + ": inflight " +
             std::to_string(t.inflight_bytes[i]) + " != scoreboard " +
             std::to_string(sc.sender(i).scoreboard_bytes());
    });
  }
  const BottleneckLink& link = sc.link();
  const uint64_t accounted =
      link.drops() + link.delivered_packets() + link.queue().size();
  ck.expect(sent == accounted, [&] {
    return "cohort conservation: sent " + std::to_string(sent) +
           " != dropped+delivered+queued " + std::to_string(accounted);
  });
}

WorkloadResult run_cohort(const Options& opt) {
  WorkloadResult r;
  Checks ck(&r);
  const golden::GoldenSpec spec = cohort_spec(opt.seed, opt.quick);
  const std::vector<golden::GoldenSpec> specs = {spec};

  if (!opt.trace) {
    start_timed_phase(&r);
    // One scenario, so the items of the fastest-run rule are slices of
    // simulated time: run_until in fixed steps does the same work in every
    // pass (the outcome check holds passes to each other). A pass is long
    // next to the build, so each pass builds the cohort several times
    // (keeping the last) and every build is a setup sample.
    const int builds = opt.quick ? 2 : 3;
    constexpr size_t kSlices = 30;
    std::vector<std::string> names;
    const std::vector<double> sim_s(kSlices, spec.duration_s / kSlices);
    for (size_t k = 0; k < kSlices; ++k) {
      names.push_back("slice" + std::to_string(k));
    }
    ItemBest best(kSlices);
    const auto start = Clock::now();
    Outcome first;
    while (r.passes < (opt.quick ? 1u : 3u) ||
           seconds_since(start) < opt.seconds) {
      std::unique_ptr<Scenario> sc;
      for (int b = 0; b < builds; ++b) {
        sc.reset();
        const auto t0 = Clock::now();
        sc = golden::build_golden(spec);
        r.setup_s.push_back(seconds_since(t0));
      }
      PassTimes t(kSlices);
      for (size_t k = 0; k < kSlices; ++k) {
        const auto t0 = Clock::now();
        sc->run_until(TimeNs::seconds(spec.duration_s * (k + 1) / kSlices));
        t[k].run = seconds_since(t0);
      }
      best.add(t);
      r.pass_sim_per_wall.push_back(sim_rate(sim_s, runs_of(t), Rate::kTotal));
      check_cohort(*sc, ck);
      const Outcome out = outcome_of(*sc, nullptr);
      if (r.passes == 0) first = out;
      ck.expect(same_run(out, first),
                [&] { return mismatch("cohort pass", spec.name, out, first); });
      ++r.passes;
    }
    set_headline(names, sim_s, best, Rate::kTotal, &r);
    r.peak_rss_mb = peak_rss_mb();
    return r;
  }

  Traced tr;
  const int rounds = opt.quick ? 1 : 2;
  // The probe pass first: it also warms the heap, so no timed pass pays
  // for first touching the cohort's memory.
  extras_pass(specs, nullptr, ck, &tr);
  detached_vs_topology(specs, rounds, ck, &tr, check_cohort);
  tr.digest_pct =
      pct_over(recorded_passes(specs, rounds, ck, &tr), tr.detached_cost());
  r.layers = layer_metrics(tr);
  r.passes = static_cast<uint64_t>(rounds);
  return r;
}

// ---------------------------------------------------------------------------
// warp_hour

// bench_warp's hour-scale cases at its 48 Mbit/s, 40 ms geometry.
// All five of its cases. bbr_duo_equilibrium's per-flow error (27%) is
// over the 20% bound (ROADMAP item 3): that check is a known gap, and the
// case is held to every other check.
struct WarpCaseDef {
  const char* name;
  const char* flow_set;
  bool per_flow_gap = false;
};
constexpr WarpCaseDef kWarpCases[] = {
    {"vegas_duo_equilibrium", "vegas+vegas"},
    {"vegas_step_starvation", "vegas:datajitter=step:30,60+vegas"},
    {"copa_duo_equilibrium", "copa+copa"},
    {"bbr_duo_equilibrium", "bbr+bbr", true},
    // Refused by the engine around the step, then a limit cycle it must
    // keep packet-simulating: the honesty case.
    {"copa_step_limit_cycle", "copa+copa:datajitter=step:30,60"},
};

bool per_flow_gap(const std::string& name) {
  for (const WarpCaseDef& c : kWarpCases) {
    if (name == c.name) return c.per_flow_gap;
  }
  return false;
}

std::vector<golden::GoldenSpec> warp_specs(bool quick) {
  std::vector<golden::GoldenSpec> specs;
  for (const WarpCaseDef& c : kWarpCases) {
    golden::GoldenSpec s;
    s.name = c.name;
    s.flow_set = c.flow_set;
    s.link_mbps = 48;
    s.rtt_ms = 40;
    s.duration_s = quick ? 300 : 3600;
    specs.push_back(std::move(s));
  }
  return specs;
}

struct WarpOutcome {
  std::vector<double> mbps;  // per-flow throughput over the whole horizon
  bool starved = false;      // the telemetry detector ever crossed
  warp::WarpStats stats;
  bool warped = false;
  TimeNs first_from = TimeNs::zero();
  WarpPoint first;
  uint64_t records = 0;
};

void read_throughputs(const Scenario& sc, TimeNs end, WarpOutcome* o) {
  for (size_t i = 0; i < sc.flow_count(); ++i) {
    o->mbps.push_back(sc.throughput(i, TimeNs::zero(), end).to_mbps());
  }
}

// The pure packet reference (untimed), as bench_warp computes it.
WarpOutcome pure_run(const golden::GoldenSpec& spec) {
  WarpOutcome o;
  auto sc = golden::build_golden(spec);
  obs::FlowTelemetry tele;
  tele.attach(*sc);
  sc->run_until(end_of(spec));
  tele.finish(end_of(spec));
  o.starved = tele.starvation().first_crossing() != TimeNs(-1);
  read_throughputs(*sc, end_of(spec), &o);
  return o;
}

// The pure packet references take longer than the timed passes (five
// hour-long packet runs: 25-60 s on the 4-vCPU VM the README describes)
// and depend only on the fixed inputs and the program. The first run of a
// build computes them and writes them beside the executable; later runs of
// the same executable read them back. The key is the executable's size and
// modification time plus the case list; on any mismatch or parse error
// they are computed again.
std::vector<WarpOutcome> warp_references(
    const std::vector<golden::GoldenSpec>& specs) {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  std::string key;
  std::filesystem::path cache;
  if (!ec) {
    key = std::to_string(std::filesystem::file_size(exe, ec)) + "@" +
          std::to_string(std::filesystem::last_write_time(exe, ec)
                             .time_since_epoch()
                             .count());
    for (const golden::GoldenSpec& s : specs) {
      key += "|" + s.name + "@" + std::to_string(s.duration_s);
    }
    // One file per horizon, so --quick runs keep their own.
    cache = exe.parent_path() /
            ("warp_refs_" + std::to_string(std::lround(specs[0].duration_s)) +
             "s.json");
  }
  if (!ec) {
    try {
      const Json j = Json::parse(read_file(cache.string()));
      const Json* k = j.find("key");
      const Json* cases = j.find("cases");
      if (k != nullptr && k->is_string() && k->as_string() == key &&
          cases != nullptr && cases->is_array()) {
        std::vector<WarpOutcome> refs;
        for (const Json& c : cases->as_array()) {
          const Json* starved = c.find("starved");
          const Json* mbps = c.find("mbps");
          if (starved == nullptr || mbps == nullptr) break;
          WarpOutcome o;
          o.starved = starved->as_bool();
          for (const Json& v : mbps->as_array()) {
            o.mbps.push_back(v.as_number());
          }
          refs.push_back(std::move(o));
        }
        if (refs.size() == specs.size()) return refs;
      }
    } catch (const std::exception&) {
      // Missing, unreadable or mistyped: computed below.
    }
  }
  std::vector<WarpOutcome> refs;
  Json::Array cases;
  for (const golden::GoldenSpec& s : specs) {
    refs.push_back(pure_run(s));
    const std::vector<double>& mbps = refs.back().mbps;
    cases.push_back(Json::Object{
        {"starved", refs.back().starved},
        {"mbps", Json::Array(mbps.begin(), mbps.end())}});
  }
  if (!ec) {
    std::ofstream(cache, std::ios::trunc)
        << Json(Json::Object{{"key", key}, {"cases", std::move(cases)}}).dump()
        << "\n";
  }
  return refs;
}

// One hybrid run, optionally with the telemetry probe (which the verdict
// needs) and a recorder (carried across forks by the runner).
WarpOutcome hybrid_run(const golden::GoldenSpec& spec, bool telemetry,
                       bool record, ItemTime* t) {
  WarpOutcome o;
  TraceRecorder rec;
  obs::FlowTelemetry tele;
  const auto t0 = Clock::now();
  std::unique_ptr<Scenario> sc = golden::build_golden(spec);
  const auto t1 = Clock::now();
  if (telemetry) tele.attach(*sc);
  if (record) sc->sim().set_tracer(&rec);
  warp::WarpRunner runner(std::move(sc), warp::WarpConfig{});
  runner.on_fork = [&](Scenario& fsc, TimeNs from, TimeNs to,
                       const std::vector<uint64_t>& credits) {
    if (telemetry) tele.note_warp(fsc, from, to, credits);
    if (!o.warped) {
      o.warped = true;
      o.first_from = from;
      o.first.delta = to - from;
      o.first.credits = credits;
    }
  };
  const auto t2 = Clock::now();
  runner.run_until(end_of(spec));
  if (telemetry) tele.finish(end_of(spec));
  const auto t3 = Clock::now();
  t->setup = seconds_between(t0, t2);
  t->attach = seconds_between(t1, t2);
  t->run = seconds_between(t2, t3);
  o.stats = runner.stats();
  o.starved = telemetry && tele.starvation().first_crossing() != TimeNs(-1);
  o.records = rec.records();
  read_throughputs(runner.scenario(), end_of(spec), &o);
  return o;
}

// Verdict match, per-flow error <= 20% (a known gap on the cases marked
// so) and aggregate error <= 5% against the pure packet reference, plus
// bit-identical throughputs across passes. Returns the largest per-flow
// error.
double check_warp(const golden::GoldenSpec& spec, const WarpOutcome& h,
                  const WarpOutcome& ref, const WarpOutcome* first,
                  Checks& ck) {
  double max_err = 0, pure_sum = 0, hybrid_sum = 0;
  for (size_t i = 0; i < ref.mbps.size(); ++i) {
    max_err = std::max(max_err, std::abs(h.mbps[i] - ref.mbps[i]) /
                                    std::max(ref.mbps[i], 1e-9));
    pure_sum += ref.mbps[i];
    hybrid_sum += h.mbps[i];
  }
  const double agg_err =
      std::abs(hybrid_sum - pure_sum) / std::max(pure_sum, 1e-9);
  ck.expect(h.starved == ref.starved, [&] {
    return spec.name + ": hybrid verdict " +
           (h.starved ? "starved" : "fair") + " vs pure " +
           (ref.starved ? "starved" : "fair");
  });
  if (per_flow_gap(spec.name)) {
    ck.known_gap(spec.name + ": per-flow throughput error", max_err, 0.20);
  } else {
    ck.expect(max_err <= 0.20, [&] {
      return spec.name + ": per-flow throughput error " +
             std::to_string(max_err) + " > 0.20";
    });
  }
  ck.expect(agg_err <= 0.05, [&] {
    return spec.name + ": aggregate throughput error " +
           std::to_string(agg_err) + " > 0.05";
  });
  if (first != nullptr) {
    ck.expect(h.mbps == first->mbps, [&] {
      return spec.name + ": throughputs differ between passes";
    });
  }
  return max_err;
}

WorkloadResult run_warp(const Options& opt) {
  WorkloadResult r;
  Checks ck(&r);
  const std::vector<golden::GoldenSpec> specs = warp_specs(opt.quick);
  const std::vector<WarpOutcome> refs = warp_references(specs);

  // Hybrid passes with telemetry attached (the verdict needs it): checked
  // against the references, and the first pass kept for determinism.
  std::vector<WarpOutcome> first(specs.size());
  std::vector<bool> seen(specs.size(), false);
  double max_err = 0;
  const auto hybrid_pass = [&](const std::vector<size_t>& order) {
    PassTimes t(specs.size());
    for (const size_t i : order) {
      WarpOutcome h = hybrid_run(specs[i], true, false, &t[i]);
      max_err = std::max(max_err, check_warp(specs[i], h, refs[i],
                                             seen[i] ? &first[i] : nullptr,
                                             ck));
      if (!seen[i]) {
        first[i] = std::move(h);
        seen[i] = true;
      }
    }
    return t;
  };

  if (!opt.trace) {
    start_timed_phase(&r);
    timed_passes(opt, specs, Rate::kGeometric, opt.quick ? 1 : 3, &r,
                 hybrid_pass);
    r.peak_rss_mb = peak_rss_mb();
    return r;
  }

  // Rounds of: the workload, the same without telemetry (its cost), and
  // with a recorder as well (packet events simulated, recorder cost).
  Traced tr;
  const int rounds = opt.quick ? 1 : 3;
  std::vector<PassTimes> with_tele, bare, recorded;
  for (int round = 0; round < rounds; ++round) {
    const std::vector<size_t> order = natural_order(specs.size());
    with_tele.push_back(hybrid_pass(order));
    PassTimes tb(specs.size()), trc(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      const WarpOutcome b = hybrid_run(specs[i], false, false, &tb[i]);
      ck.expect(b.mbps == first[i].mbps, [&] {
        return specs[i].name + ": telemetry changed the hybrid run";
      });
      const WarpOutcome rec = hybrid_run(specs[i], true, true, &trc[i]);
      if (round == 0) tr.warp_packet_events += rec.records;
    }
    bare.push_back(std::move(tb));
    recorded.push_back(std::move(trc));
  }
  double horizon = 0, warped = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const warp::WarpStats& s = first[i].stats;
    tr.warp.attempts += s.attempts;
    tr.warp.warps += s.warps;
    tr.warp.refused_structural += s.refused_structural;
    tr.warp.refused_no_model += s.refused_no_model;
    tr.warp.refused_jitter += s.refused_jitter;
    tr.warp.refused_window += s.refused_window;
    tr.warp.refused_disagree += s.refused_disagree;
    tr.warp.refused_snapshot += s.refused_snapshot;
    warped += s.warped_seconds;
    horizon += specs[i].duration_s;
  }
  tr.warped_frac = warped / horizon;
  tr.max_flow_err = max_err;
  const double hybrid = Traced::best_cost(with_tele);
  tr.telemetry_pct = pct_over(hybrid, Traced::best_cost(bare));
  tr.digest_pct = pct_over(Traced::best_cost(recorded), hybrid);
  tr.attach_frac = attach_share(with_tele);

  // The packet-simulated prefix of each case, up to its first warp point,
  // through the detached / shimmed / recorded passes; the warp engine's
  // calls are timed at that point with that warp's delta and credits.
  std::vector<golden::GoldenSpec> prefix = specs;
  std::vector<WarpPoint> points;
  for (size_t i = 0; i < specs.size(); ++i) {
    const TimeNs at =
        first[i].warped ? first[i].first_from
                        : ccstarve::min(end_of(specs[i]), TimeNs::seconds(60));
    prefix[i].duration_s = at.to_seconds();
    points.push_back(first[i].warped ? first[i].first : WarpPoint{});
  }
  detached_vs_topology(prefix, rounds, ck, &tr);
  extras_pass(prefix, &points, ck, &tr);
  recorded_passes(prefix, 1, ck, &tr);
  r.layers = layer_metrics(tr);
  r.passes = static_cast<uint64_t>(rounds);
  return r;
}

}  // namespace

size_t check_topology_digests(const std::string& repo,
                              std::vector<std::string>* notes) {
  WorkloadResult r;
  Checks ck(&r);
  const std::vector<golden::GoldenSpec> specs = registry_specs(false);
  std::vector<Outcome> outs;
  SpanClock scratch;
  topology_pass(specs, scratch, true, &outs);
  const size_t matched = check_committed(repo, specs, outs, "topology", ck);
  for (std::string& n : r.failure_notes) notes->push_back(std::move(n));
  return matched;
}

WorkloadResult run_workload(const Options& opt) {
  if (opt.workload == "paper") return run_registry(opt, false);
  if (opt.workload == "observed") return run_registry(opt, true);
  if (opt.workload == "cohort10k") return run_cohort(opt);
  if (opt.workload == "warp_hour") return run_warp(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload +
                              "' (want paper, cohort10k, warp_hour or "
                              "observed)");
}

}  // namespace ccbench

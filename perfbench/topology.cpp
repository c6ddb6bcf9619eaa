#include "topology.hpp"

#include <chrono>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "emu/trace.hpp"
#include "emu/trace_link.hpp"
#include "sim/aqm.hpp"
#include "sweep/spec_parse.hpp"

namespace ccbench {

using namespace ccstarve;

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kSim: return "sim";
    case Layer::kLink: return "link";
    case Layer::kPath: return "path";
    case Layer::kReceiver: return "receiver";
    case Layer::kSender: return "sender";
    case Layer::kCc: return "cc";
  }
  return "?";
}

namespace {

int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Delegating CCA that times the three callbacks the sender drives. The
// gauge getters stay untimed: the sender reads them after every callback,
// and timing them would double the span count for a few loads each.
class TimedCca final : public Cca {
 public:
  TimedCca(std::unique_ptr<Cca> inner, SpanClock& clock)
      : inner_(std::move(inner)), clock_(&clock) {}

  void on_packet_sent(TimeNs now, uint64_t seq, uint32_t bytes,
                      uint64_t inflight_bytes, bool retransmit) override {
    clock_->enter(Layer::kCc);
    inner_->on_packet_sent(now, seq, bytes, inflight_bytes, retransmit);
    clock_->leave();
  }
  void on_ack(const AckSample& ack) override {
    clock_->enter(Layer::kCc);
    inner_->on_ack(ack);
    clock_->leave();
  }
  void on_loss(const LossSample& loss) override {
    clock_->enter(Layer::kCc);
    inner_->on_loss(loss);
    clock_->leave();
  }
  uint64_t cwnd_bytes() const override { return inner_->cwnd_bytes(); }
  Rate pacing_rate() const override { return inner_->pacing_rate(); }
  std::string name() const override { return inner_->name(); }
  void rebase_time(TimeNs delta) override { inner_->rebase_time(delta); }
  void rebase_progress(uint64_t delta_bytes) override {
    inner_->rebase_progress(delta_bytes);
  }
  std::unique_ptr<Cca> clone() const override {
    return std::make_unique<TimedCca>(inner_->clone(), *clock_);
  }
  CcaSanity sanity() const override { return inner_->sanity(); }

 private:
  std::unique_ptr<Cca> inner_;
  SpanClock* clock_;
};

}  // namespace

uint64_t SpanClock::ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(steady_ns());
#endif
}

void SpanClock::begin() noexcept {
  depth_ = 0;
  stack_[0] = Layer::kSim;
  root_start_ns_ = steady_ns();
  root_start_ticks_ = ticks();
  mark_ = root_start_ticks_;
}

void SpanClock::end() noexcept {
  const uint64_t t = ticks();
  self_[index(stack_[depth_])] += t - mark_;
  root_ticks_ += t - root_start_ticks_;
  wall_ns_ += static_cast<double>(steady_ns() - root_start_ns_);
}

double SpanClock::self_ns(Layer l) const {
  if (root_ticks_ == 0) return 0;
  return static_cast<double>(self_[index(l)]) * wall_ns_ /
         static_cast<double>(root_ticks_);
}

RunCounts counts_of(Scenario& sc) {
  RunCounts c;
  c.events = sc.sim().events_processed();
  c.coalesced = sc.sim().events_coalesced();
  const FlowTable& t = sc.flow_table();
  for (size_t i = 0; i < sc.flow_count(); ++i) {
    c.sent += t.packets_sent[i];
    c.new_segments += t.next_seq[i] / kMss;
    c.delivered += t.delivered[i];
    c.drops += sc.loss_gate_dropped(i);
    c.rtos += sc.sender(i).stats().timeouts;
  }
  if (sc.has_bottleneck()) c.drops += sc.link().drops();
  return c;
}

// Everything one flow owns. The edge shims come first: components hold
// PacketSinks pointing at them, and the sender's wrapped timer slots call
// the saved callbacks, so both must outlive the components below.
struct TracedTopology::Flow {
  EdgeShim link_edge, sender_edge, ack_edge, recv_edge, data_edge, prop_edge;
  std::array<decltype(Event::fn), 3> sender_timers;
  std::unique_ptr<LossGate> loss_gate;
  std::unique_ptr<Sender> sender;
  std::unique_ptr<JitterBox> ack_jitter;
  std::unique_ptr<Receiver> receiver;
  std::unique_ptr<JitterBox> data_jitter;
  std::unique_ptr<PropagationDelay> prop;
};

void TracedTopology::Demux::handle(const Packet& pkt) const {
  if (pkt.is_dummy) return;
  prop_edges[pkt.flow]->handle(pkt);
}

TracedTopology::TracedTopology(const golden::GoldenSpec& spec,
                               SpanClock& clock, TraceRecorder* recorder)
    : clock_(clock) {
  if (spec.trace_link) {
    build_trace_link_topology(spec, recorder);
  } else {
    build_scenario_topology(spec);
    if (recorder != nullptr) sim_.set_tracer(recorder);
  }
}

TracedTopology::~TracedTopology() = default;

void TracedTopology::run_until(TimeNs t) {
  clock_.begin();
  sim_.run_until(t);
  clock_.end();
}

RunCounts TracedTopology::counts() const {
  RunCounts c;
  c.events = sim_.events_processed();
  c.coalesced = sim_.events_coalesced();
  for (size_t r = 0; r < table_.size(); ++r) {
    c.sent += table_.packets_sent[r];
    c.new_segments += table_.next_seq[r] / kMss;
    c.delivered += table_.delivered[r];
  }
  if (link_) c.drops += link_->drops();
  if (trace_link_) c.drops += trace_link_->drops();
  for (const auto& f : flows_) {
    if (f->loss_gate) c.drops += f->loss_gate->dropped();
    c.rtos += f->sender->stats().timeouts;
  }
  return c;
}

void TracedTopology::wrap_sender_timers(Flow& f, uint32_t row) {
  // The sender emplaces its pacing/RTO/persist callbacks into its owned
  // slots once, at construction; move each aside and emplace a timed
  // trampoline in its place. Arming and dispatch order are untouched.
  Event* slots[3] = {&table_.pace_slots[row], &table_.rto_slots[row],
                     &table_.persist_slots[row]};
  for (size_t k = 0; k < 3; ++k) {
    f.sender_timers[k] = std::move(slots[k]->fn);
    auto* saved = &f.sender_timers[k];
    SpanClock* clock = &clock_;
    slots[k]->fn.emplace([saved, clock] {
      clock->enter(Layer::kSender);
      (*saved)();
      clock->leave();
    });
  }
}

// Mirrors golden::build_golden + Scenario's constructor and build_flow.
void TracedTopology::build_scenario_topology(const golden::GoldenSpec& spec) {
  const std::vector<sweep::FlowArgs> flows =
      sweep::parse_flow_set(spec.flow_set);
  const Rate rate = Rate::mbps(spec.link_mbps);
  const TimeNs budget = spec.jitter_budget_ms > 0
                            ? TimeNs::millis(spec.jitter_budget_ms)
                            : TimeNs::infinite();
  if (spec.delay_server_amp_ms > 0) {
    const TimeNs amp = TimeNs::millis(spec.delay_server_amp_ms);
    const TimeNs period = TimeNs::seconds(spec.delay_server_period_s);
    delay_server_ = std::make_unique<DelayServerLink>(
        sim_,
        [amp, period](TimeNs arrival) {
          return golden::triangle_delay(arrival, amp, period);
        },
        demux_);
    ingress_ = as_sink(*delay_server_);
  } else {
    BottleneckLink::Config lc;
    lc.rate = rate;
    lc.buffer_bytes = sweep::parse_buffer_bytes(spec.buffer, rate, spec.rtt_ms);
    link_ = std::make_unique<BottleneckLink>(sim_, lc, demux_);
    if (spec.ecn_threshold_pkts > 0) {
      link_->set_aqm(std::make_unique<ThresholdEcn>(
          static_cast<uint64_t>(spec.ecn_threshold_pkts) * kMss));
    }
    if (spec.prefill_bytes > 0) link_->prefill(spec.prefill_bytes);
    ingress_ = as_sink(*link_);
  }

  const uint64_t base = spec.seed * 1000;
  for (size_t i = 0; i < flows.size(); ++i) {
    const sweep::FlowArgs& fa = flows[i];
    const uint32_t id = static_cast<uint32_t>(flows_.size());
    auto f = std::make_unique<Flow>();
    const RecvConfig recv = sweep::make_recv_config(fa);
    std::unique_ptr<JitterPolicy> ack_policy =
        sweep::make_jitter(fa.ack_jitter, base + 100 + i);
    std::unique_ptr<JitterPolicy> data_policy =
        sweep::make_jitter(fa.data_jitter, base + 200 + i);

    Sender::Config sc;
    sc.flow_id = id;
    sc.stats_interval = TimeNs::millis(10);
    if (recv.enabled()) sc.initial_wnd_limit = recv.buffer_bytes;
    sc.table = &table_;
    sc.row = table_.add_row();
    f->link_edge = {&clock_, Layer::kLink, ingress_};
    if (fa.loss > 0.0) {
      f->loss_gate =
          std::make_unique<LossGate>(fa.loss, base + 77 + i, ingress_);
      f->link_edge.next = as_sink(*f->loss_gate);
    }
    f->sender = std::make_unique<Sender>(
        sim_, sc,
        std::make_unique<TimedCca>(sweep::make_cca(fa.cca, base + 7 + i),
                                   clock_),
        PacketSink::of(f->link_edge));
    wrap_sender_timers(*f, sc.row);
    f->sender_edge = {&clock_, Layer::kSender, as_sink(*f->sender)};
    f->ack_jitter = std::make_unique<JitterBox>(
        sim_,
        ack_policy ? std::move(ack_policy) : std::make_unique<ZeroJitter>(),
        budget, f->sender_edge);
    f->ack_edge = {&clock_, Layer::kPath, as_sink(*f->ack_jitter)};
    f->receiver =
        std::make_unique<Receiver>(sim_, AckPolicy{}, f->ack_edge, recv);
    f->receiver->set_timer_slot(&table_.ack_slots[id]);
    f->receiver->set_wnd_timer_slot(&table_.wnd_slots[id]);
    f->recv_edge = {&clock_, Layer::kReceiver, as_sink(*f->receiver)};
    f->data_jitter = std::make_unique<JitterBox>(
        sim_,
        data_policy ? std::move(data_policy) : std::make_unique<ZeroJitter>(),
        budget, f->recv_edge);
    f->data_edge = {&clock_, Layer::kPath, as_sink(*f->data_jitter)};
    f->prop = std::make_unique<PropagationDelay>(
        sim_, TimeNs::millis(fa.rtt_ms.value_or(spec.rtt_ms)), f->data_edge);
    f->prop_edge = {&clock_, Layer::kPath, as_sink(*f->prop)};
    demux_.prop_edges.push_back(&f->prop_edge);

    f->sender->start(TimeNs::seconds(fa.start_s));
    flows_.push_back(std::move(f));
  }
}

// Mirrors golden::run_trace_link_golden: one flow through a Mahimahi-style
// trace-driven link, built back to front, recorder installed first.
void TracedTopology::build_trace_link_topology(const golden::GoldenSpec& spec,
                                               TraceRecorder* recorder) {
  if (recorder != nullptr) sim_.set_tracer(recorder);
  const std::vector<sweep::FlowArgs> flows =
      sweep::parse_flow_set(spec.flow_set);
  const uint64_t base = spec.seed * 1000;
  auto f = std::make_unique<Flow>();
  f->sender_edge = {&clock_, Layer::kSender, PacketSink()};
  f->ack_jitter = std::make_unique<JitterBox>(
      sim_, std::make_unique<ZeroJitter>(), TimeNs::infinite(),
      f->sender_edge);
  f->ack_edge = {&clock_, Layer::kPath, as_sink(*f->ack_jitter)};
  f->receiver = std::make_unique<Receiver>(sim_, AckPolicy{}, f->ack_edge);
  f->recv_edge = {&clock_, Layer::kReceiver, as_sink(*f->receiver)};
  f->data_jitter = std::make_unique<JitterBox>(
      sim_, std::make_unique<ZeroJitter>(), TimeNs::infinite(), f->recv_edge);
  f->data_edge = {&clock_, Layer::kPath, as_sink(*f->data_jitter)};
  f->prop = std::make_unique<PropagationDelay>(
      sim_, TimeNs::millis(spec.rtt_ms), f->data_edge);
  f->prop_edge = {&clock_, Layer::kPath, as_sink(*f->prop)};
  DeliveryTrace trace = DeliveryTrace::sawtooth(
      Rate::mbps(5), Rate::mbps(40), TimeNs::seconds(2), TimeNs::seconds(4));
  TraceDrivenLink::Config lc;
  lc.buffer_bytes = 120 * kMss;
  trace_link_ = std::make_unique<TraceDrivenLink>(sim_, std::move(trace), lc,
                                                  f->prop_edge);
  f->link_edge = {&clock_, Layer::kLink, as_sink(*trace_link_)};

  Sender::Config sc;
  sc.flow_id = 0;
  sc.stats_interval = TimeNs::millis(10);
  sc.table = &table_;
  sc.row = table_.add_row();
  f->sender = std::make_unique<Sender>(
      sim_, sc,
      std::make_unique<TimedCca>(sweep::make_cca(flows[0].cca, base + 7),
                                 clock_),
      PacketSink::of(f->link_edge));
  wrap_sender_timers(*f, sc.row);
  f->sender_edge.next = as_sink(*f->sender);
  f->sender->start(TimeNs::zero());
  flows_.push_back(std::move(f));
}

}  // namespace ccbench

// The traced topology: the paper's §3 scenario rebuilt from the simulator's
// public components, with a timing shim on every PacketSink edge, a timed
// delegating wrapper around every CCA, and the sender's owned timer slots
// wrapped in place — so each layer's self time is measured from outside,
// by timing calls into its public functions, without touching src/.
//
// The wiring is a benchmark-owned copy of Scenario::build_flow (and of the
// trace-link harness in check/scenarios.hpp), component for component and
// in the same construction order, so event insertion sequences — and hence
// golden digests — are identical to the Scenario the workloads time. The
// self-test holds it to every committed digest.
//
// Layers, named after the modules they time:
//   sim       the event loop itself plus timer callbacks no layer below
//             claims (link service completions, propagation and jitter
//             releases, flow starts, receiver delayed-ACK/window timers)
//   link      BottleneckLink / DelayServerLink / TraceDrivenLink ingress,
//             plus the LossGate in front of it
//   path      PropagationDelay and both JitterBoxes (admission)
//   receiver  Receiver data ingress (including the ACK it emits)
//   sender    Sender ACK ingress and its pacing/RTO/persist timers
//   cc        CCA callbacks: on_ack, on_loss, on_packet_sent
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/scenarios.hpp"
#include "sim/scenario.hpp"

namespace ccbench {

enum class Layer : uint8_t { kSim, kLink, kPath, kReceiver, kSender, kCc };
inline constexpr size_t kLayerCount = 6;
const char* layer_name(Layer l);
inline constexpr Layer kLayers[kLayerCount] = {
    Layer::kSim,      Layer::kLink,   Layer::kPath,
    Layer::kReceiver, Layer::kSender, Layer::kCc};

// Exclusive ("self") time over nested spans. At any instant exactly one
// layer owns the clock — the innermost open span, or the root (sim) — so
// the layers' self times partition the root span and their shares sum to
// one. Ticks come from the TSC where available; the ratio of steady-clock
// time to ticks over the root spans calibrates them to nanoseconds.
class SpanClock {
 public:
  static uint64_t ticks() noexcept;

  // Opens/closes the root span (one Simulator::run_until).
  void begin() noexcept;
  void end() noexcept;

  void enter(Layer l) noexcept {
    const uint64_t t = ticks();
    self_[index(stack_[depth_])] += t - mark_;
    if (depth_ + 1 < static_cast<int>(stack_.size())) ++depth_;
    stack_[depth_] = l;
    ++calls_[index(l)];
    mark_ = t;
  }
  void leave() noexcept {
    const uint64_t t = ticks();
    self_[index(stack_[depth_])] += t - mark_;
    if (depth_ > 0) --depth_;
    mark_ = t;
  }

  uint64_t calls(Layer l) const { return calls_[index(l)]; }
  // Self time in nanoseconds.
  double self_ns(Layer l) const;
  // Root-span wall time, nanoseconds.
  double wall_ns() const { return wall_ns_; }

 private:
  static size_t index(Layer l) { return static_cast<size_t>(l); }

  std::array<uint64_t, kLayerCount> self_{};
  std::array<uint64_t, kLayerCount> calls_{};
  std::array<Layer, 16> stack_{};
  int depth_ = 0;
  uint64_t mark_ = 0;
  uint64_t root_ticks_ = 0;
  uint64_t root_start_ticks_ = 0;
  int64_t root_start_ns_ = 0;
  double wall_ns_ = 0;
};

// Exact event/packet counts of one finished run, read from public state.
struct RunCounts {
  uint64_t events = 0;
  uint64_t coalesced = 0;
  uint64_t sent = 0;          // segments sent, retransmits included
  uint64_t new_segments = 0;  // distinct segments (next_seq / MSS)
  uint64_t delivered = 0;     // cumulatively ACKed bytes
  uint64_t drops = 0;         // bottleneck + loss-gate drops
  uint64_t rtos = 0;
};
RunCounts counts_of(ccstarve::Scenario& sc);

class TracedTopology {
 public:
  // Builds `spec` (any golden-registry-style spec, trace-link included)
  // with every layer boundary timed on `clock`. `recorder`, when given, is
  // installed exactly where the golden harness installs it: after
  // construction for Scenario topologies, before it for the trace link.
  TracedTopology(const ccstarve::golden::GoldenSpec& spec, SpanClock& clock,
                 ccstarve::TraceRecorder* recorder = nullptr);
  ~TracedTopology();
  TracedTopology(const TracedTopology&) = delete;
  TracedTopology& operator=(const TracedTopology&) = delete;

  // One root span on the clock.
  void run_until(ccstarve::TimeNs t);

  ccstarve::Simulator& sim() { return sim_; }
  RunCounts counts() const;

 private:
  struct EdgeShim {
    SpanClock* clock = nullptr;
    Layer layer = Layer::kSim;
    ccstarve::PacketSink next;
    void handle(const ccstarve::Packet& pkt) const {
      clock->enter(layer);
      next.handle(pkt);
      clock->leave();
    }
  };
  struct Flow;
  struct Demux {
    std::vector<EdgeShim*> prop_edges;
    void handle(const ccstarve::Packet& pkt) const;
  };

  void build_scenario_topology(const ccstarve::golden::GoldenSpec& spec);
  void build_trace_link_topology(const ccstarve::golden::GoldenSpec& spec,
                                 ccstarve::TraceRecorder* recorder);
  Flow& add_flow(std::unique_ptr<ccstarve::Cca> cca);
  void wrap_sender_timers(Flow& f, uint32_t row);

  SpanClock& clock_;
  ccstarve::Simulator sim_;
  ccstarve::FlowTable table_;
  Demux demux_;
  std::unique_ptr<ccstarve::BottleneckLink> link_;
  std::unique_ptr<ccstarve::DelayServerLink> delay_server_;
  std::unique_ptr<ccstarve::TraceDrivenLink> trace_link_;
  ccstarve::PacketSink ingress_;
  std::vector<std::unique_ptr<Flow>> flows_;
};

}  // namespace ccbench

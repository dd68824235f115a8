// Deterministic, seed-driven fault injection.
//
// A FaultInjector is a PacketHandler wrapper: it slides between a node and
// an existing Link (or any other handler) via Node::replace_route_target()
// and imposes a FaultPlan — a list of timed, independently-seeded
// FaultSpecs — on everything the node forwards through it. The wrapped
// object is never modified; composition with the link's own loss model,
// queue discipline, and reorder model falls out of the wrapping order:
// injector faults act at link INGRESS (before the queue), and delay-spiked
// packets re-check the blackhole/outage windows when they emerge so a
// packet held across the start of an outage cannot be resurrected on the
// far side of it.
//
// Everything is deterministic: each spec draws from its own named RNG
// stream derived from (plan seed, spec index), so two runs with the same
// seed see byte-identical fault behavior and adding a spec never perturbs
// the draws of the others. That is what makes a failing chaos-soak
// schedule replayable from nothing but its printed seed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/delay_line.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace rrtcp::chaos {

enum class FaultKind : std::uint8_t {
  kOutage,        // link down: drop every arrival inside the window (flaps
                  // when period > 0); packets already past the injector
                  // (in the wrapped link) are unaffected — carrier loss,
                  // not memory loss
  kBlackhole,     // like kOutage, but also swallows injector-held
                  // (delay-spiked) packets that would emerge inside the
                  // window — nothing crosses, full stop
  kAckLoss,       // drop ACK packets with `probability` inside the window
  kAckDuplicate,  // forward ACK packets twice with `probability`
  kBurstLoss,     // Gilbert-Elliott two-state loss inside the window
  kDelaySpike,    // hold selected packets an extra `extra_delay`
  kCount,
};

const char* to_string(FaultKind k);
// Inverse of to_string; false (out untouched) for an unknown name.
bool fault_kind_from_string(std::string_view name, FaultKind* out);

// Which dumbbell direction a spec is meant for; the soak harness splits a
// plan into a forward (data) and a reverse (ACK) injector on this field.
// An injector itself applies every spec it is given regardless of path —
// the field is routing metadata, not a packet filter.
enum class FaultPath : std::uint8_t { kData, kAck };

const char* to_string(FaultPath p);
bool fault_path_from_string(std::string_view name, FaultPath* out);

struct FaultSpec {
  FaultKind kind = FaultKind::kOutage;
  FaultPath path = FaultPath::kData;
  sim::Time start = sim::Time::zero();
  sim::Time duration = sim::Time::zero();
  // Zero: one-shot window [start, start+duration). Positive (> duration):
  // the window repeats every `period` forever — a flapping link.
  sim::Time period = sim::Time::zero();
  // kAckLoss / kAckDuplicate / kDelaySpike per-packet probability.
  double probability = 1.0;
  // kDelaySpike hold time.
  sim::Time extra_delay = sim::Time::zero();
  // kBurstLoss Gilbert-Elliott chain: P(good->bad), P(bad->good), and the
  // drop probability while in the bad state.
  double p_enter_bad = 0.0;
  double p_exit_bad = 1.0;
  double loss_in_bad = 1.0;
  // kBurstLoss: restrict the chain to data packets (an injector on a pure
  // ACK path can leave this false).
  bool data_only = false;

  // True while `now` falls inside an active window.
  bool active_at(sim::Time now) const;
  std::string describe() const;

  // Lossless one-line text codec for replay files (src/fuzz). Every field
  // is emitted: times as exact picosecond integers, probabilities with
  // enough digits to round-trip a double bit-for-bit. from_text accepts
  // exactly what to_text emits (order-insensitive `k=v` tokens) and
  // returns false on any unknown key or malformed value.
  std::string to_text() const;
  static bool from_text(std::string_view line, FaultSpec* out);
};

struct FaultPlan {
  std::vector<FaultSpec> faults;

  bool empty() const { return faults.empty(); }
  // Specs whose path field matches (what the soak harness hands each
  // direction's injector).
  FaultPlan subset(FaultPath path) const;
  // Deterministic one-line summary, e.g.
  // "outage@2.000s+1.500s[data]; ackloss@5.000s+3.000s p=0.12[ack]".
  std::string describe() const;
};

// Bounds for seeded random plan generation (the soak's schedule space).
// Chosen so a schedule is hostile but survivable: windows land while flows
// are active, flapping links have a duty cycle <= 1/2, and probabilities
// stay below certainty for the probabilistic kinds.
struct PlanBounds {
  int min_faults = 1;
  int max_faults = 3;
  sim::Time earliest = sim::Time::seconds(1.0);
  sim::Time latest = sim::Time::seconds(30.0);
  sim::Time min_duration = sim::Time::milliseconds(200);
  sim::Time max_duration = sim::Time::seconds(5.0);
  sim::Time min_delay_spike = sim::Time::milliseconds(50);
  sim::Time max_delay_spike = sim::Time::milliseconds(400);
};

// Draws a schedule from the bounds. Same (seed, bounds) -> same plan,
// independent of everything else in the process (own named RNG stream).
FaultPlan make_random_plan(std::uint64_t seed, const PlanBounds& bounds = {});

class FaultInjector final : public net::PacketHandler {
 public:
  // Wraps `inner`. `seed` drives every probabilistic spec; `name` labels
  // RNG streams (and must be stable across runs for determinism).
  // The injector must outlive the simulation, like the Link it wraps:
  // delay-spiked packets hold a reference to it until they emerge.
  FaultInjector(sim::Simulator& sim, net::PacketHandler& inner, FaultPlan plan,
                std::uint64_t seed, std::string name = "fault");

  RRTCP_HOT void send(net::Packet p) override;

  const FaultPlan& plan() const { return plan_; }

  // Statistics.
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t duplicated() const { return duplicated_; }
  std::uint64_t delayed() const { return delayed_; }
  std::uint64_t forwarded() const { return forwarded_; }

 private:
  struct ArmedSpec {
    FaultSpec spec;
    sim::Rng rng;
    bool bad = false;  // Gilbert-Elliott chain state
  };

  // Deliver (or swallow) a packet that finished its spike hold.
  RRTCP_HOT void emerge(net::Packet p, bool duplicate);
  RRTCP_HOT void forward(net::Packet p, bool duplicate);
  bool blackholed(sim::Time now) const;

  sim::Simulator& sim_;
  net::PacketHandler& inner_;
  FaultPlan plan_;
  std::string name_;
  std::vector<ArmedSpec> specs_;
  // Delay-spiked packets until they emerge, one line per `duplicate`
  // value. Spikes differ per spec, so a later packet can overtake.
  net::DelayLine spiked_;
  net::DelayLine spiked_dup_;

  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
  std::uint64_t forwarded_ = 0;
};

// Interpose `injector` in front of `wrapped` on every route of `node`
// (including the default route). Returns the number of routes rewritten;
// asserts that at least one was.
int interpose(net::Node& node, net::PacketHandler& wrapped,
              FaultInjector& injector);

}  // namespace rrtcp::chaos

// Flow construction: bundles a sender variant with its matching receiver.
//
// Sender construction and the variant→receiver pairing live in the
// SenderFactory registry (app/sender_factory.hpp); make_flow is the
// convenience that builds both ends of a connection — each with its own
// explicit env::SimEnvironment — and wires them together.
#pragma once

#include <memory>

#include "app/variant.hpp"
#include "env/environment.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "tcp/receiver.hpp"
#include "tcp/sender_base.hpp"

namespace rrtcp::app {

struct Flow {
  // Per-endpoint environments, declared before the endpoints they host so
  // teardown runs endpoint-first. Null when the endpoints were built
  // against an external environment the caller owns.
  std::unique_ptr<env::Environment> snd_env;
  std::unique_ptr<env::Environment> rcv_env;
  std::unique_ptr<tcp::TcpSenderBase> sender;
  std::unique_ptr<tcp::TcpReceiver> receiver;
};

// Creates a sender of the given variant on `snd_node` and its receiver on
// `rcv_node`, wired to each other under `flow`.
Flow make_flow(Variant v, sim::Simulator& sim, net::Node& snd_node,
               net::Node& rcv_node, net::FlowId flow,
               tcp::TcpConfig cfg = {});

// The same, with each endpoint on its own node's simulator — the flows of
// a sharded scenario whose endpoints sit on different engines.
Flow make_flow(Variant v, sim::Simulator& snd_sim, net::Node& snd_node,
               sim::Simulator& rcv_sim, net::Node& rcv_node, net::FlowId flow,
               tcp::TcpConfig cfg = {});

// Environment-agnostic flavor: builds both endpoints against caller-owned
// environments (one per endpoint, already peered with each other). This is
// the path the live transport uses; in-sim callers can pass two
// env::SimEnvironments to the same effect as the overload above.
Flow make_flow(Variant v, env::Environment& snd_env, env::Environment& rcv_env,
               net::FlowId flow, tcp::TcpConfig cfg = {});

// The ReceiverConfig paired with a sender of variant `v` under `cfg` —
// notably whether the receiver generates SACK blocks (a registry fact).
// Exposed for callers that build receivers directly, e.g. a live endpoint
// that owns its environment.
tcp::ReceiverConfig receiver_config_for(Variant v, const tcp::TcpConfig& cfg);

}  // namespace rrtcp::app

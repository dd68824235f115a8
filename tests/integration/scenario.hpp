// Shared scenario runner for integration tests: one or more flows over the
// paper's dumbbell with an arbitrary loss model at the bottleneck. A thin
// layer over harness::ScenarioSpec that keeps the tests' loss-model
// factories and flat result struct.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "harness/scenario.hpp"

namespace rrtcp::test {

struct ScenarioConfig {
  app::Variant variant = app::Variant::kRr;
  int n_flows = 1;
  // Bytes per flow; nullopt = unbounded.
  std::optional<std::uint64_t> bytes = 100'000;
  sim::Time stagger = sim::Time::zero();  // start offset between flows
  sim::Time horizon = sim::Time::seconds(120);
  std::uint64_t buffer_packets = 8;  // bottleneck drop-tail buffer
  std::function<std::unique_ptr<net::LossModel>()> make_loss;        // fwd
  std::function<std::unique_ptr<net::LossModel>()> make_ack_loss;    // rev
  tcp::TcpConfig tcp;
};

struct FlowResult {
  bool complete = false;
  double completion_s = 0.0;
  std::uint64_t rcv_bytes = 0;
  tcp::SenderStats stats;
};

struct ScenarioResult {
  std::vector<FlowResult> flows;
  std::uint64_t bottleneck_drops = 0;
  std::uint64_t loss_model_drops = 0;
  double now_s = 0.0;
};

// Audit is build-gated (RRTCP_AUDIT=ON): every integration scenario then
// runs under the full invariant set, abort-on-violation.
inline ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  harness::ScenarioSpec spec;
  spec.horizon = cfg.horizon;
  spec.bottleneck = harness::QueueSpec::drop_tail(cfg.buffer_packets);
  spec.instruments.tracers = false;
  spec.add_flows(cfg.n_flows,
                 {.variant = cfg.variant, .bytes = cfg.bytes, .tcp = cfg.tcp},
                 cfg.stagger);
  harness::Scenario sc{spec};
  harness::DumbbellView topo = sc.topology();
  if (cfg.make_loss) topo.bottleneck().set_loss_model(cfg.make_loss());
  if (cfg.make_ack_loss)
    topo.reverse_bottleneck().set_loss_model(cfg.make_ack_loss());

  sc.run();

  ScenarioResult out;
  out.now_s = sc.sim().now().to_seconds();
  out.bottleneck_drops = topo.bottleneck().queue().stats().dropped;
  if (auto* lm = topo.bottleneck().loss_model()) out.loss_model_drops = lm->drops();
  for (int i = 0; i < sc.n_flows(); ++i) {
    const tcp::TcpSenderBase& snd = sc.sender(i);
    FlowResult r;
    r.complete = snd.complete();
    r.completion_s = snd.completion_time().to_seconds();
    r.rcv_bytes = sc.flow(i).receiver->bytes_in_order();
    r.stats = snd.stats();
    out.flows.push_back(r);
  }
  return out;
}

}  // namespace rrtcp::test

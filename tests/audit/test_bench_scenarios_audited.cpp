// Every bench family, replayed at test scale under an EXPLICIT recording
// AuditSession — independent of the RRTCP_AUDIT build flag, so the full
// invariant set runs against the real scenarios in every CI configuration.
// The assertion in each test is the acceptance criterion: zero violations.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "harness/scenario.hpp"
#include "net/loss_model.hpp"
#include "net/red.hpp"

namespace rrtcp::audit {
namespace {

struct AuditedScenario {
  std::vector<app::Variant> variants;  // one flow per entry
  std::optional<std::uint64_t> bytes = 100'000;
  sim::Time stagger = sim::Time::zero();
  sim::Time horizon = sim::Time::seconds(60);
  harness::QueueSpec queue = {};  // default: the paper's drop-tail 8
  std::function<std::unique_ptr<net::LossModel>()> make_loss;
  std::function<std::unique_ptr<net::LossModel>()> make_ack_loss;
};

// Runs the paper dumbbell with a recording session attached to every flow
// and both bottleneck links, and returns the session verdict.
std::uint64_t audited_violations(const AuditedScenario& s) {
  harness::ScenarioSpec spec;
  spec.horizon = s.horizon;
  spec.bottleneck = s.queue;
  spec.instruments.tracers = false;
  spec.instruments.audit = harness::AuditMode::kRecord;
  for (std::size_t i = 0; i < s.variants.size(); ++i)
    spec.add_flow({.variant = s.variants[i],
                   .start = s.stagger * static_cast<std::int64_t>(i),
                   .bytes = s.bytes});
  harness::Scenario sc{spec};
  if (s.make_loss) sc.topology().bottleneck().set_loss_model(s.make_loss());
  if (s.make_ack_loss)
    sc.topology().reverse_bottleneck().set_loss_model(s.make_ack_loss());

  sc.run();
  AuditSession& session = *sc.instrumentation().recording_session();
  if (!session.clean()) session.dump(stderr);
  return session.total_violations();
}

// Fig. 5 family: exact k-packet loss bursts at the drop-tail gateway, every
// paper variant.
TEST(BenchScenariosAudited, Fig5DropTailBurstsAllVariants) {
  for (app::Variant v : app::kAllVariants) {
    for (int burst : {3, 6}) {
      AuditedScenario s;
      s.variants = {v};
      s.make_loss = [burst] {
        std::vector<std::pair<net::FlowId, std::uint64_t>> losses;
        for (int k = 0; k < burst; ++k)
          losses.emplace_back(1, 30'000 + 2000u * static_cast<unsigned>(k));
        return std::make_unique<net::ListLossModel>(losses);
      };
      EXPECT_EQ(audited_violations(s), 0u)
          << "variant=" << app::to_string(v) << " burst=" << burst;
    }
  }
}

// Fig. 6 family: RED gateway (paper Table 4 parameters), competing RR and
// SACK flows, congestion-driven early drops.
TEST(BenchScenariosAudited, Fig6RedGatewayCompetingFlows) {
  AuditedScenario s;
  s.variants = {app::Variant::kRr, app::Variant::kSack, app::Variant::kRr,
                app::Variant::kNewReno};
  s.bytes = std::nullopt;  // long-lived
  s.horizon = sim::Time::seconds(8);
  s.queue = harness::QueueSpec::red_queue({});  // Table 4 defaults
  EXPECT_EQ(audited_violations(s), 0u);
}

// Fig. 7 family: random loss at a rate high enough to include timeouts —
// the harshest path through the auditor's episode state machine.
TEST(BenchScenariosAudited, Fig7RandomLossWithTimeouts) {
  AuditedScenario s;
  s.variants = {app::Variant::kRr};
  s.bytes = std::nullopt;
  s.horizon = sim::Time::seconds(30);
  s.make_loss = [] {
    return std::make_unique<net::UniformLossModel>(0.03, 42);
  };
  EXPECT_EQ(audited_violations(s), 0u);
}

// Table 5 family: staggered mixed-variant flows sharing a shallow buffer
// (fairness scenario), recovery driven purely by queue overflow.
TEST(BenchScenariosAudited, Table5FairnessSharedBottleneck) {
  AuditedScenario s;
  s.variants = {app::Variant::kRr, app::Variant::kRr, app::Variant::kSack,
                app::Variant::kReno};
  s.bytes = std::nullopt;
  s.stagger = sim::Time::seconds(0.25);
  s.horizon = sim::Time::seconds(20);
  EXPECT_EQ(audited_violations(s), 0u);
}

// Ablation family: a lost retransmission (rescue/timeout path) combined
// with ACK loss on the reverse path.
TEST(BenchScenariosAudited, AblationLostRetransmissionAndAckLoss) {
  AuditedScenario s;
  s.variants = {app::Variant::kRr};
  s.make_loss = [] {
    return std::make_unique<net::SegmentLossModel>(1, 30'000, 2);
  };
  s.make_ack_loss = [] {
    return std::make_unique<net::UniformLossModel>(0.05, 77,
                                                   /*data_only=*/false);
  };
  EXPECT_EQ(audited_violations(s), 0u);
}

}  // namespace
}  // namespace rrtcp::audit

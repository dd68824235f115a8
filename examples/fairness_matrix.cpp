// Fairness matrix: a targeted finite transfer competing against a wall of
// background flows, for every (target, background) TCP-variant pair — a
// generalization of the paper's Table 5 beyond {Reno, RR}.
//
// Usage: fairness_matrix [n_background] [target_kbytes]
//   defaults: 19 background flows, 100 KB target (the paper's setup)
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness/scenario.hpp"
#include "stats/table.hpp"

namespace {

using namespace rrtcp;

struct Outcome {
  double delay_s = -1;
  double loss_pct = 0;
};

Outcome run_pair(app::Variant target, app::Variant background, int n_bg,
                 std::uint64_t target_bytes) {
  harness::ScenarioSpec spec;
  spec.bottleneck = harness::QueueSpec::drop_tail(25);
  spec.horizon = sim::Time::seconds(180);
  spec.add_flows(n_bg, {.variant = background}, sim::Time::milliseconds(500));
  spec.add_flow({.variant = target,
                 .start = sim::Time::milliseconds(4800),
                 .bytes = target_bytes});
  harness::Scenario sc{spec};

  const net::FlowId target_flow = n_bg + 1;
  std::uint64_t target_drops = 0;
  sc.topology().bottleneck().queue().set_drop_callback(
      [&](const net::Packet& p) {
        if (p.flow == target_flow) ++target_drops;
      });
  sc.run();
  const tcp::TcpSenderBase& tf = sc.sender(n_bg);

  Outcome out;
  if (tf.complete()) out.delay_s = tf.completion_time().to_seconds() - 4.8;
  const double offered = static_cast<double>(tf.stats().data_packets_sent +
                                             tf.stats().retransmissions);
  if (offered > 0) out.loss_pct = 100.0 * target_drops / offered;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int n_bg = argc > 1 ? std::atoi(argv[1]) : 19;
  const std::uint64_t kb = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 100;
  std::printf("targeted %llu KB transfer vs %d background flows "
              "(0.8 Mbps bottleneck, drop-tail 25)\n",
              static_cast<unsigned long long>(kb), n_bg);
  std::printf("cells: transfer delay (s) / loss rate of the target flow\n");

  rrtcp::stats::Table table{{"target \\ background", "tahoe", "reno",
                             "newreno", "sack", "rr"}};
  for (rrtcp::app::Variant target : rrtcp::app::kAllVariants) {
    std::vector<std::string> row{rrtcp::app::to_string(target)};
    for (rrtcp::app::Variant bg : rrtcp::app::kAllVariants) {
      const Outcome o = run_pair(target, bg, n_bg, kb * 1000);
      row.push_back(o.delay_s < 0
                        ? "stalled"
                        : rrtcp::stats::Table::cell("%.1fs / %.0f%%",
                                                    o.delay_s, o.loss_pct));
    }
    table.add_row(std::move(row));
  }
  table.print();
  return 0;
}

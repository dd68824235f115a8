// RED gateway dynamics: ten staggered FTP/TCP flows share the paper's
// 0.8 Mbps bottleneck behind a RED queue (Table 4 parameters). Prints the
// RED average-queue trajectory alongside per-flow goodput — the
// environment of the paper's Figure 6.
//
// Usage: red_dynamics [variant] (default rr)
#include <cstdio>
#include <functional>

#include "harness/scenario.hpp"

int main(int argc, char** argv) {
  using namespace rrtcp;

  const app::Variant variant =
      argc > 1 ? app::variant_from_string(argv[1]) : app::Variant::kRr;

  net::RedConfig rc;  // Table 4 defaults: 25/5/20/0.02/0.002
  rc.mean_pkt_tx = sim::Time::transmission(1000, 800'000);
  tcp::TcpConfig tcfg;
  tcfg.max_window_pkts = 20;
  tcfg.init_ssthresh_pkts = 20;

  harness::ScenarioSpec spec;
  spec.bottleneck = harness::QueueSpec::red_queue(rc);
  spec.horizon = sim::Time::seconds(6);
  for (int i = 0; i < 10; ++i) {
    const sim::Time start =
        i < 5 ? sim::Time::zero() : sim::Time::milliseconds(500) * (i - 4);
    spec.add_flow({.variant = variant, .start = start, .tcp = tcfg});
  }
  harness::Scenario sc{spec};
  sim::Simulator& sim = sc.sim();
  net::RedQueue* red = sc.red();

  // Sample the RED average queue every 100 ms.
  std::printf("# time_s  red_avg_queue  instantaneous_queue\n");
  std::function<void()> probe = [&] {
    std::printf("  %5.2f    %6.2f         %zu\n", sim.now().to_seconds(),
                red->avg_queue(), red->len_packets());
    if (sim.now() < sim::Time::seconds(6))
      sim.schedule_in(sim::Time::milliseconds(100), probe);
  };
  sim.schedule_at(sim::Time::zero(), probe);

  const sim::Time horizon = spec.horizon;
  sc.run();

  std::printf("\nper-flow goodput after %.0f s (%s):\n", horizon.to_seconds(),
              app::to_string(variant));
  double total = 0;
  for (int i = 0; i < 10; ++i) {
    const double kbps = sc.flow(i).receiver->bytes_in_order() * 8.0 /
                        horizon.to_seconds() / 1e3;
    total += kbps;
    std::printf("  flow %2d: %6.1f kbit/s (%llu timeouts)\n", i + 1, kbps,
                static_cast<unsigned long long>(sc.sender(i).stats().timeouts));
  }
  std::printf("  total:   %6.1f kbit/s of 800 (early drops %llu, forced %llu)\n",
              total, static_cast<unsigned long long>(red->early_drops()),
              static_cast<unsigned long long>(red->forced_drops()));
  return 0;
}

// Bursty-loss recovery, narrated: inject a 6-packet burst into one window
// and watch New-Reno and Robust Recovery handle it side by side.
//
// This is the paper's core story in one terminal screen: New-Reno fishes
// out one hole per RTT while its per-RTT transmission count decays; RR
// treats the burst as a single congestion signal, keeps the ACK clock
// spinning, probes the new equilibrium while repairing, and leaves
// recovery with an accurate congestion window.
//
// Usage: bursty_loss_recovery [burst_size] (default 6)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/rr_sender.hpp"
#include "harness/scenario.hpp"

namespace {

using namespace rrtcp;

// Prints one line per interesting sender event.
class Narrator final : public tcp::SenderObserver {
 public:
  explicit Narrator(const char* tag) : tag_{tag} {}

  void on_send(sim::Time now, std::uint64_t seq, std::uint32_t,
               bool rtx) override {
    if (rtx)
      std::printf("%8.3fs  %-8s retransmit pkt %llu\n", now.to_seconds(),
                  tag_, static_cast<unsigned long long>(seq / 1000));
  }
  void on_phase(sim::Time now, tcp::TcpPhase p) override {
    std::printf("%8.3fs  %-8s phase -> %s\n", now.to_seconds(), tag_,
                tcp::to_string(p));
  }
  void on_timeout(sim::Time now) override {
    std::printf("%8.3fs  %-8s *** COARSE TIMEOUT ***\n", now.to_seconds(),
                tag_);
  }

 private:
  const char* tag_;
};

void run(app::Variant v, int burst) {
  std::printf("\n===== %s, %d-packet burst loss =====\n", app::to_string(v),
              burst);
  tcp::TcpConfig tcfg;
  tcfg.init_ssthresh_pkts = 10;
  harness::ScenarioSpec spec;
  spec.bottleneck = harness::QueueSpec::drop_tail(100);
  spec.horizon = sim::Time::seconds(30);
  spec.add_flow({.variant = v, .bytes = 100'000, .tcp = tcfg});
  harness::Scenario sc{spec};

  std::vector<std::pair<net::FlowId, std::uint64_t>> losses;
  for (int i = 0; i < burst; ++i)
    losses.push_back({1, static_cast<std::uint64_t>(30 + i) * 1000});
  sc.topology().bottleneck().set_loss_model(
      std::make_unique<net::ListLossModel>(losses));

  Narrator narrator{app::to_string(v)};
  tcp::TcpSenderBase& sender = sc.sender(0);
  sender.add_observer(&narrator);
  sc.run();
  sender.remove_observer(&narrator);

  const auto& st = sender.stats();
  std::printf("  -> transfer of 100 packets finished at %.3f s "
              "(%llu rtx, %llu timeouts)\n",
              sender.completion_time().to_seconds(),
              static_cast<unsigned long long>(st.retransmissions),
              static_cast<unsigned long long>(st.timeouts));
  if (v == app::Variant::kRr) {
    auto* rr = static_cast<core::RrSender*>(&sender);
    std::printf("  -> RR detected %llu further losses inside recovery and "
                "issued %llu rescue retransmissions\n",
                static_cast<unsigned long long>(rr->further_loss_events()),
                static_cast<unsigned long long>(rr->rescue_retransmissions()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int burst = argc > 1 ? std::atoi(argv[1]) : 6;
  if (burst < 1 || burst > 20) {
    std::fprintf(stderr, "burst size must be in 1..20\n");
    return 1;
  }
  std::printf("Dropping packets 30..%d of a 100-packet transfer\n"
              "(0.8 Mbps / 100 ms bottleneck, drop-tail, window ~12)\n",
              29 + burst);
  run(rrtcp::app::Variant::kNewReno, burst);
  run(rrtcp::app::Variant::kRr, burst);
  return 0;
}

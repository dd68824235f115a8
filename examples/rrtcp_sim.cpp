// rrtcp_sim — a thin command-line front end over harness::ScenarioSpec:
// the options fill in one dumbbell spec (any TCP variant over a drop-tail
// or RED, optionally ECN, bottleneck), optional random loss and
// reordering go on the built bottleneck links, and per-flow results are
// printed.
//
//   rrtcp_sim [options]
//     --variant V       tahoe|reno|newreno|sack|rr|rightedge|linkung (rr)
//     --flows N         number of flows (2)
//     --time SECONDS    simulated horizon (30)
//     --buffer PKTS     bottleneck buffer (8)
//     --red             RED gateway instead of drop-tail
//     --ecn             RED marks instead of dropping (implies --red)
//     --loss P          uniform random data loss at R1 (0)
//     --ack-loss P      uniform random ACK loss at R2->R1 (0)
//     --reorder P       fraction of data packets delayed 1.5 RTT (0)
//     --bytes N         finite transfer size per flow (unbounded)
//     --seed S          RNG seed (1)
//     --verbose         per-event debug trace
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <vector>

#include "harness/scenario.hpp"
#include "sim/log.hpp"
#include "stats/table.hpp"

namespace {

struct Options {
  rrtcp::app::Variant variant = rrtcp::app::Variant::kRr;
  int flows = 2;
  double time_s = 30;
  std::uint64_t buffer = 8;
  bool red = false;
  bool ecn = false;
  double loss = 0;
  double ack_loss = 0;
  double reorder = 0;
  std::optional<std::uint64_t> bytes;
  std::uint64_t seed = 1;
};

[[noreturn]] void usage() {
  std::fprintf(stderr, "see the header of examples/rrtcp_sim.cpp\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        usage();
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--variant"))
      o.variant = rrtcp::app::variant_from_string(need("--variant"));
    else if (!std::strcmp(argv[i], "--flows"))
      o.flows = std::atoi(need("--flows"));
    else if (!std::strcmp(argv[i], "--time"))
      o.time_s = std::atof(need("--time"));
    else if (!std::strcmp(argv[i], "--buffer"))
      o.buffer = std::strtoull(need("--buffer"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--red"))
      o.red = true;
    else if (!std::strcmp(argv[i], "--ecn"))
      o.red = o.ecn = true;
    else if (!std::strcmp(argv[i], "--loss"))
      o.loss = std::atof(need("--loss"));
    else if (!std::strcmp(argv[i], "--ack-loss"))
      o.ack_loss = std::atof(need("--ack-loss"));
    else if (!std::strcmp(argv[i], "--reorder"))
      o.reorder = std::atof(need("--reorder"));
    else if (!std::strcmp(argv[i], "--bytes"))
      o.bytes = std::strtoull(need("--bytes"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--seed"))
      o.seed = std::strtoull(need("--seed"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--verbose"))
      rrtcp::sim::Log::set_level(rrtcp::sim::LogLevel::kDebug);
    else
      usage();
  }
  if (o.flows < 1 || o.time_s <= 0) usage();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rrtcp;
  const Options o = parse(argc, argv);

  tcp::TcpConfig tcfg;
  tcfg.ecn_enabled = o.ecn;

  harness::ScenarioSpec spec;
  spec.seed = o.seed;
  spec.horizon = sim::Time::seconds(o.time_s);
  if (o.red) {
    net::RedConfig rc;
    rc.buffer_packets = std::max<std::uint64_t>(o.buffer, 3);
    rc.max_th = rc.buffer_packets * 0.8;
    rc.min_th = rc.buffer_packets * 0.2;
    rc.ecn = o.ecn;
    rc.mean_pkt_tx = sim::Time::transmission(1000, 800'000);
    spec.bottleneck = harness::QueueSpec::red_queue(rc);
  } else {
    spec.bottleneck = harness::QueueSpec::drop_tail(o.buffer);
  }
  spec.add_flows(o.flows, {.variant = o.variant, .bytes = o.bytes, .tcp = tcfg},
                 sim::Time::milliseconds(200));
  harness::Scenario sc{spec};

  if (o.loss > 0)
    sc.topology().bottleneck().set_loss_model(
        std::make_unique<net::UniformLossModel>(o.loss, o.seed));
  if (o.ack_loss > 0)
    sc.topology().reverse_bottleneck().set_loss_model(
        std::make_unique<net::UniformLossModel>(o.ack_loss, o.seed + 1,
                                                /*data_only=*/false));
  if (o.reorder > 0)
    sc.topology().bottleneck().set_reorder_model(
        std::make_unique<net::ReorderModel>(
            o.reorder, sim::Time::milliseconds(300), o.seed + 2));
  sc.run();

  stats::Table table{{"flow", "goodput (kbit/s)", "done", "rtx", "timeouts",
                      "ecn reductions"}};
  double total = 0;
  for (int i = 0; i < o.flows; ++i) {
    const auto& st = sc.sender(i).stats();
    const double kbps =
        sc.flow(i).receiver->bytes_in_order() * 8.0 / o.time_s / 1e3;
    total += kbps;
    table.add_row({stats::Table::cell("%d", i + 1),
                   stats::Table::cell("%.1f", kbps),
                   sc.sender(i).complete() ? "yes" : "-",
                   stats::Table::cell("%llu",
                                      static_cast<unsigned long long>(st.retransmissions)),
                   stats::Table::cell("%llu", static_cast<unsigned long long>(st.timeouts)),
                   stats::Table::cell("%llu",
                                      static_cast<unsigned long long>(st.ecn_reductions))});
  }
  std::printf("%s x%d over %s (buffer %llu pkts), %.0f s\n",
              app::to_string(o.variant), o.flows,
              o.red ? (o.ecn ? "RED+ECN" : "RED") : "drop-tail",
              static_cast<unsigned long long>(o.buffer), o.time_s);
  table.print();
  net::RedQueue* red = sc.red();
  std::printf("aggregate: %.1f of 800 kbit/s; bottleneck drops %llu%s\n",
              total,
              static_cast<unsigned long long>(
                  sc.topology().bottleneck().queue().stats().dropped),
              red ? stats::Table::cell(", ECN marks %llu",
                                       static_cast<unsigned long long>(red->ecn_marks()))
                        .c_str()
                  : "");
  return 0;
}

// Canonical topology presets.
//
// Presets are spec factories: they return a GraphSpec plus the node/link
// indices a driver needs to place flows — a plain value that can ride
// inside a harness::ScenarioSpec, be mutated per grid point, or be built
// directly into a TopologyGraph. multi_dumbbell(n, n) is the paper's
// Figure 4 dumbbell (a dumbbell-mode ScenarioSpec resolves to it); the
// parking lot is the multi-bottleneck shape the related work stresses RR
// with.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "topo/graph.hpp"

namespace rrtcp::topo {

// Parking lot: a chain of k bottlenecks with one end-to-end "long" path
// plus a one-hop cross path per bottleneck.
//
//   A --- R0 ==== R1 ==== R2 ... ==== Rk --- B        (long: A -> B)
//         |      /  \    /  \          |
//         C0 --/    D0  C1   D1 ...    Dk-1           (cross i: Ci -> Di)
//
// Every R_i -> R_{i+1} link carries the queue under test; reverse and
// access links are fast and effectively lossless, so all congestion lives
// on the forward chain — the multi-bottleneck generalization of Table 3.
struct ParkingLotConfig {
  int n_bottlenecks = 3;
  std::int64_t bottleneck_bps = 800'000;            // per hop, Table 3 rate
  sim::Time hop_delay = sim::Time::milliseconds(20);
  std::int64_t side_bps = 10'000'000;
  sim::Time side_delay = sim::Time::zero();
  std::uint64_t queue_packets = 8;  // each forward bottleneck buffer
  // Optional per-hop queue factory (e.g. RED); wins over queue_packets.
  std::function<std::unique_ptr<net::QueueDisc>(sim::Simulator&)>
      make_bottleneck_queue = {};
  std::uint64_t reverse_queue_packets = 10'000;
  std::uint64_t side_queue_packets = 10'000;
};

struct ParkingLotLayout {
  GraphSpec spec;
  std::vector<int> routers;           // node indices R0..Rk
  std::vector<int> bottleneck_links;  // link indices R_i -> R_{i+1}
  int long_src = -1;                  // host A
  int long_dst = -1;                  // host B
  std::vector<int> cross_src;         // host C_i (enters at R_i)
  std::vector<int> cross_dst;         // host D_i (exits at R_{i+1})
};

ParkingLotLayout parking_lot(const ParkingLotConfig& cfg);

// N x M dumbbell: N sender hosts and M receiver hosts around one
// bottleneck pair. N = M is the paper's Figure 4 with Table 3 defaults;
// N > M is the many-flows-few-sinks aggregation shape (mean-field RED
// regimes run hundreds of senders into a handful of sinks).
//
//   S1 ---\                      /--- K1
//   S2 ----+-- R1 ======= R2 ---+---- K2
//   SN ---/    (bottleneck)      \--- KM
//
// Layout: nodes R1 = 0, R2 = 1, S1..SN, K1..KM; links R1->R2 = 0 (the
// queue under test), R2->R1 = 1 (the ACK path, deep drop-tail), then
// S_i->R1, R1->S_i per sender and K_j->R2, R2->K_j per receiver.
struct MultiDumbbellConfig {
  int n_senders = 4;
  int m_receivers = 2;
  std::int64_t bottleneck_bps = 800'000;
  sim::Time bottleneck_delay = sim::Time::milliseconds(100);
  std::int64_t side_bps = 10'000'000;
  sim::Time side_delay = sim::Time::zero();
  std::uint64_t queue_packets = 8;
  std::function<std::unique_ptr<net::QueueDisc>(sim::Simulator&)>
      make_bottleneck_queue = {};
  std::uint64_t reverse_queue_packets = 10'000;
  std::uint64_t side_queue_packets = 10'000;
};

struct MultiDumbbellLayout {
  GraphSpec spec;
  int r1 = -1;
  int r2 = -1;
  int bottleneck_link = -1;          // R1 -> R2
  int reverse_bottleneck_link = -1;  // R2 -> R1
  std::vector<int> senders;          // N host indices behind R1
  std::vector<int> receivers;        // M host indices behind R2
};

MultiDumbbellLayout multi_dumbbell(const MultiDumbbellConfig& cfg);

}  // namespace rrtcp::topo

// TopologyGraph: spec building, BFS routing (with the deterministic
// lowest-link-index tie-break), explicit route overrides, and the pinned
// layout a dumbbell ScenarioSpec resolves to.
#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "harness/scenario.hpp"
#include "sim/simulator.hpp"
#include "topo/graph.hpp"
#include "topo/presets.hpp"

namespace rrtcp {
namespace {

using topo::GraphSpec;
using topo::TopologyGraph;

TEST(GraphSpec, DuplexAddsTwoLinksAndAutoNames) {
  GraphSpec g;
  const int a = g.add_node("A");
  const int b = g.add_node("B");
  const int fwd = g.add_duplex(a, b, 1'000'000, sim::Time::milliseconds(5));
  EXPECT_EQ(g.n_nodes(), 2);
  ASSERT_EQ(g.links.size(), 2u);
  EXPECT_EQ(g.links[0].from, a);
  EXPECT_EQ(g.links[0].to, b);
  EXPECT_EQ(g.links[1].from, b);
  EXPECT_EQ(g.links[1].to, a);
  EXPECT_EQ(fwd, 0);

  sim::Simulator sim;
  TopologyGraph topo{sim, g};
  EXPECT_EQ(topo.spec().links[0].name, "A->B");
  EXPECT_EQ(topo.spec().links[1].name, "B->A");
}

TEST(TopologyGraph, ChainRoutesFollowTheOnlyPath) {
  GraphSpec g;
  const int a = g.add_node("A");
  const int b = g.add_node("B");
  const int c = g.add_node("C");
  g.add_link({.from = a, .to = b});  // link 0
  g.add_link({.from = b, .to = c});  // link 1

  sim::Simulator sim;
  TopologyGraph topo{sim, g};
  EXPECT_EQ(topo.route(a, c), 0);
  EXPECT_EQ(topo.route(b, c), 1);
  EXPECT_EQ(topo.path_links(a, c), (std::vector<int>{0, 1}));
  EXPECT_EQ(topo.route(a, a), -1);  // no self route
}

TEST(TopologyGraph, BfsBreaksTiesByLowestLinkIndex) {
  // Diamond: two equal-hop paths A->D; BFS must pick the one through the
  // lower-indexed first link so the same spec always routes identically.
  GraphSpec g;
  const int a = g.add_node("A");
  const int b = g.add_node("B");
  const int c = g.add_node("C");
  const int d = g.add_node("D");
  g.add_link({.from = a, .to = b});  // 0
  g.add_link({.from = a, .to = c});  // 1
  g.add_link({.from = b, .to = d});  // 2
  g.add_link({.from = c, .to = d});  // 3

  sim::Simulator sim;
  TopologyGraph topo{sim, g};
  EXPECT_EQ(topo.path_links(a, d), (std::vector<int>{0, 2}));
}

TEST(TopologyGraph, ExplicitRouteOverridesShortestPath) {
  GraphSpec g;
  const int a = g.add_node("A");
  const int b = g.add_node("B");
  const int c = g.add_node("C");
  const int d = g.add_node("D");
  g.add_link({.from = a, .to = b});  // 0
  g.add_link({.from = a, .to = c});  // 1
  g.add_link({.from = b, .to = d});  // 2
  g.add_link({.from = c, .to = d});  // 3
  g.add_route(a, d, 1);  // force the C branch at A

  sim::Simulator sim;
  TopologyGraph topo{sim, g};
  EXPECT_EQ(topo.path_links(a, d), (std::vector<int>{1, 3}));
  // Other destinations are untouched by the override.
  EXPECT_EQ(topo.route(a, b), 0);
}

TEST(TopologyGraph, UnreachableDestinationRoutesNowhere) {
  GraphSpec g;
  const int a = g.add_node("A");
  const int b = g.add_node("B");
  const int island = g.add_node("X");  // no links at all
  g.add_link({.from = a, .to = b});

  sim::Simulator sim;
  TopologyGraph topo{sim, g};
  EXPECT_EQ(topo.route(a, island), -1);
  EXPECT_TRUE(topo.path_links(a, island).empty());
  EXPECT_EQ(topo.route(b, a), -1);  // directed: no reverse link exists
}

TEST(TopologyGraph, LinkBetweenFindsFirstMatch) {
  GraphSpec g;
  const int a = g.add_node("A");
  const int b = g.add_node("B");
  g.add_duplex(a, b, 1'000'000, sim::Time::zero());

  sim::Simulator sim;
  TopologyGraph topo{sim, g};
  EXPECT_EQ(topo.link_between(a, b), &topo.link(0));
  EXPECT_EQ(topo.link_between(b, a), &topo.link(1));
  EXPECT_EQ(topo.link_between(a, a), nullptr);
}

// A dumbbell spec resolves to multi_dumbbell(n, n), and its layout is
// load-bearing: DumbbellView, the fuzzer's injection points and the chaos
// soak all address R1/R2 and the bottleneck pair by index. Pin it.
TEST(DumbbellOnGraph, SeedLayoutIsPinned) {
  harness::ScenarioSpec spec;
  spec.add_flows(2, {});
  const harness::ScenarioSpec r = harness::Scenario::resolve(spec);
  const GraphSpec& g = r.graph;

  EXPECT_EQ(g.nodes, (std::vector<std::string>{"R1", "R2", "S1", "S2", "K1",
                                               "K2"}));
  std::vector<std::string> names;
  for (const topo::LinkSpec& l : g.links) names.push_back(l.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "R1->R2", "R2->R1", "S1->R1", "R1->S1", "S2->R1",
                       "R1->S2", "K1->R2", "R2->K1", "K2->R2", "R2->K2"}));
  EXPECT_EQ(r.audited_links, (std::vector<int>{0, 1}));
  EXPECT_EQ(r.flows[0].src_node, 2);  // S1 -> K1
  EXPECT_EQ(r.flows[0].dst_node, 4);
  EXPECT_EQ(r.flows[1].src_node, 3);  // S2 -> K2
  EXPECT_EQ(r.flows[1].dst_node, 5);

  // Table 3: 0.8 Mbps / 100 ms bottlenecks (8-packet forward buffer, deep
  // reverse one), 10 Mbps zero-delay access links.
  EXPECT_EQ(g.links[0].bandwidth_bps, 800'000);
  EXPECT_EQ(g.links[0].delay, sim::Time::milliseconds(100));
  EXPECT_EQ(g.links[0].queue_packets, 8u);
  EXPECT_EQ(g.links[1].bandwidth_bps, 800'000);
  EXPECT_EQ(g.links[1].queue_packets, 10'000u);
  EXPECT_EQ(g.links[2].bandwidth_bps, 10'000'000);
  EXPECT_EQ(g.links[2].delay, sim::Time::zero());

  // Data path S1 -> K1: access link, forward bottleneck, exit link;
  // ACK path K1 -> S1: the mirror through the reverse bottleneck.
  sim::Simulator sim;
  TopologyGraph topo{sim, g};
  EXPECT_EQ(topo.path_links(2, 4), (std::vector<int>{2, 0, 7}));
  EXPECT_EQ(topo.path_links(4, 2), (std::vector<int>{6, 1, 3}));
}

// Shapes the dumbbell spec does not offer are edits of its resolved graph:
// here a slower, shorter ACK path on link 1.
TEST(DumbbellOnGraph, ReverseBottleneckOverridesApply) {
  harness::ScenarioSpec spec;
  spec.horizon = sim::Time::seconds(5);
  spec.add_flow({.variant = app::Variant::kNewReno, .bytes = 20'000});
  harness::ScenarioSpec r = harness::Scenario::resolve(spec);
  r.graph.links[1].bandwidth_bps = 200'000;
  r.graph.links[1].delay = sim::Time::milliseconds(40);

  harness::Scenario sc{r};
  EXPECT_EQ(sc.graph().link(1).config().bandwidth_bps, 200'000);
  EXPECT_EQ(sc.graph().link(1).config().prop_delay,
            sim::Time::milliseconds(40));
  // Forward bottleneck keeps the Table 3 defaults.
  EXPECT_EQ(sc.graph().link(0).config().bandwidth_bps, 800'000);
  sc.run();
  EXPECT_TRUE(sc.sender(0).complete());
}

// The preset routes data and ACKs between a host pair in three hops each
// way.
TEST(Dumbbell, EndToEndPathWorksBothWays) {
  sim::Simulator sim;
  const topo::MultiDumbbellLayout md =
      topo::multi_dumbbell({.n_senders = 2, .m_receivers = 2});
  TopologyGraph g{sim, md.spec};
  net::Node& s2 = g.node(md.senders[1]);
  net::Node& k2 = g.node(md.receivers[1]);

  test::CaptureAgent rcv, snd;
  k2.attach_agent(3, &rcv);
  s2.attach_agent(3, &snd);

  s2.inject(test::make_data(3, 0, 1000, k2.id()));   // data S2 -> K2
  k2.inject(test::make_ack(3, 1000, {}, s2.id()));  // ACK K2 -> S2
  sim.run();
  ASSERT_EQ(rcv.packets.size(), 1u);
  ASSERT_EQ(snd.packets.size(), 1u);
  // Each packet crossed exactly its three links, and no link carried both.
  const int s = md.senders[1];
  const int k = md.receivers[1];
  const std::set<std::pair<int, int>> path = {
      {s, md.r1}, {md.r1, md.r2}, {md.r2, k},   // data S->R1, R1->R2, R2->K
      {k, md.r2}, {md.r2, md.r1}, {md.r1, s}};  // ACK K->R2, R2->R1, R1->S
  for (int i = 0; i < g.n_links(); ++i) {
    const topo::LinkSpec& l = md.spec.links[static_cast<std::size_t>(i)];
    EXPECT_EQ(g.link(i).packets_delivered(),
              path.count({l.from, l.to}) > 0 ? 1u : 0u)
        << "link " << l.from << "->" << l.to;
  }
}

TEST(ParkingLot, LongPathCrossesEveryBottleneck) {
  topo::ParkingLotConfig cfg;
  cfg.n_bottlenecks = 3;
  const topo::ParkingLotLayout lay = topo::parking_lot(cfg);
  ASSERT_EQ(lay.routers.size(), 4u);       // R0..R3
  ASSERT_EQ(lay.bottleneck_links.size(), 3u);
  ASSERT_EQ(lay.cross_src.size(), 3u);

  sim::Simulator sim;
  TopologyGraph g{sim, lay.spec};
  const std::vector<int> path = g.path_links(lay.long_src, lay.long_dst);
  for (int l : lay.bottleneck_links)
    EXPECT_NE(std::find(path.begin(), path.end(), l), path.end())
        << "long path misses bottleneck link " << l;

  // Cross flow i crosses ONLY its own bottleneck.
  for (std::size_t i = 0; i < lay.cross_src.size(); ++i) {
    const std::vector<int> cross = g.path_links(
        lay.cross_src[i], lay.cross_dst[i]);
    for (std::size_t j = 0; j < lay.bottleneck_links.size(); ++j) {
      const bool on_path =
          std::find(cross.begin(), cross.end(), lay.bottleneck_links[j]) !=
          cross.end();
      EXPECT_EQ(on_path, i == j) << "cross " << i << " vs bottleneck " << j;
    }
  }
}

TEST(MultiDumbbell, EveryPairCrossesTheBottleneck) {
  topo::MultiDumbbellConfig cfg;
  cfg.n_senders = 4;
  cfg.m_receivers = 2;
  const topo::MultiDumbbellLayout lay = topo::multi_dumbbell(cfg);
  ASSERT_EQ(lay.senders.size(), 4u);
  ASSERT_EQ(lay.receivers.size(), 2u);

  sim::Simulator sim;
  TopologyGraph g{sim, lay.spec};
  for (int s : lay.senders)
    for (int r : lay.receivers) {
      const std::vector<int> path = g.path_links(s, r);
      EXPECT_NE(std::find(path.begin(), path.end(), lay.bottleneck_link),
                path.end())
          << "path " << s << " -> " << r << " avoids the bottleneck";
      const std::vector<int> back = g.path_links(r, s);
      EXPECT_NE(std::find(back.begin(), back.end(),
                          lay.reverse_bottleneck_link),
                back.end());
    }
}

}  // namespace
}  // namespace rrtcp

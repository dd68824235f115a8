// Graph partitioner invariants: every node in exactly one shard, links
// owned by their tail, zero-delay links never cut, lookahead = min cut
// delay, and full determinism of the assignment.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "topo/partition.hpp"
#include "topo/presets.hpp"

namespace rrtcp::topo {
namespace {

GraphSpec chain4(sim::Time delay) {
  GraphSpec g;
  for (int i = 0; i < 4; ++i) g.add_node("N" + std::to_string(i));
  for (int i = 0; i < 3; ++i) g.add_duplex(i, i + 1, 1'000'000, delay);
  return g;
}

void check_invariants(const GraphSpec& g, const Partition& p) {
  ASSERT_EQ(p.node_shard.size(), g.nodes.size());
  for (const int s : p.node_shard) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, p.n_shards);
  }
  // cut_links are exactly the links whose head lives in another shard than
  // their tail, ascending and with positive delay.
  std::set<int> cuts(p.cut_links.begin(), p.cut_links.end());
  EXPECT_EQ(cuts.size(), p.cut_links.size());
  for (std::size_t li = 0; li < g.links.size(); ++li) {
    const LinkSpec& ls = g.links[li];
    const bool is_cut = p.node_shard[static_cast<std::size_t>(ls.from)] !=
                        p.node_shard[static_cast<std::size_t>(ls.to)];
    EXPECT_EQ(cuts.count(static_cast<int>(li)) == 1, is_cut) << "link " << li;
    if (is_cut) {
      EXPECT_GT(ls.delay, sim::Time::zero()) << "zero-delay link cut";
      EXPECT_GE(ls.delay, p.lookahead);
    }
  }
  if (p.n_shards > 1) {
    EXPECT_GT(p.lookahead, sim::Time::zero());
  }
  // shard_nodes is the inverse of node_shard.
  ASSERT_EQ(p.shard_nodes.size(), static_cast<std::size_t>(p.n_shards));
  std::size_t total = 0;
  for (int s = 0; s < p.n_shards; ++s) {
    EXPECT_FALSE(p.shard_nodes[static_cast<std::size_t>(s)].empty());
    for (const int v : p.shard_nodes[static_cast<std::size_t>(s)])
      EXPECT_EQ(p.node_shard[static_cast<std::size_t>(v)], s);
    total += p.shard_nodes[static_cast<std::size_t>(s)].size();
  }
  EXPECT_EQ(total, g.nodes.size());
}

TEST(Partition, RequestOfOneIsTrivial) {
  const GraphSpec g = chain4(sim::Time::milliseconds(1));
  const Partition p = partition_graph(g, 1);
  EXPECT_EQ(p.n_shards, 1);
  EXPECT_TRUE(p.cut_links.empty());
  EXPECT_EQ(p.lookahead, sim::Time::zero());
  check_invariants(g, p);
}

TEST(Partition, ChainSplitsWithPositiveLookahead) {
  const GraphSpec g = chain4(sim::Time::milliseconds(2));
  const Partition p = partition_graph(g, 2);
  EXPECT_EQ(p.n_shards, 2);
  EXPECT_FALSE(p.cut_links.empty());
  EXPECT_EQ(p.lookahead, sim::Time::milliseconds(2));
  check_invariants(g, p);
}

TEST(Partition, ZeroDelayLinksAreNeverCut) {
  GraphSpec g;
  g.add_node("A");
  g.add_node("B");
  g.add_node("C");
  g.add_duplex(0, 1, 1'000'000, sim::Time::zero());  // A-B glued together
  g.add_duplex(1, 2, 1'000'000, sim::Time::milliseconds(3));
  const Partition p = partition_graph(g, 2);
  EXPECT_EQ(p.n_shards, 2);
  EXPECT_EQ(p.node_shard[0], p.node_shard[1]);
  EXPECT_NE(p.node_shard[1], p.node_shard[2]);
  EXPECT_EQ(p.lookahead, sim::Time::milliseconds(3));
  check_invariants(g, p);
}

TEST(Partition, AllZeroDelayCollapsesToOneShard) {
  GraphSpec g;
  g.add_node("A");
  g.add_node("B");
  g.add_node("C");
  g.add_duplex(0, 1, 1'000'000, sim::Time::zero());
  g.add_duplex(1, 2, 1'000'000, sim::Time::zero());
  const Partition p = partition_graph(g, 4);
  EXPECT_EQ(p.n_shards, 1);
  EXPECT_TRUE(p.cut_links.empty());
  check_invariants(g, p);
}

TEST(Partition, ShardCountCapsAtComponentCount) {
  GraphSpec g;
  g.add_node("A");
  g.add_node("B");
  g.add_duplex(0, 1, 1'000'000, sim::Time::milliseconds(1));
  const Partition p = partition_graph(g, 8);
  EXPECT_EQ(p.n_shards, 2);
  check_invariants(g, p);
}

TEST(Partition, DeterministicForSameInput) {
  MultiDumbbellConfig mdc;
  mdc.n_senders = 6;
  mdc.m_receivers = 3;
  mdc.side_delay = sim::Time::milliseconds(1);
  const MultiDumbbellLayout md = multi_dumbbell(mdc);
  const Partition a = partition_graph(md.spec, 4);
  const Partition b = partition_graph(md.spec, 4);
  EXPECT_EQ(a.n_shards, b.n_shards);
  EXPECT_EQ(a.node_shard, b.node_shard);
  EXPECT_EQ(a.cut_links, b.cut_links);
  EXPECT_EQ(a.lookahead, b.lookahead);
  EXPECT_EQ(a.shard_nodes, b.shard_nodes);
}

TEST(Partition, MultiDumbbellWithSideDelaySplitsWide) {
  MultiDumbbellConfig mdc;
  mdc.n_senders = 8;
  mdc.m_receivers = 4;
  mdc.side_delay = sim::Time::milliseconds(5);
  const MultiDumbbellLayout md = multi_dumbbell(mdc);
  for (const int want : {2, 4, 8}) {
    const Partition p = partition_graph(md.spec, want);
    EXPECT_EQ(p.n_shards, want);
    check_invariants(md.spec, p);
  }
}

TEST(RouteTable, EntriesLeaveTheirNode) {
  ParkingLotConfig plc;
  plc.n_bottlenecks = 3;
  const ParkingLotLayout lot = parking_lot(plc);
  const std::vector<int> table = compute_route_table(lot.spec);
  const int n = lot.spec.n_nodes();
  ASSERT_EQ(table.size(), static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int at = 0; at < n; ++at) {
    for (int dst = 0; dst < n; ++dst) {
      const int li = table[static_cast<std::size_t>(at) *
                               static_cast<std::size_t>(n) +
                           static_cast<std::size_t>(dst)];
      if (at == dst) continue;
      // The parking lot is connected: every pair routes, and the chosen
      // link departs from `at` — the property sharded forwarding needs
      // (a node's next hop is always a link its own shard owns).
      ASSERT_GE(li, 0) << at << " -> " << dst;
      EXPECT_EQ(lot.spec.links[static_cast<std::size_t>(li)].from, at);
    }
  }
}

TEST(RouteTable, UnreachableIsMinusOne) {
  GraphSpec g;
  g.add_node("A");
  g.add_node("B");  // isolated
  const std::vector<int> table = compute_route_table(g);
  EXPECT_EQ(table[0 * 2 + 1], -1);
  EXPECT_EQ(table[1 * 2 + 0], -1);
}

}  // namespace
}  // namespace rrtcp::topo

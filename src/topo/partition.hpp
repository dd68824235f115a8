// Graph partitioner for the sharded simulation engine (src/pdes).
//
// A GraphSpec is cut ONLY at links: every node lands in exactly one shard,
// and a link belongs to the shard of its tail (`from`) node. A link whose
// head lives in a different shard is a CUT link; the sharded engine turns
// it into a cross-shard channel (net::RemoteSink) and its propagation
// delay funds the conservative lookahead.
//
// Zero-delay links can never be cut — a cut with zero latency gives zero
// lookahead and the conservative scheduler could not advance. The
// partitioner therefore first contracts all zero-delay links (union-find),
// then balances the resulting components across shards with a
// deterministic greedy bin-packing (largest component first, ties by
// lowest node index; least-loaded shard wins, ties by lowest shard index).
// The same spec and shard count always produce the same partition.
#pragma once

#include <vector>

#include "sim/time.hpp"
#include "topo/graph.hpp"

namespace rrtcp::topo {

struct Partition {
  // Actual shard count: min(requested, number of contractable components),
  // never less than 1.
  int n_shards = 1;
  std::vector<int> node_shard;  // node index -> shard index
  // Links whose head is in a different shard than their tail, ascending.
  std::vector<int> cut_links;
  // min(delay) over cut_links; zero when there are no cut links. Strictly
  // positive whenever n_shards > 1 (zero-delay links are never cut).
  sim::Time lookahead = sim::Time::zero();
  // shard -> its node indices, ascending within each shard.
  std::vector<std::vector<int>> shard_nodes;
};

// Partition `spec` into at most `requested_shards` shards. A request of 1
// (or fewer) returns the trivial single-shard partition with no cut links.
Partition partition_graph(const GraphSpec& spec, int requested_shards);

// The n_nodes x n_nodes next-hop table for `spec`: entry [at*n + dst] is
// the link index a packet at `at` destined for `dst` departs on, or -1 when
// unreachable. Deterministic shortest path (BFS hop count, lowest link
// index wins ties) with explicit RouteSpec entries overriding. TopologyGraph
// computes it on the GLOBAL graph whatever its engine assignment, so
// forwarding is identical at every shard count.
std::vector<int> compute_route_table(const GraphSpec& spec);

}  // namespace rrtcp::topo

#include "topo/partition.hpp"

#include <algorithm>
#include <queue>

#include "sim/assert.hpp"

namespace rrtcp::topo {
namespace {

// Plain union-find with path halving; union by attaching the larger root
// index under the smaller so component representatives are stable.
int uf_find(std::vector<int>& parent, int x) {
  while (parent[static_cast<std::size_t>(x)] != x) {
    parent[static_cast<std::size_t>(x)] =
        parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    x = parent[static_cast<std::size_t>(x)];
  }
  return x;
}

void uf_union(std::vector<int>& parent, int a, int b) {
  a = uf_find(parent, a);
  b = uf_find(parent, b);
  if (a == b) return;
  if (a < b)
    parent[static_cast<std::size_t>(b)] = a;
  else
    parent[static_cast<std::size_t>(a)] = b;
}

}  // namespace

Partition partition_graph(const GraphSpec& spec, int requested_shards) {
  RRTCP_ASSERT_MSG(!spec.empty(), "cannot partition an empty graph");
  const int n = spec.n_nodes();

  Partition part;
  part.node_shard.assign(static_cast<std::size_t>(n), 0);

  if (requested_shards <= 1) {
    part.shard_nodes.resize(1);
    for (int v = 0; v < n; ++v) part.shard_nodes[0].push_back(v);
    return part;
  }

  // Contract zero-delay links: their endpoints must share a shard.
  std::vector<int> parent(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) parent[static_cast<std::size_t>(v)] = v;
  for (const LinkSpec& ls : spec.links)
    if (ls.delay <= sim::Time::zero()) uf_union(parent, ls.from, ls.to);

  // Components keyed by representative (the lowest node index in each).
  std::vector<int> comp_of(static_cast<std::size_t>(n));
  std::vector<int> reps;
  for (int v = 0; v < n; ++v) {
    const int r = uf_find(parent, v);
    if (r == v) reps.push_back(v);
  }
  std::vector<int> comp_index(static_cast<std::size_t>(n), -1);
  for (std::size_t c = 0; c < reps.size(); ++c)
    comp_index[static_cast<std::size_t>(reps[c])] = static_cast<int>(c);
  std::vector<int> comp_size(reps.size(), 0);
  for (int v = 0; v < n; ++v) {
    const int c = comp_index[static_cast<std::size_t>(uf_find(parent, v))];
    comp_of[static_cast<std::size_t>(v)] = c;
    ++comp_size[static_cast<std::size_t>(c)];
  }

  const int n_comps = static_cast<int>(reps.size());
  part.n_shards = std::min(requested_shards, n_comps);

  // Greedy balanced assignment: largest component first (ties broken by
  // lower representative node index — reps[] is already ascending, and
  // stable_sort keeps that order among equals), into the least-loaded
  // shard (ties to the lowest shard index).
  std::vector<int> order(static_cast<std::size_t>(n_comps));
  for (int c = 0; c < n_comps; ++c) order[static_cast<std::size_t>(c)] = c;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return comp_size[static_cast<std::size_t>(a)] >
           comp_size[static_cast<std::size_t>(b)];
  });
  std::vector<int> comp_shard(static_cast<std::size_t>(n_comps), 0);
  std::vector<int> load(static_cast<std::size_t>(part.n_shards), 0);
  for (int c : order) {
    int best = 0;
    for (int s = 1; s < part.n_shards; ++s)
      if (load[static_cast<std::size_t>(s)] <
          load[static_cast<std::size_t>(best)])
        best = s;
    comp_shard[static_cast<std::size_t>(c)] = best;
    load[static_cast<std::size_t>(best)] +=
        comp_size[static_cast<std::size_t>(c)];
  }

  part.shard_nodes.resize(static_cast<std::size_t>(part.n_shards));
  for (int v = 0; v < n; ++v) {
    const int s =
        comp_shard[static_cast<std::size_t>(comp_of[static_cast<std::size_t>(v)])];
    part.node_shard[static_cast<std::size_t>(v)] = s;
    part.shard_nodes[static_cast<std::size_t>(s)].push_back(v);
  }

  bool have_cut = false;
  for (std::size_t li = 0; li < spec.links.size(); ++li) {
    const LinkSpec& ls = spec.links[li];
    const int s_from = part.node_shard[static_cast<std::size_t>(ls.from)];
    const int s_to = part.node_shard[static_cast<std::size_t>(ls.to)];
    if (s_from == s_to) continue;
    RRTCP_ASSERT_MSG(ls.delay > sim::Time::zero(),
                     "cut link with zero delay (lookahead would be zero)");
    part.cut_links.push_back(static_cast<int>(li));
    if (!have_cut || ls.delay < part.lookahead) part.lookahead = ls.delay;
    have_cut = true;
  }
  return part;
}

std::vector<int> compute_route_table(const GraphSpec& spec) {
  const int n = spec.n_nodes();
  const int n_links = static_cast<int>(spec.links.size());
  std::vector<int> table(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n), -1);

  // Outgoing adjacency, in link-index order (the deterministic tie-break:
  // among equal-hop choices the lowest link index wins).
  std::vector<std::vector<int>> out(static_cast<std::size_t>(n));
  for (int li = 0; li < n_links; ++li)
    out[static_cast<std::size_t>(spec.links[static_cast<std::size_t>(li)].from)]
        .push_back(li);
  // Incoming adjacency for the reverse BFS relaxation.
  std::vector<std::vector<int>> in(static_cast<std::size_t>(n));
  for (int li = 0; li < n_links; ++li)
    in[static_cast<std::size_t>(spec.links[static_cast<std::size_t>(li)].to)]
        .push_back(li);

  // One reverse BFS per destination gives hop counts; each node then picks
  // its lowest-indexed outgoing link that makes progress.
  std::vector<int> dist(static_cast<std::size_t>(n));
  for (int dst = 0; dst < n; ++dst) {
    std::fill(dist.begin(), dist.end(), -1);
    dist[static_cast<std::size_t>(dst)] = 0;
    std::queue<int> bfs;
    bfs.push(dst);
    while (!bfs.empty()) {
      const int v = bfs.front();
      bfs.pop();
      // Relax over links ENTERING v: their tail is one hop further out.
      for (int li : in[static_cast<std::size_t>(v)]) {
        const LinkSpec& ls = spec.links[static_cast<std::size_t>(li)];
        if (dist[static_cast<std::size_t>(ls.from)] != -1) continue;
        dist[static_cast<std::size_t>(ls.from)] =
            dist[static_cast<std::size_t>(v)] + 1;
        bfs.push(ls.from);
      }
    }
    for (int at = 0; at < n; ++at) {
      if (at == dst || dist[static_cast<std::size_t>(at)] == -1) continue;
      for (int li : out[static_cast<std::size_t>(at)]) {
        const LinkSpec& ls = spec.links[static_cast<std::size_t>(li)];
        if (dist[static_cast<std::size_t>(ls.to)] ==
            dist[static_cast<std::size_t>(at)] - 1) {
          table[static_cast<std::size_t>(at) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(dst)] = li;
          break;
        }
      }
    }
  }

  // Explicit entries override.
  for (const RouteSpec& r : spec.routes) {
    RRTCP_ASSERT(r.at >= 0 && r.at < n && r.dst >= 0 && r.dst < n);
    RRTCP_ASSERT(r.link >= 0 && r.link < n_links);
    RRTCP_ASSERT_MSG(spec.links[static_cast<std::size_t>(r.link)].from == r.at,
                     "route entry names a link that does not leave its node");
    table[static_cast<std::size_t>(r.at) * static_cast<std::size_t>(n) +
          static_cast<std::size_t>(r.dst)] = r.link;
  }
  return table;
}

}  // namespace rrtcp::topo

// Equivalence suite for the allocation-free graph-algorithm core.
//
// The CSR + GraphScratch rewrite (PR 3) must not change any routing result
// bit. These tests pin that down by embedding the pre-refactor
// implementations verbatim as reference oracles and asserting bit-identical
// results (paths, float distances, probe counters, capacity matrices) on
// fixed-seed fig-scale topologies, plus scratch-reuse determinism: a
// workspace reused across queries behaves exactly like a fresh one.
#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <queue>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "graph/bfs.h"
#include "graph/dijkstra.h"
#include "graph/edge_disjoint.h"
#include "graph/maxflow.h"
#include "graph/scratch.h"
#include "graph/topology.h"
#include "graph/yen.h"
#include "ledger/htlc.h"
#include "ledger/network_state.h"
#include "routing/flash/elephant.h"
#include "routing/flash/flash_router.h"
#include "routing/flash/mice.h"
#include "testutil.h"
#include "util/rng.h"

namespace flash {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations: the pre-refactor code, kept verbatim (modulo
// naming) so the rewrite has a fixed behavioral anchor.
// ---------------------------------------------------------------------------

struct RefQueueEntry {
  double dist;
  NodeId node;
  bool operator>(const RefQueueEntry& o) const { return dist > o.dist; }
};

DijkstraResult ref_dijkstra(const Graph& g, NodeId s, NodeId t,
                            const EdgeWeight& weight = {},
                            const std::vector<char>& banned_nodes = {}) {
  DijkstraResult result;
  if (!banned_nodes.empty() &&
      (banned_nodes[s] || (t != kInvalidNode && banned_nodes[t]))) {
    return result;
  }
  if (s == t) {
    result.found = true;
    result.distance = 0.0;
    return result;
  }
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.num_nodes(), inf);
  std::vector<EdgeId> parent(g.num_nodes(), kInvalidEdge);
  std::priority_queue<RefQueueEntry, std::vector<RefQueueEntry>,
                      std::greater<>>
      pq;
  dist[s] = 0.0;
  pq.push({0.0, s});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == t) break;
    for (EdgeId e : g.out_edges(u)) {
      const NodeId v = g.to(e);
      if (!banned_nodes.empty() && banned_nodes[v]) continue;
      const double w = weight ? weight(e) : 1.0;
      if (w == kEdgeBanned) continue;
      const double nd = d + w;
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = e;
        pq.push({nd, v});
      }
    }
  }
  if (dist[t] == inf) return result;
  result.found = true;
  result.distance = dist[t];
  NodeId cur = t;
  while (cur != s) {
    const EdgeId e = parent[cur];
    result.path.push_back(e);
    cur = g.from(e);
  }
  std::reverse(result.path.begin(), result.path.end());
  return result;
}

std::vector<EdgeId> ref_bfs_parents(const Graph& g, NodeId src, NodeId stop_at,
                                    const EdgeFilter& admit) {
  std::vector<EdgeId> parent(g.num_nodes(), kInvalidEdge);
  std::vector<char> seen(g.num_nodes(), 0);
  std::deque<NodeId> queue;
  seen[src] = 1;
  queue.push_back(src);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (EdgeId e : g.out_edges(u)) {
      const NodeId v = g.to(e);
      if (seen[v]) continue;
      if (admit && !admit(e)) continue;
      seen[v] = 1;
      parent[v] = e;
      if (v == stop_at) return parent;
      queue.push_back(v);
    }
  }
  return parent;
}

Path ref_bfs_path(const Graph& g, NodeId s, NodeId t,
                  const EdgeFilter& admit = {}) {
  if (s == t) return {};
  const auto parent = ref_bfs_parents(g, s, t, admit);
  if (parent[t] == kInvalidEdge) return {};
  Path path;
  NodeId cur = t;
  while (cur != s) {
    const EdgeId e = parent[cur];
    path.push_back(e);
    cur = g.from(e);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

double ref_path_cost(const Path& p, const EdgeWeight& weight) {
  if (!weight) return static_cast<double>(p.size());
  double c = 0.0;
  for (EdgeId e : p) c += weight(e);
  return c;
}

std::vector<Path> ref_yen(const Graph& g, NodeId s, NodeId t, std::size_t k,
                          const EdgeWeight& weight = {}) {
  std::vector<Path> result;
  if (k == 0 || s == t) return result;

  const DijkstraResult first = ref_dijkstra(g, s, t, weight);
  if (!first.found) return result;
  result.push_back(first.path);

  using Candidate = std::pair<double, Path>;
  std::set<Candidate> candidates;
  std::set<Path> known;
  known.insert(first.path);

  while (result.size() < k) {
    const Path& prev = result.back();
    const std::vector<NodeId> prev_nodes = g.path_nodes(prev, s);

    for (std::size_t i = 0; i + 1 < prev_nodes.size(); ++i) {
      const NodeId spur_node = prev_nodes[i];
      const Path root(prev.begin(), prev.begin() + static_cast<long>(i));

      std::set<EdgeId> banned_edges;
      for (const Path& known_path : result) {
        if (known_path.size() > i &&
            std::equal(root.begin(), root.end(), known_path.begin())) {
          banned_edges.insert(known_path[i]);
        }
      }
      std::vector<char> banned_nodes(g.num_nodes(), 0);
      for (std::size_t j = 0; j < i; ++j) banned_nodes[prev_nodes[j]] = 1;

      const EdgeWeight spur_weight = [&](EdgeId e) -> double {
        if (banned_edges.count(e)) return kEdgeBanned;
        return weight ? weight(e) : 1.0;
      };
      const DijkstraResult spur =
          ref_dijkstra(g, spur_node, t, spur_weight, banned_nodes);
      if (!spur.found) continue;

      Path total = root;
      total.insert(total.end(), spur.path.begin(), spur.path.end());
      if (known.insert(total).second) {
        candidates.emplace(ref_path_cost(total, weight), std::move(total));
      }
    }

    if (candidates.empty()) break;
    auto best = candidates.begin();
    result.push_back(best->second);
    candidates.erase(best);
  }
  return result;
}

std::vector<Path> ref_edge_disjoint(const Graph& g, NodeId s, NodeId t,
                                    std::size_t k) {
  std::vector<Path> paths;
  if (s == t) return paths;
  std::vector<char> used(g.num_edges(), 0);
  const EdgeFilter admit = [&](EdgeId e) { return !used[e]; };
  while (paths.size() < k) {
    Path p = ref_bfs_path(g, s, t, admit);
    if (p.empty()) break;
    for (EdgeId e : p) used[e] = 1;
    paths.push_back(std::move(p));
  }
  return paths;
}

MaxFlowResult ref_edmonds_karp(const Graph& g, NodeId s, NodeId t,
                               const EdgeCapacity& capacity, Amount limit = -1,
                               std::size_t max_paths = 0) {
  MaxFlowResult result;
  result.edge_flow.assign(g.num_edges(), 0);
  if (s == t) return result;

  std::vector<Amount> residual(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) residual[e] = capacity(e);

  constexpr Amount kEps = 1e-12;
  while (max_paths == 0 || result.paths.size() < max_paths) {
    if (limit >= 0 && result.value >= limit) break;
    std::vector<EdgeId> parent(g.num_nodes(), kInvalidEdge);
    std::vector<char> seen(g.num_nodes(), 0);
    std::deque<NodeId> queue;
    seen[s] = 1;
    queue.push_back(s);
    bool found = false;
    while (!queue.empty() && !found) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (EdgeId e : g.out_edges(u)) {
        const NodeId v = g.to(e);
        if (seen[v] || residual[e] <= kEps) continue;
        seen[v] = 1;
        parent[v] = e;
        if (v == t) {
          found = true;
          break;
        }
        queue.push_back(v);
      }
    }
    if (!found) break;

    Path path;
    Amount bottleneck = std::numeric_limits<Amount>::max();
    for (NodeId cur = t; cur != s; cur = g.from(parent[cur])) {
      const EdgeId e = parent[cur];
      path.push_back(e);
      bottleneck = std::min(bottleneck, residual[e]);
    }
    std::reverse(path.begin(), path.end());
    if (limit >= 0) bottleneck = std::min(bottleneck, limit - result.value);

    for (EdgeId e : path) {
      residual[e] -= bottleneck;
      residual[g.reverse(e)] += bottleneck;
      result.edge_flow[e] += bottleneck;
    }
    result.value += bottleneck;
    result.paths.push_back(std::move(path));
    result.path_amounts.push_back(bottleneck);
  }

  for (EdgeId e = 0; e < g.num_edges(); e += 2) {
    const EdgeId r = g.reverse(e);
    const Amount net = result.edge_flow[e] - result.edge_flow[r];
    result.edge_flow[e] = std::max<Amount>(net, 0);
    result.edge_flow[r] = std::max<Amount>(-net, 0);
  }
  return result;
}

/// The pre-refactor capacity-matrix type.
using CapacityMap = std::unordered_map<EdgeId, Amount>;

/// Pre-refactor elephant probing, with the probed capacity matrix kept as
/// a plain map plus an explicit first-probe insertion log — the reference
/// for both the matrix contents and the canonical constraint order the
/// flat ProbedCapacities must reproduce.
struct RefProbeResult {
  bool feasible = false;
  std::vector<Path> paths;
  std::vector<Amount> bottlenecks;
  CapacityMap capacities;
  std::vector<std::pair<EdgeId, Amount>> insertion_order;
  Amount max_flow = 0;
  std::uint32_t probes = 0;
};

RefProbeResult ref_elephant_find_paths(const Graph& g, NodeId s, NodeId t,
                                       Amount demand, std::size_t max_paths,
                                       NetworkState& state) {
  constexpr Amount kEps = 1e-9;
  RefProbeResult result;
  if (s == t || demand <= 0) return result;

  CapacityMap residual;
  auto residual_admits = [&](EdgeId e) {
    const auto it = residual.find(e);
    return it == residual.end() || it->second > kEps;
  };

  while (result.paths.size() < max_paths) {
    const Path p = ref_bfs_path(g, s, t, residual_admits);
    if (p.empty()) break;

    const std::vector<Amount> balances = state.probe_path(p);
    ++result.probes;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const EdgeId e = p[i];
      const EdgeId rev = g.reverse(e);
      if (!result.capacities.count(e)) {
        result.capacities[e] = balances[i];
        result.insertion_order.emplace_back(e, balances[i]);
        residual[e] = balances[i];
      }
      if (!result.capacities.count(rev)) {
        const Amount rev_balance = state.balance(rev);
        result.capacities[rev] = rev_balance;
        result.insertion_order.emplace_back(rev, rev_balance);
        residual[rev] = rev_balance;
      }
    }

    Amount bottleneck = std::numeric_limits<Amount>::max();
    for (EdgeId e : p) bottleneck = std::min(bottleneck, residual[e]);
    bottleneck = std::max<Amount>(bottleneck, 0);

    result.paths.push_back(p);
    result.bottlenecks.push_back(bottleneck);

    if (bottleneck > kEps) {
      result.max_flow += bottleneck;
      for (EdgeId e : p) {
        residual[e] -= bottleneck;
        residual[g.reverse(e)] += bottleneck;
      }
    }
  }

  result.feasible = result.max_flow + kEps >= demand;
  return result;
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

const Graph& medium_graph() {  // scale-free, ~fig-topology shape, smaller
  static const Graph g = [] {
    Rng rng(11);
    return scale_free(300, 1200, rng);
  }();
  return g;
}

const Graph& small_world_graph() {
  static const Graph g = [] {
    Rng rng(12);
    return watts_strogatz(120, 6, 0.2, rng);
  }();
  return g;
}

const Graph& ripple_graph() {  // the fig06/fig07 simulation topology
  static const Graph g = [] {
    Rng rng(1);
    return ripple_like(rng);
  }();
  return g;
}

/// Deterministic non-uniform weights (fee-rate-like) for weighted queries.
EdgeWeight fee_like_weight() { return testing::DeterministicFeeWeight{}; }

std::pair<NodeId, NodeId> random_pair(Rng& rng, const Graph& g) {
  return {static_cast<NodeId>(rng.next_below(g.num_nodes())),
          static_cast<NodeId>(rng.next_below(g.num_nodes()))};
}

void expect_same_paths(const std::vector<Path>& got,
                       const std::vector<Path>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "path " << i << " differs";
  }
}

// ---------------------------------------------------------------------------
// CSR adjacency
// ---------------------------------------------------------------------------

TEST(CsrEquivalence, FinalizePreservesAdjacencyOrder) {
  Rng rng(21);
  Graph g(80);
  for (int i = 0; i < 300; ++i) {
    const auto [u, v] = random_pair(rng, g);
    if (u != v) g.add_channel(u, v);
  }
  ASSERT_FALSE(g.finalized());
  std::vector<std::vector<EdgeId>> before;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto span = g.out_edges(u);
    before.emplace_back(span.begin(), span.end());
  }
  g.finalize();
  ASSERT_TRUE(g.finalized());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto span = g.out_edges(u);
    EXPECT_EQ(std::vector<EdgeId>(span.begin(), span.end()), before[u]);
  }
  // Mutation invalidates; re-finalize restores.
  const NodeId n = g.add_node();
  EXPECT_FALSE(g.finalized());
  g.add_channel(n, 0);
  g.finalize();
  EXPECT_EQ(g.out_edges(n).size(), 1u);
}

// ---------------------------------------------------------------------------
// Dijkstra
// ---------------------------------------------------------------------------

TEST(DijkstraEquivalence, UnitAndWeighted) {
  const Graph& g = medium_graph();
  const EdgeWeight w = fee_like_weight();
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const auto [s, t] = random_pair(rng, g);
    for (const EdgeWeight* weight : {(const EdgeWeight*)nullptr, &w}) {
      const EdgeWeight& wref = weight ? *weight : EdgeWeight{};
      const DijkstraResult want = ref_dijkstra(g, s, t, wref);
      const DijkstraResult got = dijkstra(g, s, t, wref);
      ASSERT_EQ(got.found, want.found) << "s=" << s << " t=" << t;
      EXPECT_EQ(got.path, want.path);
      // Bit-identical float: relaxations happen in the same order.
      EXPECT_EQ(got.distance, want.distance);
    }
  }
}

TEST(DijkstraEquivalence, BannedNodes) {
  const Graph& g = small_world_graph();
  Rng rng(32);
  for (int i = 0; i < 100; ++i) {
    const auto [s, t] = random_pair(rng, g);
    std::vector<char> banned(g.num_nodes(), 0);
    for (int b = 0; b < 12; ++b) {
      banned[rng.next_below(g.num_nodes())] = 1;
    }
    const DijkstraResult want = ref_dijkstra(g, s, t, {}, banned);
    const DijkstraResult got = dijkstra(g, s, t, {}, banned);
    ASSERT_EQ(got.found, want.found);
    EXPECT_EQ(got.path, want.path);
    EXPECT_EQ(got.distance, want.distance);
  }
}

TEST(DijkstraEquivalence, DistancesAllTargets) {
  const Graph& g = medium_graph();
  const EdgeWeight w = fee_like_weight();
  const auto got = dijkstra_distances(g, 7, w);
  const double inf = std::numeric_limits<double>::infinity();
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    const DijkstraResult single = ref_dijkstra(g, 7, t, w);
    EXPECT_EQ(got[t], single.found || t == 7 ? single.distance : inf);
  }
}

TEST(DijkstraHardening, OutOfRangeTargetsReturnNotFound) {
  const Graph& g = small_world_graph();
  EXPECT_FALSE(dijkstra(g, 0, kInvalidNode).found);
  EXPECT_FALSE(dijkstra(g, kInvalidNode, 0).found);
  EXPECT_FALSE(
      dijkstra(g, 0, static_cast<NodeId>(g.num_nodes())).found);
  EXPECT_TRUE(dijkstra(g, 0, 1).found);
}

/// Unit weights without the kUnitCost trait: dijkstra_core runs the full
/// settle-until-popped search, the oracle for the unit-cost exits.
struct FullSettleUnitWeight {
  double operator()(EdgeId) const { return 1.0; }
};
static_assert(kIsUnitCost<UnitWeight> && kIsUnitCost<const UnitWeight&>);
static_assert(kIsUnitCost<OpenMaskUnitWeight>);
static_assert(!kIsUnitCost<FullSettleUnitWeight>);
static_assert(!kIsUnitCost<testing::DeterministicFeeWeight>);
static_assert(!kIsUnitCost<LegacyCallable<EdgeWeight>>);

TEST(DijkstraEquivalence, UnitCostExitMatchesFullSettle) {
  const double inf = std::numeric_limits<double>::infinity();
  const double cutoffs[] = {inf, 1.0, 2.0, 2.5, 3.0, 3.0 + 1e-9, 4.0};
  Rng rng(33);
  for (const Graph* g : {&medium_graph(), &small_world_graph()}) {
    GraphScratch scratch;
    for (int i = 0; i < 60; ++i) {
      const auto [s, t] = random_pair(rng, *g);
      const bool use_bans = i % 3 != 0;
      // The marks survive dijkstra_core, so both searches see the same set.
      scratch.node_ban.reset(g->num_nodes());
      scratch.edge_ban.reset(g->num_edges());
      for (int b = 0; b < 8; ++b) {
        scratch.node_ban.set(rng.next_below(g->num_nodes()), 1);
      }
      for (int b = 0; b < 40; ++b) {
        scratch.edge_ban.set(rng.next_below(g->num_edges()), 1);
      }
      for (const double cutoff : cutoffs) {
        SCOPED_TRACE(::testing::Message() << "s=" << s << " t=" << t
                                          << " bans=" << use_bans
                                          << " cutoff=" << cutoff);
        Path want_path, got_path;
        const DijkstraCoreResult want =
            dijkstra_core(*g, s, t, scratch, FullSettleUnitWeight{},
                          use_bans, want_path, cutoff);
        const DijkstraCoreResult got = dijkstra_core(
            *g, s, t, scratch, UnitWeight{}, use_bans, got_path, cutoff);
        ASSERT_EQ(got.found, want.found);
        EXPECT_EQ(got.distance, want.distance);
        EXPECT_EQ(got_path, want_path);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// BFS family
// ---------------------------------------------------------------------------

TEST(BfsEquivalence, PathsDistancesTrees) {
  const Graph& g = medium_graph();
  Rng rng(41);
  const EdgeFilter drop_some = [](EdgeId e) { return e % 7 != 3; };
  for (int i = 0; i < 150; ++i) {
    const auto [s, t] = random_pair(rng, g);
    EXPECT_EQ(bfs_path(g, s, t), ref_bfs_path(g, s, t));
    EXPECT_EQ(bfs_path(g, s, t, drop_some), ref_bfs_path(g, s, t, drop_some));
  }
  // Full-exploration outputs.
  for (NodeId src : {NodeId{0}, NodeId{13}, NodeId{299}}) {
    EXPECT_EQ(bfs_tree(g, src), ref_bfs_parents(g, src, kInvalidNode, {}));
    EXPECT_EQ(bfs_tree(g, src, drop_some),
              ref_bfs_parents(g, src, kInvalidNode, drop_some));
    const auto dist = bfs_distances(g, src);
    const auto tree = bfs_tree(g, src);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == src) {
        EXPECT_EQ(dist[v], 0u);
      } else if (tree[v] == kInvalidEdge) {
        EXPECT_EQ(dist[v], kUnreachable);
      } else {
        EXPECT_EQ(dist[v], dist[g.from(tree[v])] + 1);
      }
    }
  }
}

TEST(BfsHardening, OutOfRangeEndpoints) {
  const Graph& g = small_world_graph();
  EXPECT_TRUE(bfs_path(g, 0, kInvalidNode).empty());
  EXPECT_TRUE(bfs_path(g, kInvalidNode, 0).empty());
  EXPECT_FALSE(reachable(g, 0, kInvalidNode));
  EXPECT_FALSE(reachable(g, kInvalidNode, 0));
}

TEST(LegacyApiReentrancy, FilterCallbackMayCallLegacyApi) {
  // The legacy wrappers share a thread-local scratch; a user filter that
  // itself calls a legacy graph function must get a private scratch (see
  // LegacyScratchLease) instead of clobbering the outer query.
  const Graph& g = small_world_graph();
  const EdgeFilter admit = [&](EdgeId e) {
    return reachable(g, g.from(e), g.to(e));  // nested legacy call, true
  };
  for (NodeId t : {NodeId{5}, NodeId{60}, NodeId{119}}) {
    EXPECT_EQ(bfs_path(g, 0, t, admit), ref_bfs_path(g, 0, t, {}));
  }
}

// ---------------------------------------------------------------------------
// Yen
// ---------------------------------------------------------------------------

TEST(YenEquivalence, MediumTopologyUnitWeights) {
  const Graph& g = medium_graph();
  Rng rng(51);
  for (int i = 0; i < 40; ++i) {
    const auto [s, t] = random_pair(rng, g);
    if (s == t) continue;
    for (std::size_t k : {std::size_t{4}, std::size_t{8}}) {
      expect_same_paths(yen_k_shortest_paths(g, s, t, k), ref_yen(g, s, t, k));
    }
  }
}

TEST(YenEquivalence, MediumTopologyFeeWeights) {
  const Graph& g = medium_graph();
  const EdgeWeight w = fee_like_weight();
  Rng rng(52);
  for (int i = 0; i < 25; ++i) {
    const auto [s, t] = random_pair(rng, g);
    if (s == t) continue;
    expect_same_paths(yen_k_shortest_paths(g, s, t, 6, w),
                      ref_yen(g, s, t, 6, w));
  }
}

TEST(YenEquivalence, RippleScaleTopology) {
  const Graph& g = ripple_graph();  // fig06/fig07 scale
  Rng rng(53);
  for (int i = 0; i < 8; ++i) {
    const auto [s, t] = random_pair(rng, g);
    if (s == t) continue;
    expect_same_paths(yen_k_shortest_paths(g, s, t, 8), ref_yen(g, s, t, 8));
  }
}

TEST(YenEquivalence, SmallWorldManyPaths) {
  const Graph& g = small_world_graph();
  Rng rng(54);
  for (int i = 0; i < 10; ++i) {
    const auto [s, t] = random_pair(rng, g);
    if (s == t) continue;
    expect_same_paths(yen_k_shortest_paths(g, s, t, 16),
                      ref_yen(g, s, t, 16));
  }
}

TEST(YenEquivalence, OpenMaskMatchesBannedWeightReference) {
  // The mice table's masked topology: ~10 % of channels closed in both
  // directions, as a gossip view marks them.
  const Graph& g = medium_graph();
  Rng rng(55);
  std::vector<unsigned char> mask(g.num_edges(), 1);
  for (EdgeId e = 0; e < g.num_edges(); e += 2) {
    if (rng.next_below(10) == 0) mask[e] = mask[g.reverse(e)] = 0;
  }
  const EdgeWeight banned_closed = [&](EdgeId e) {
    return mask[e] ? 1.0 : kEdgeBanned;
  };
  GraphScratch scratch;
  std::vector<Path> got;
  for (int i = 0; i < 30; ++i) {
    const auto [s, t] = random_pair(rng, g);
    if (s == t) continue;
    yen_core(g, s, t, 8, scratch, OpenMaskUnitWeight{mask.data()}, got);
    expect_same_paths(got, ref_yen(g, s, t, 8, banned_closed));
  }
}

// ---------------------------------------------------------------------------
// Edge-disjoint + maxflow
// ---------------------------------------------------------------------------

TEST(EdgeDisjointEquivalence, MediumTopology) {
  const Graph& g = medium_graph();
  Rng rng(61);
  for (int i = 0; i < 60; ++i) {
    const auto [s, t] = random_pair(rng, g);
    if (s == t) continue;
    expect_same_paths(edge_disjoint_shortest_paths(g, s, t, 4),
                      ref_edge_disjoint(g, s, t, 4));
  }
}

TEST(MaxflowEquivalence, RandomCapacities) {
  const Graph& g = small_world_graph();
  Rng caps_rng(62);
  std::vector<Amount> cap(g.num_edges());
  for (auto& c : cap) c = caps_rng.uniform(0.0, 50.0);
  const EdgeCapacity cap_fn = [&](EdgeId e) { return cap[e]; };
  Rng rng(63);
  for (int i = 0; i < 40; ++i) {
    const auto [s, t] = random_pair(rng, g);
    for (const auto& [limit, max_paths] :
         std::vector<std::pair<Amount, std::size_t>>{
             {-1, 0}, {-1, 5}, {40, 0}, {25, 3}}) {
      const MaxFlowResult want =
          ref_edmonds_karp(g, s, t, cap_fn, limit, max_paths);
      const MaxFlowResult got = edmonds_karp(g, s, t, cap_fn, limit, max_paths);
      EXPECT_EQ(got.value, want.value);  // bit-identical accumulation
      EXPECT_EQ(got.edge_flow, want.edge_flow);
      EXPECT_EQ(got.path_amounts, want.path_amounts);
      expect_same_paths(got.paths, want.paths);
    }
  }
}

// ---------------------------------------------------------------------------
// Elephant probing (Algorithm 1)
// ---------------------------------------------------------------------------

TEST(ElephantEquivalence, ProbeLoopBitIdentical) {
  const Graph& g = medium_graph();
  Rng init_rng_a(71);
  Rng init_rng_b(71);
  NetworkState state_a(g);
  NetworkState state_b(g);
  state_a.assign_lognormal_split(250, 1.0, init_rng_a);
  state_b.assign_lognormal_split(250, 1.0, init_rng_b);

  Rng rng(72);
  for (int i = 0; i < 30; ++i) {
    const auto [s, t] = random_pair(rng, g);
    const Amount demand = rng.uniform(10.0, 2000.0);
    const RefProbeResult want =
        ref_elephant_find_paths(g, s, t, demand, 20, state_a);
    const ElephantProbeResult got =
        elephant_find_paths(g, s, t, demand, 20, state_b);
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.max_flow, want.max_flow);
    EXPECT_EQ(got.probes, want.probes);
    EXPECT_EQ(got.bottlenecks, want.bottlenecks);
    expect_same_paths(got.paths, want.paths);
    // The probed capacity matrix must match entry-for-entry AND in
    // first-probe insertion order — the canonical constraint order the
    // fee LP consumes.
    ASSERT_EQ(got.capacities.size(), want.capacities.size());
    EXPECT_EQ(got.capacities.entries(), want.insertion_order);
  }
  // Identical probing implies identical message accounting.
  EXPECT_EQ(state_a.probe_messages(), state_b.probe_messages());
}

TEST(ElephantEquivalence, ReusedProbeResultMatchesFreshInIterationOrder) {
  // FlashRouter reuses one ElephantProbeResult across payments. The
  // capacity matrix's *iteration order* feeds the fee-LP constraint
  // order, so an epoch-reset reused ProbedCapacities must reproduce the
  // reference first-probe insertion order exactly, query after query
  // (this is the property the retired fresh-unordered_map-per-probe
  // workaround existed to preserve — the flat matrix provides it by
  // construction).
  const Graph& g = medium_graph();
  Rng init_a(75), init_b(75);
  NetworkState state_a(g), state_b(g);
  state_a.assign_lognormal_split(250, 1.0, init_a);
  state_b.assign_lognormal_split(250, 1.0, init_b);

  GraphScratch scratch;
  ElephantProbeResult reused;
  Rng rng(76);
  for (int i = 0; i < 20; ++i) {
    const auto [s, t] = random_pair(rng, g);
    const Amount demand = rng.uniform(10.0, 2000.0);
    elephant_find_paths_into(g, s, t, demand, 20, state_b, scratch, reused);
    const RefProbeResult fresh =
        ref_elephant_find_paths(g, s, t, demand, 20, state_a);
    ASSERT_EQ(reused.capacities.entries(), fresh.insertion_order)
        << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Mice routing: deferred dead-path replacement must be externally invisible
// ---------------------------------------------------------------------------

/// The pre-refactor route_mice, expressed against the public API: copy the
/// looked-up paths, replace dead paths immediately.
RouteResult ref_route_mice(const Graph& g, const Transaction& tx,
                           NetworkState& state, const FeeSchedule& fees,
                           MiceRoutingTable& table, Rng& rng) {
  (void)g;
  constexpr Amount kEps = 1e-9;
  RouteResult result;
  if (tx.amount <= 0 || tx.sender == tx.receiver) return result;

  const std::uint64_t msgs_before = state.probe_messages();
  std::vector<Path> paths = table.lookup(tx.sender, tx.receiver);
  if (paths.empty()) return result;

  std::vector<std::size_t> order(paths.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);

  AtomicPayment payment(state);
  Amount remaining = tx.amount;
  Amount fee = 0;
  for (const std::size_t idx : order) {
    const Path& path = paths[idx];
    if (payment.add_part(path, remaining)) {
      fee += fees.path_fee(path, remaining);
      ++result.paths_used;
      remaining = 0;
      break;
    }
    const std::vector<Amount> balances = state.probe_path(path);
    ++result.probes;
    const Amount cap = *std::min_element(balances.begin(), balances.end());
    if (cap <= kEps) {
      table.replace_dead_path(tx.sender, tx.receiver, path);
      continue;
    }
    const Amount part = std::min(cap, remaining);
    if (payment.add_part(path, part)) {
      fee += fees.path_fee(path, part);
      ++result.paths_used;
      remaining -= part;
      if (remaining <= kEps) break;
    }
  }

  result.probe_messages = state.probe_messages() - msgs_before;
  if (remaining > kEps) return result;
  payment.commit();
  result.success = true;
  result.delivered = tx.amount;
  result.fee = fee;
  return result;
}

TEST(MiceEquivalence, DeferredReplacementMatchesLegacySimulation) {
  const Graph& g = medium_graph();
  Rng fee_rng(80);
  const FeeSchedule fees = FeeSchedule::paper_default(g, fee_rng);
  Rng init_a(81), init_b(81);
  NetworkState state_a(g), state_b(g);
  // Skewed split makes depleted directions (dead paths) common.
  state_a.assign_uniform_skewed(1.0, 60.0, 0.85, 1.0, init_a);
  state_b.assign_uniform_skewed(1.0, 60.0, 0.85, 1.0, init_b);

  RoutingTableConfig tc;
  tc.paths_per_receiver = 4;
  tc.spare_paths = 4;
  MiceRoutingTable table_a(g, tc), table_b(g, tc);
  Rng rng_a(82), rng_b(82);
  GraphScratch scratch;

  Rng tx_rng(83);
  int dead_replacements_seen = 0;
  for (int i = 0; i < 600; ++i) {
    Transaction tx;
    const auto [s, t] = random_pair(tx_rng, g);
    if (s == t) continue;
    tx.sender = s;
    tx.receiver = t;
    tx.amount = tx_rng.uniform(1.0, 40.0);
    const RouteResult want = ref_route_mice(g, tx, state_a, fees, table_a,
                                            rng_a);
    const RouteResult got =
        route_mice(g, tx, state_b, fees, table_b, rng_b, scratch);
    ASSERT_EQ(got.success, want.success) << "tx " << i;
    EXPECT_EQ(got.delivered, want.delivered);
    EXPECT_EQ(got.fee, want.fee);
    EXPECT_EQ(got.probes, want.probes);
    EXPECT_EQ(got.probe_messages, want.probe_messages);
    EXPECT_EQ(got.paths_used, want.paths_used);
    if (want.probes > 0 && !want.success) ++dead_replacements_seen;
  }
  // Ledgers must have evolved identically.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(state_a.balance(e), state_b.balance(e)) << "edge " << e;
  }
  EXPECT_EQ(table_a.size(), table_b.size());
  EXPECT_EQ(table_a.computations(), table_b.computations());
  // The workload must actually exercise the probe/replace machinery.
  EXPECT_GT(dead_replacements_seen, 0);
}

// ---------------------------------------------------------------------------
// Scratch reuse: a shared workspace must behave like a fresh one
// ---------------------------------------------------------------------------

TEST(ScratchReuse, BackToBackQueriesMatchFreshScratches) {
  const Graph& g = medium_graph();
  const EdgeWeight w = fee_like_weight();
  GraphScratch shared;
  Rng rng(91);
  for (int i = 0; i < 60; ++i) {
    const auto [s, t] = random_pair(rng, g);
    if (s == t) continue;

    // Yen on the shared scratch vs a one-shot scratch.
    std::vector<Path> shared_out, fresh_out;
    yen_core(g, s, t, 6, shared, UnitWeight{}, shared_out);
    {
      GraphScratch fresh;
      yen_core(g, s, t, 6, fresh, UnitWeight{}, fresh_out);
    }
    expect_same_paths(shared_out, fresh_out);

    // Weighted dijkstra immediately after Yen on the same scratch: the
    // epoch reset must fully isolate the queries.
    Path shared_path, fresh_path;
    const auto shared_res = dijkstra_core(
        g, s, t, shared, [&w](EdgeId e) { return w(e); }, false, shared_path);
    GraphScratch fresh;
    const auto fresh_res = dijkstra_core(
        g, s, t, fresh, [&w](EdgeId e) { return w(e); }, false, fresh_path);
    ASSERT_EQ(shared_res.found, fresh_res.found);
    EXPECT_EQ(shared_res.distance, fresh_res.distance);
    EXPECT_EQ(shared_path, fresh_path);
  }
}

TEST(ScratchReuse, AcrossDifferentGraphs) {
  // One scratch serving interleaved queries on graphs of different sizes.
  GraphScratch shared;
  const Graph& big = medium_graph();
  const Graph& small = small_world_graph();
  Rng rng(92);
  for (int i = 0; i < 40; ++i) {
    for (const Graph* g : {&big, &small}) {
      const auto [s, t] = random_pair(rng, *g);
      if (s == t) continue;
      std::vector<Path> shared_out, fresh_out;
      yen_core(*g, s, t, 4, shared, UnitWeight{}, shared_out);
      GraphScratch fresh;
      yen_core(*g, s, t, 4, fresh, UnitWeight{}, fresh_out);
      expect_same_paths(shared_out, fresh_out);
    }
  }
}

}  // namespace
}  // namespace flash

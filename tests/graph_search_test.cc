// Tests for BFS, Dijkstra, Yen's k-shortest-paths and edge-disjoint paths.
#include <gtest/gtest.h>

#include <set>

#include "graph/bfs.h"
#include "graph/dijkstra.h"
#include "graph/edge_disjoint.h"
#include "graph/topology.h"
#include "graph/yen.h"
#include "testutil.h"

namespace flash {
namespace {

using testing::make_graph;

// --- BFS ---------------------------------------------------------------------

TEST(Bfs, FindsFewestHops) {
  // 0-1-2-3 line plus shortcut 0-3.
  Graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  const Path p = bfs_path(g, 0, 3);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(g.to(p[0]), 3u);
}

TEST(Bfs, EmptyWhenUnreachable) {
  Graph g(4);
  g.add_channel(0, 1);
  g.add_channel(2, 3);
  EXPECT_TRUE(bfs_path(g, 0, 3).empty());
  EXPECT_FALSE(reachable(g, 0, 3));
  EXPECT_TRUE(reachable(g, 0, 1));
}

TEST(Bfs, SourceEqualsTarget) {
  Graph g = make_graph(2, {{0, 1}});
  EXPECT_TRUE(bfs_path(g, 0, 0).empty());
  EXPECT_TRUE(reachable(g, 0, 0));
}

TEST(Bfs, FilterExcludesEdges) {
  Graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  // Ban the shortcut's forward edge; path must go the long way.
  const EdgeId shortcut = g.channel_forward_edge(3);
  const Path p =
      bfs_path(g, 0, 3, [&](EdgeId e) { return e != shortcut; });
  EXPECT_EQ(p.size(), 3u);
}

TEST(Bfs, FilterCanDisconnect) {
  Graph g = make_graph(2, {{0, 1}});
  const Path p = bfs_path(g, 0, 1, [](EdgeId) { return false; });
  EXPECT_TRUE(p.empty());
}

TEST(Bfs, DistancesOnRing) {
  Graph g = ring_graph(6);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[3], 3u);
  EXPECT_EQ(d[5], 1u);  // ring wraps
}

TEST(Bfs, DistancesUnreachable) {
  Graph g(3);
  g.add_channel(0, 1);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(Bfs, TreeParentsConsistent) {
  Graph g = line_graph(5);
  const auto parents = bfs_tree(g, 0);
  EXPECT_EQ(parents[0], kInvalidEdge);
  for (NodeId v = 1; v < 5; ++v) {
    ASSERT_NE(parents[v], kInvalidEdge);
    EXPECT_EQ(g.to(parents[v]), v);
  }
}

// --- Dijkstra ------------------------------------------------------------------

TEST(Dijkstra, UnitWeightsMatchBfsLength) {
  Rng rng(7);
  Graph g = watts_strogatz(40, 6, 0.2, rng);
  for (NodeId t = 1; t < 10; ++t) {
    const Path b = bfs_path(g, 0, t);
    const DijkstraResult d = dijkstra(g, 0, t);
    EXPECT_EQ(d.found, !b.empty() || t == 0);
    if (d.found) {
      EXPECT_EQ(d.path.size(), b.size());
    }
  }
}

TEST(Dijkstra, PrefersCheapDetour) {
  // 0->1 weight 10; 0->2->1 weight 1+1.
  Graph g = make_graph(3, {{0, 1}, {0, 2}, {2, 1}});
  const EdgeWeight w = [&](EdgeId e) {
    return g.channel_of(e) == 0 ? 10.0 : 1.0;
  };
  const DijkstraResult d = dijkstra(g, 0, 1, w);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.path.size(), 2u);
  EXPECT_DOUBLE_EQ(d.distance, 2.0);
}

TEST(Dijkstra, BannedEdgeWeightExcludes) {
  Graph g = make_graph(2, {{0, 1}});
  const DijkstraResult d =
      dijkstra(g, 0, 1, [](EdgeId) { return kEdgeBanned; });
  EXPECT_FALSE(d.found);
}

TEST(Dijkstra, BannedNodesExcludeInterior) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  std::vector<char> banned(4, 0);
  banned[1] = 1;
  const DijkstraResult d = dijkstra(g, 0, 3, {}, banned);
  ASSERT_TRUE(d.found);
  // Must route around node 1 through node 2.
  EXPECT_EQ(g.to(d.path[0]), 2u);
}

TEST(Dijkstra, BannedEndpointFails) {
  Graph g = make_graph(2, {{0, 1}});
  std::vector<char> banned(2, 0);
  banned[1] = 1;
  EXPECT_FALSE(dijkstra(g, 0, 1, {}, banned).found);
}

TEST(Dijkstra, SourceEqualsTargetFoundWithZeroDistance) {
  Graph g = make_graph(2, {{0, 1}});
  const DijkstraResult d = dijkstra(g, 0, 0);
  EXPECT_TRUE(d.found);
  EXPECT_DOUBLE_EQ(d.distance, 0.0);
  EXPECT_TRUE(d.path.empty());
}

TEST(Dijkstra, DistancesAll) {
  Graph g = line_graph(4);
  const auto d = dijkstra_distances(g, 0);
  EXPECT_DOUBLE_EQ(d[3], 3.0);
}

// A hub s with `fanout` neighbours, each carrying one more leaf: neighbour i
// is node 1 + i and its leaf is node 1 + fanout + i, so every leaf sits at
// distance 2 from s. Node 1 + 2 * fanout is t, linked to s by the last
// channel when `link_target` is set and isolated otherwise.
Graph hub_with_leaves(std::size_t fanout, bool link_target) {
  const auto n = static_cast<NodeId>(fanout);
  Graph g(2 + 2 * fanout);
  for (NodeId i = 0; i < n; ++i) {
    g.add_channel(0, 1 + i);
    g.add_channel(1 + i, 1 + n + i);
  }
  if (link_target) g.add_channel(0, 1 + 2 * n);
  g.finalize();
  return g;
}

bool any_leaf_labelled(const GraphScratch& scratch, std::size_t fanout) {
  for (std::size_t v = 1 + fanout; v < 1 + 2 * fanout; ++v) {
    if (scratch.dist.contains(v)) return true;
  }
  return false;
}

TEST(DijkstraWorkBound, UnitCostStopsWhenTargetIsLabelled) {
  // t is one hop from s, but it is pushed after all 50 other neighbours,
  // so a search that runs until t is popped relaxes their leaves first.
  constexpr std::size_t kFanout = 50;
  const Graph g = hub_with_leaves(kFanout, /*link_target=*/true);
  const auto t = static_cast<NodeId>(1 + 2 * kFanout);
  GraphScratch scratch;
  Path path;
  const DijkstraCoreResult r =
      dijkstra_core(g, 0, t, scratch, UnitWeight{}, false, path);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.distance, 1.0);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(g.to(path[0]), t);
  EXPECT_FALSE(any_leaf_labelled(scratch, kFanout));
}

TEST(DijkstraWorkBound, UnitCostCutoffStopsBeforeOverBudgetLevel) {
  // Cutoff 1 with t unreachable: nothing at distance 2 can matter.
  constexpr std::size_t kFanout = 50;
  const Graph g = hub_with_leaves(kFanout, /*link_target=*/false);
  const auto t = static_cast<NodeId>(1 + 2 * kFanout);
  GraphScratch scratch;
  Path path;
  const DijkstraCoreResult r =
      dijkstra_core(g, 0, t, scratch, UnitWeight{}, false, path, 1.0);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(path.empty());
  EXPECT_FALSE(any_leaf_labelled(scratch, kFanout));
}

// --- Yen -----------------------------------------------------------------------

TEST(Yen, FindsDistinctLooplessPathsInOrder) {
  // Diamond: 0-1-3, 0-2-3, plus direct 0-3.
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 3}});
  const auto paths = yen_k_shortest_paths(g, 0, 3, 5);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].size(), 1u);  // direct
  EXPECT_EQ(paths[1].size(), 2u);
  EXPECT_EQ(paths[2].size(), 2u);
  std::set<Path> unique(paths.begin(), paths.end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(Yen, RespectsK) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 3}});
  EXPECT_EQ(yen_k_shortest_paths(g, 0, 3, 2).size(), 2u);
  EXPECT_TRUE(yen_k_shortest_paths(g, 0, 3, 0).empty());
}

TEST(Yen, PathsAreLoopless) {
  Rng rng(11);
  Graph g = watts_strogatz(30, 4, 0.3, rng);
  const auto paths = yen_k_shortest_paths(g, 0, 15, 8);
  for (const Path& p : paths) {
    const auto nodes = g.path_nodes(p, 0);
    const std::set<NodeId> unique(nodes.begin(), nodes.end());
    EXPECT_EQ(unique.size(), nodes.size()) << "loop in path";
  }
}

TEST(Yen, NondecreasingCost) {
  Rng rng(13);
  Graph g = watts_strogatz(30, 4, 0.3, rng);
  const auto paths = yen_k_shortest_paths(g, 2, 20, 10);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].size(), paths[i].size());
  }
}

TEST(Yen, UnreachableGivesEmpty) {
  Graph g(3);
  g.add_channel(0, 1);
  EXPECT_TRUE(yen_k_shortest_paths(g, 0, 2, 3).empty());
}

TEST(Yen, FirstPathMatchesDijkstra) {
  Rng rng(17);
  Graph g = watts_strogatz(25, 4, 0.2, rng);
  const auto paths = yen_k_shortest_paths(g, 1, 12, 1);
  const DijkstraResult d = dijkstra(g, 1, 12);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].size(), d.path.size());
}

// --- Edge-disjoint ----------------------------------------------------------------

TEST(EdgeDisjoint, PathsShareNoDirectedEdges) {
  Rng rng(19);
  Graph g = watts_strogatz(40, 8, 0.2, rng);
  const auto paths = edge_disjoint_shortest_paths(g, 0, 20, 4);
  std::set<EdgeId> used;
  for (const Path& p : paths) {
    for (EdgeId e : p) {
      EXPECT_TRUE(used.insert(e).second) << "edge reused across paths";
    }
  }
}

TEST(EdgeDisjoint, DiamondYieldsTwo) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  const auto paths = edge_disjoint_shortest_paths(g, 0, 3, 4);
  EXPECT_EQ(paths.size(), 2u);
}

TEST(EdgeDisjoint, LimitedByCut) {
  // Single bridge 1-2: at most one disjoint path can cross it.
  Graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto paths = edge_disjoint_shortest_paths(g, 0, 3, 4);
  EXPECT_EQ(paths.size(), 1u);
}

TEST(EdgeDisjoint, FirstIsShortest) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 3}});
  const auto paths = edge_disjoint_shortest_paths(g, 0, 3, 3);
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths[0].size(), 1u);
}

}  // namespace
}  // namespace flash

// Tests for the Flash router: Algorithm 1 (elephant path finding), the fee
// split execution, the mice routing table and trial-and-error loop, and the
// elephant/mice classification.
#include <gtest/gtest.h>

#include <set>

#include "graph/maxflow.h"
#include "graph/topology.h"
#include "routing/flash/elephant.h"
#include "routing/flash/flash_router.h"
#include "routing/flash/mice.h"
#include "routing/flash/routing_table.h"
#include "testutil.h"

namespace flash {
namespace {

using testing::bwd;
using testing::fwd;
using testing::make_graph;
using testing::set_channel;

Transaction tx(NodeId s, NodeId t, Amount a) { return {s, t, a, 0}; }

// --- Algorithm 1: elephant path finding ---------------------------------------

TEST(Elephant, FindsSinglePathWhenSufficient) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  set_channel(s, g, 1, 10, 0);
  const auto r = elephant_find_paths(g, 0, 2, 8, 20, s);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.paths.size(), 1u);  // early exit once f >= d
  EXPECT_DOUBLE_EQ(r.max_flow, 10);
  EXPECT_EQ(r.probes, 1u);
}

TEST(Elephant, AggregatesMultiplePaths) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  NetworkState s(g);
  for (int c = 0; c < 4; ++c) set_channel(s, g, c, 6, 0);
  const auto r = elephant_find_paths(g, 0, 3, 10, 20, s);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.paths.size(), 2u);
  EXPECT_DOUBLE_EQ(r.max_flow, 12);
}

TEST(Elephant, InfeasibleWhenDemandTooLarge) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState s(g);
  set_channel(s, g, 0, 5, 0);
  set_channel(s, g, 1, 5, 0);
  const auto r = elephant_find_paths(g, 0, 2, 50, 20, s);
  EXPECT_FALSE(r.feasible);
}

TEST(Elephant, RespectsPathBudgetK) {
  // Many parallel 2-hop routes; tiny k must cap the probes.
  Graph g(6);
  for (NodeId mid = 1; mid <= 4; ++mid) {
    g.add_channel(0, mid);
    g.add_channel(mid, 5);
  }
  NetworkState s(g);
  for (std::size_t c = 0; c < g.num_channels(); ++c) set_channel(s, g, c, 3, 0);
  const auto r = elephant_find_paths(g, 0, 5, 100, 2, s);
  EXPECT_FALSE(r.feasible);
  EXPECT_LE(r.paths.size(), 2u);
  EXPECT_LE(r.probes, 2u);
}

TEST(Elephant, CapacityMatrixRecordsBothDirections) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 3);
  set_channel(s, g, 1, 10, 4);
  const auto r = elephant_find_paths(g, 0, 2, 8, 20, s);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.capacities.at(fwd(g, 0)), 10);
  EXPECT_DOUBLE_EQ(r.capacities.at(bwd(g, 0)), 3);
  EXPECT_DOUBLE_EQ(r.capacities.at(bwd(g, 1)), 4);
}

TEST(Elephant, Figure5aFindsNonShortestCapacity) {
  // Fig. 5(a): two shortest paths share the 30-capacity link 1->2; Flash's
  // max-flow search must also harvest the longer 1-5-4-6 route to reach 60.
  Graph g = make_graph(6, {{0, 1}, {1, 2}, {1, 3}, {2, 5}, {3, 5},
                           {0, 4}, {4, 3}});
  NetworkState s(g);
  for (std::size_t c = 0; c < g.num_channels(); ++c) set_channel(s, g, c, 30, 0);
  const auto r = elephant_find_paths(g, 0, 5, 60, 20, s);
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.max_flow, 60);
}

TEST(Elephant, Figure5bExploitsAbundantSharedLink) {
  // Fig. 5(b): the shared link has capacity 100; edge-disjoint schemes cap
  // at 50 but Flash reaches 60 using both paths through the hub.
  Graph g = make_graph(6, {{0, 1}, {1, 2}, {1, 3}, {2, 5}, {3, 5},
                           {0, 4}, {4, 3}});
  NetworkState s(g);
  set_channel(s, g, 0, 100, 0);
  for (std::size_t c = 1; c <= 4; ++c) set_channel(s, g, c, 30, 0);
  set_channel(s, g, 5, 20, 0);
  set_channel(s, g, 6, 20, 0);
  const auto r = elephant_find_paths(g, 0, 5, 60, 20, s);
  EXPECT_TRUE(r.feasible);
  EXPECT_GE(r.max_flow, 60);
}

TEST(Elephant, FlowNeverExceedsClassicalMaxFlow) {
  // Property: Algorithm 1's probed flow is a lower bound on the true max
  // flow and is feasible whenever demand <= flow.
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    Rng trial_rng(100 + trial);
    Graph g = watts_strogatz(25, 4, 0.3, trial_rng);
    NetworkState s(g);
    s.assign_uniform_skewed(10, 50, 0.1, 0.9, trial_rng);
    const NodeId src = static_cast<NodeId>(rng.next_below(25));
    NodeId dst = static_cast<NodeId>(rng.next_below(25));
    if (dst == src) dst = (dst + 1) % 25;
    const auto oracle = edmonds_karp(
        g, src, dst, [&](EdgeId e) { return s.balance(e); });
    const auto probed = elephant_find_paths(g, src, dst, 1e18, 64, s);
    EXPECT_LE(probed.max_flow, oracle.value + 1e-6);
  }
}

TEST(Elephant, LargeKMatchesClassicalMaxFlow) {
  // With an unbounded path budget the probing variant IS Edmonds-Karp.
  Rng rng(37);
  Graph g = watts_strogatz(20, 4, 0.3, rng);
  NetworkState s(g);
  s.assign_uniform_split(10, 50, rng);
  const auto oracle =
      edmonds_karp(g, 0, 11, [&](EdgeId e) { return s.balance(e); });
  const auto probed = elephant_find_paths(g, 0, 11, 1e18, 10000, s);
  EXPECT_NEAR(probed.max_flow, oracle.value, 1e-6);
}

// --- Elephant end-to-end --------------------------------------------------------

TEST(RouteElephant, MovesFundsAndReportsFees) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  FeeSchedule fees(g);
  for (std::size_t c = 0; c < 4; ++c) fees.set_policy(fwd(g, c), {0, 0.01});
  NetworkState s(g);
  for (int c = 0; c < 4; ++c) set_channel(s, g, c, 6, 0);
  const RouteResult r =
      route_elephant(g, tx(0, 3, 10), s, fees, ElephantConfig{});
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(r.elephant);
  EXPECT_DOUBLE_EQ(r.delivered, 10);
  EXPECT_NEAR(r.fee, 10 * 0.02, 1e-9);  // two hops at 1% each
  EXPECT_EQ(r.paths_used, 2u);
  // Funds moved: 10 left node 0 in total.
  EXPECT_NEAR(s.balance(fwd(g, 0)) + s.balance(fwd(g, 2)), 2, 1e-9);
  EXPECT_TRUE(s.check_invariants());
}

TEST(RouteElephant, FailureLeavesStateUntouched) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 5, 0);
  set_channel(s, g, 1, 5, 0);
  const auto snap = s.snapshot();
  const RouteResult r =
      route_elephant(g, tx(0, 2, 50), s, fees, ElephantConfig{});
  EXPECT_FALSE(r.success);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(s.balance(e), snap.balance[e]);
  }
}

TEST(RouteElephant, FeeOptimizationPicksCheaperPath) {
  // Two disjoint 2-hop paths, one cheap one expensive, both with capacity;
  // with optimization everything goes on the cheap one.
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  FeeSchedule fees(g);
  fees.set_policy(fwd(g, 0), {0, 0.001});
  fees.set_policy(fwd(g, 1), {0, 0.001});
  fees.set_policy(fwd(g, 2), {0, 0.05});
  fees.set_policy(fwd(g, 3), {0, 0.05});
  NetworkState s(g);
  for (int c = 0; c < 4; ++c) set_channel(s, g, c, 100, 0);

  ElephantConfig with_opt;
  const RouteResult opt = route_elephant(g, tx(0, 3, 50), s, fees, with_opt);
  ASSERT_TRUE(opt.success);
  EXPECT_NEAR(opt.fee, 50 * 0.002, 1e-6);
}

TEST(RouteElephant, WithoutOptimizationUsesDiscoveryOrder) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  FeeSchedule fees(g);
  // Make the *first-discovered* path the expensive one by fee, so the
  // sequential split pays more than the LP split would.
  fees.set_policy(fwd(g, 0), {0, 0.05});
  fees.set_policy(fwd(g, 1), {0, 0.05});
  fees.set_policy(fwd(g, 2), {0, 0.001});
  fees.set_policy(fwd(g, 3), {0, 0.001});
  NetworkState s(g);
  for (int c = 0; c < 4; ++c) set_channel(s, g, c, 100, 0);

  ElephantConfig no_opt;
  no_opt.optimize_fees = false;
  const RouteResult r = route_elephant(g, tx(0, 3, 50), s, fees, no_opt);
  ASSERT_TRUE(r.success);
  // Sequential fill puts all 50 on the first BFS path; both are 2-hop so
  // either could be first, but the fee must correspond to a single path.
  EXPECT_TRUE(std::abs(r.fee - 50 * 0.10) < 1e-6 ||
              std::abs(r.fee - 50 * 0.002) < 1e-6);
}

TEST(RouteElephant, CountsProbeMessages) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 100, 0);
  set_channel(s, g, 1, 100, 0);
  const RouteResult r =
      route_elephant(g, tx(0, 2, 10), s, fees, ElephantConfig{});
  EXPECT_EQ(r.probes, 1u);
  EXPECT_EQ(r.probe_messages, 4u);  // 2 hops x (PROBE + PROBE_ACK)
}

// --- Mice routing table ------------------------------------------------------------

TEST(RoutingTable, ComputesOnFirstLookupOnly) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  MiceRoutingTable table(g, {2, 2, 0});
  bool computed = false;
  const auto& p1 = table.lookup(0, 3, &computed);
  EXPECT_TRUE(computed);
  EXPECT_EQ(p1.size(), 2u);
  table.lookup(0, 3, &computed);
  EXPECT_FALSE(computed);
  EXPECT_EQ(table.computations(), 1u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(RoutingTable, ReplaceDeadPathPromotesSpare) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  MiceRoutingTable table(g, {1, 2, 0});
  const auto paths = table.lookup(0, 3);
  ASSERT_EQ(paths.size(), 1u);
  const Path dead = paths[0];
  EXPECT_TRUE(table.replace_dead_path(0, 3, dead));
  const auto& fresh = table.lookup(0, 3);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_NE(fresh[0], dead);
}

TEST(RoutingTable, ReplaceWithoutSparesShrinks) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  MiceRoutingTable table(g, {4, 0, 0});  // only one path exists, no spares
  const auto paths = table.lookup(0, 2);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_FALSE(table.replace_dead_path(0, 2, paths[0]));
  EXPECT_TRUE(table.lookup(0, 2).empty());
}

TEST(RoutingTable, ExhaustedEntryStaysEmptyByDefault) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  MiceRoutingTable table(g, {4, 0, 0});
  const Path dead = table.lookup(0, 2)[0];
  EXPECT_FALSE(table.replace_dead_path(0, 2, dead));
  // The pinned static behavior: the entry survives, empty, forever.
  bool computed = true;
  EXPECT_TRUE(table.lookup(0, 2, &computed).empty());
  EXPECT_FALSE(computed);
  EXPECT_EQ(table.computations(), 1u);
}

TEST(RoutingTable, RecomputeOnExhaustionForgetsEmptyEntries) {
  // Churn mode: once every path of an entry died, the entry is dropped so
  // the next lookup re-runs Yen instead of failing until a view refresh.
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  RoutingTableConfig config{4, 0, 0};
  config.recompute_on_exhaustion = true;
  MiceRoutingTable table(g, config);
  const Path dead = table.lookup(0, 2)[0];
  EXPECT_FALSE(table.replace_dead_path(0, 2, dead));
  EXPECT_EQ(table.size(), 0u);
  bool computed = false;
  EXPECT_FALSE(table.lookup(0, 2, &computed).empty());
  EXPECT_TRUE(computed);
  EXPECT_EQ(table.computations(), 2u);
}

TEST(RoutingTable, ClearForcesRecomputation) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  MiceRoutingTable table(g, {2, 0, 0});
  table.lookup(0, 2);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  bool computed = false;
  table.lookup(0, 2, &computed);
  EXPECT_TRUE(computed);
  EXPECT_EQ(table.computations(), 2u);
}

TEST(RoutingTable, TimeoutEvictsStaleEntries) {
  Graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  MiceRoutingTable table(g, {2, 0, /*entry_timeout=*/100});
  table.lookup(0, 3);
  // 600 lookups of a different pair age the first entry past its timeout
  // (eviction runs on a 256-lookup stride).
  for (int i = 0; i < 600; ++i) table.lookup(1, 3);
  EXPECT_EQ(table.size(), 1u);  // (0,3) evicted, (1,3) alive
}

// --- Mice routing ---------------------------------------------------------------------

TEST(RouteMice, FullPaymentFirstTryNoProbe) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 100, 0);
  set_channel(s, g, 1, 100, 0);
  MiceRoutingTable table(g, {4, 2, 0});
  Rng rng(41);
  const RouteResult r = route_mice(g, tx(0, 2, 10), s, fees, table, rng);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.probes, 0u);  // no probing when the first trial lands
  EXPECT_EQ(r.probe_messages, 0u);
  EXPECT_EQ(r.paths_used, 1u);
}

TEST(RouteMice, SplitsViaPartialPayments) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 6, 0);
  set_channel(s, g, 1, 6, 0);
  set_channel(s, g, 2, 6, 0);
  set_channel(s, g, 3, 6, 0);
  MiceRoutingTable table(g, {4, 2, 0});
  Rng rng(43);
  const RouteResult r = route_mice(g, tx(0, 3, 10), s, fees, table, rng);
  EXPECT_TRUE(r.success);
  EXPECT_GE(r.paths_used, 2u);
  EXPECT_GT(r.probes, 0u);  // needed probing after the full send failed
  EXPECT_TRUE(s.check_invariants());
}

TEST(RouteMice, FailureRollsBackAllPartials) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  FeeSchedule fees(g);
  NetworkState s(g);
  for (int c = 0; c < 4; ++c) set_channel(s, g, c, 3, 0);
  const auto snap = s.snapshot();
  MiceRoutingTable table(g, {4, 2, 0});
  Rng rng(47);
  const RouteResult r = route_mice(g, tx(0, 3, 50), s, fees, table, rng);
  EXPECT_FALSE(r.success);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(s.balance(e), snap.balance[e]);
  }
  EXPECT_EQ(s.active_holds(), 0u);
}

TEST(RouteMice, DeadPathGetsReplaced) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 0, 0);  // path via node 1 dead at first hop
  set_channel(s, g, 1, 0, 0);
  set_channel(s, g, 2, 100, 0);
  set_channel(s, g, 3, 100, 0);
  MiceRoutingTable table(g, {1, 3, 0});  // one active path + spares
  Rng rng(53);
  // Keep routing until the payment succeeds via the healthy route; the
  // dead path must eventually be replaced in the table.
  bool succeeded = false;
  for (int attempt = 0; attempt < 4 && !succeeded; ++attempt) {
    succeeded = route_mice(g, tx(0, 3, 10), s, fees, table, rng).success;
  }
  EXPECT_TRUE(succeeded);
}

// --- FlashRouter classification ---------------------------------------------------

TEST(FlashRouter, ClassifiesByThreshold) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 1000, 0);
  set_channel(s, g, 1, 1000, 0);
  FlashConfig config;
  config.elephant_threshold = 100;
  FlashRouter router(g, fees, config);
  EXPECT_FALSE(router.is_elephant(99));
  EXPECT_TRUE(router.is_elephant(100));
  const RouteResult mouse = router.route(tx(0, 2, 50), s);
  EXPECT_TRUE(mouse.success);
  EXPECT_FALSE(mouse.elephant);
  const RouteResult elephant = router.route(tx(0, 2, 200), s);
  EXPECT_TRUE(elephant.success);
  EXPECT_TRUE(elephant.elephant);
}

TEST(FlashRouter, MZeroRoutesMiceAsElephants) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 1000, 0);
  set_channel(s, g, 1, 1000, 0);
  FlashConfig config;
  config.elephant_threshold = 100;
  config.m_mice_paths = 0;  // Fig. 11's upper-bound configuration
  FlashRouter router(g, fees, config);
  const RouteResult r = router.route(tx(0, 2, 10), s);
  EXPECT_TRUE(r.success);
  EXPECT_FALSE(r.elephant);       // still reported as a mouse
  EXPECT_GE(r.probe_messages, 1u);  // but probed like an elephant
}

TEST(FlashRouter, TopologyUpdateClearsTable) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 100, 0);
  set_channel(s, g, 1, 100, 0);
  FlashConfig config;
  config.elephant_threshold = 1000;
  FlashRouter router(g, fees, config);
  router.route(tx(0, 2, 1), s);
  EXPECT_EQ(router.routing_table().size(), 1u);
  EXPECT_EQ(router.on_topology_update(), 1u);  // reports the entries dropped
  EXPECT_EQ(router.routing_table().size(), 0u);
  EXPECT_EQ(router.on_topology_update(), 0u);
}

}  // namespace
}  // namespace flash

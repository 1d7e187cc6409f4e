// Edge-case and failure-injection tests across modules: degenerate
// topologies, zero capacities, boundary parameters, and the rare code
// paths the paper mentions in passing.
#include <gtest/gtest.h>

#include "graph/maxflow.h"
#include "graph/topology.h"
#include "graph/yen.h"
#include "routing/flash/elephant.h"
#include "routing/flash/flash_router.h"
#include "routing/flash/mice.h"
#include "routing/shortest_path.h"
#include "routing/speedymurmurs.h"
#include "routing/spider.h"
#include "testbed/network.h"
#include "testbed/sessions.h"
#include "testutil.h"

namespace flash {
namespace {

using testing::bwd;
using testing::fwd;
using testing::make_graph;
using testing::set_channel;

Transaction tx(NodeId s, NodeId t, Amount a) { return {s, t, a, 0}; }

// --- Elephant rare paths --------------------------------------------------------

TEST(ElephantEdge, ZeroCapacityPathProbedButContributesNothing) {
  // §3.2: "It is thus possible, though rare, that our algorithm finds a
  // path but its effective capacity is zero after probing."
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  NetworkState s(g);
  set_channel(s, g, 0, 0, 0);  // dead path via 1
  set_channel(s, g, 1, 0, 0);
  set_channel(s, g, 2, 50, 0);
  set_channel(s, g, 3, 50, 0);
  const auto r = elephant_find_paths(g, 0, 3, 40, 20, s);
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.max_flow, 50);
  // The dead path may have been probed (flow 0) but the live one carries.
  EXPECT_GE(r.paths.size(), 1u);
}

TEST(ElephantEdge, ZeroMaxPathsAlwaysInfeasible) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 100, 0);
  const auto r = elephant_find_paths(g, 0, 1, 1, 0, s);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.probes, 0u);
}

TEST(ElephantEdge, DemandExactlyEqualToFlow) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 42, 0);
  const auto r = elephant_find_paths(g, 0, 1, 42, 20, s);
  EXPECT_TRUE(r.feasible);
  FeeSchedule fees(g);
  NetworkState s2(g);
  set_channel(s2, g, 0, 42, 0);
  const RouteResult rr = route_elephant(g, tx(0, 1, 42), s2, fees, {});
  EXPECT_TRUE(rr.success);
  EXPECT_NEAR(s2.balance(fwd(g, 0)), 0, 1e-9);
}

TEST(ElephantEdge, ResidualReverseArcsEnableHigherFlow) {
  // The probing search must use residual reverse arcs like true
  // Edmonds-Karp: classic 4-node cross graph where greedy path choice
  // must be undone through the reverse arc.
  Graph g = make_graph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 2}});
  NetworkState s(g);
  for (int c = 0; c < 5; ++c) set_channel(s, g, c, 1, 0);
  const auto r = elephant_find_paths(g, 0, 3, 2, 32, s);
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.max_flow, 2, 1e-9);
}

TEST(ElephantEdge, SelfPaymentAndNonPositiveAmountFail) {
  Graph g = make_graph(2, {{0, 1}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 10, 10);
  EXPECT_FALSE(route_elephant(g, tx(0, 0, 5), s, fees, {}).success);
  EXPECT_FALSE(route_elephant(g, tx(0, 1, 0), s, fees, {}).success);
  EXPECT_FALSE(route_elephant(g, tx(0, 1, -3), s, fees, {}).success);
}

// --- Mice rare paths --------------------------------------------------------------

TEST(MiceEdge, SingleTablePathBehavesLikeSp) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  set_channel(s, g, 1, 10, 0);
  MiceRoutingTable table(g, {1, 0, 0});
  Rng rng(1);
  EXPECT_TRUE(route_mice(g, tx(0, 2, 10), s, fees, table, rng).success);
  // Exactly drained; a second identical payment must fail after probing.
  const RouteResult r2 = route_mice(g, tx(0, 2, 10), s, fees, table, rng);
  EXPECT_FALSE(r2.success);
}

TEST(MiceEdge, ProbeMessageAccountingMatchesMeter) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 5, 0);
  set_channel(s, g, 1, 5, 0);
  MiceRoutingTable table(g, {4, 0, 0});
  Rng rng(2);
  // Demand exceeds capacity: the only path gets probed once (2 hops ->
  // 4 messages), then the payment fails.
  const std::uint64_t before = s.probe_messages();
  const RouteResult r = route_mice(g, tx(0, 2, 50), s, fees, table, rng);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.probe_messages, s.probe_messages() - before);
  EXPECT_EQ(r.probe_messages, 4u);
  EXPECT_EQ(r.probes, 1u);
}

TEST(MiceEdge, UnreachableReceiverFailsCleanly) {
  Graph g(4);
  g.add_channel(0, 1);
  g.add_channel(2, 3);
  FeeSchedule fees(g);
  NetworkState s(g);
  MiceRoutingTable table(g, {4, 2, 0});
  Rng rng(3);
  EXPECT_FALSE(route_mice(g, tx(0, 3, 1), s, fees, table, rng).success);
}

// --- Baseline rare paths ------------------------------------------------------------

TEST(SpiderEdge, SingleDisjointPathStillWorks) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});  // bridge topology
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  set_channel(s, g, 1, 10, 0);
  SpiderRouter router(g, fees);
  EXPECT_TRUE(router.route(tx(0, 2, 8), s).success);
}

TEST(SpiderEdge, DegenerateTransactionsRejected) {
  Graph g = make_graph(2, {{0, 1}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 10, 10);
  SpiderRouter router(g, fees);
  EXPECT_FALSE(router.route(tx(0, 0, 1), s).success);
  EXPECT_FALSE(router.route(tx(0, 1, 0), s).success);
}

TEST(SpeedyMurmursEdge, MoreLandmarksThanNodesClamped) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  FeeSchedule fees(g);
  SpeedyMurmursRouter router(g, fees, SpeedyMurmursConfig{10});
  EXPECT_EQ(router.landmarks().size(), 3u);
  NetworkState s(g);
  set_channel(s, g, 0, 100, 100);
  set_channel(s, g, 1, 100, 100);
  EXPECT_TRUE(router.route(tx(0, 2, 3), s).success);
}

TEST(SpeedyMurmursEdge, DisconnectedReceiverFails) {
  Graph g(4);
  g.add_channel(0, 1);
  g.add_channel(2, 3);
  FeeSchedule fees(g);
  NetworkState s(g);
  s.set_balance(0, 100);
  SpeedyMurmursRouter router(g, fees);
  EXPECT_FALSE(router.route(tx(0, 3, 1), s).success);
}

TEST(ShortestPathEdge, CacheSurvivesTopologyRefresh) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 100, 0);
  set_channel(s, g, 1, 100, 0);
  ShortestPathRouter router(g, fees);
  EXPECT_TRUE(router.route(tx(0, 2, 1), s).success);
  EXPECT_EQ(router.on_topology_update(), 1u);  // the one cached pair
  EXPECT_EQ(router.on_topology_update(), 0u);  // nothing left to drop
  EXPECT_TRUE(router.route(tx(0, 2, 1), s).success);
}

// --- Testbed rare protocol paths -----------------------------------------------------

TEST(TestbedEdge, NackAtSenderHop) {
  // The sender itself lacks balance: NACK with fail_hop 0, nothing held.
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  testbed::Network net(g);
  net.set_balance(0, 1);  // 0->1 too thin
  net.set_balance(2, 100);
  testbed::Message nack;
  bool got = false;
  net.register_session(1, [&](const testbed::Message& m) {
    if (m.type == testbed::MsgType::kCommitNack) {
      nack = m;
      got = true;
    }
  });
  testbed::Message commit;
  commit.trans_id = 1;
  commit.type = testbed::MsgType::kCommit;
  commit.path = {0, 1, 2};
  commit.commit = 5;
  net.originate(std::move(commit));
  net.queue().run_until_idle(10000);
  ASSERT_TRUE(got);
  EXPECT_EQ(nack.fail_hop, 0u);
  EXPECT_DOUBLE_EQ(net.total_pending(), 0);
  EXPECT_DOUBLE_EQ(net.balance(0), 1);
}

TEST(TestbedEdge, TwoHopMinimalPath) {
  Graph g = make_graph(2, {{0, 1}});
  testbed::Network net(g);
  net.set_balance(0, 10);
  bool ok = false;
  testbed::SpSession session(net, {0, 1}, 7.0, [&](bool b) { ok = b; });
  session.start();
  net.queue().run_until_idle(10000);
  EXPECT_TRUE(ok);
  EXPECT_DOUBLE_EQ(net.balance(0), 3);
  EXPECT_DOUBLE_EQ(net.balance(1), 7);  // receiver credited on CONFIRM
}

TEST(TestbedEdge, ConcurrentSubPaymentsShareChannelAtomically) {
  // Two Spider sub-payments overlap on 0->1; the second COMMIT must see
  // the balance after the first hold.
  Graph g = make_graph(4, {{0, 1}, {1, 2}, {1, 3}, {2, 3}});
  testbed::Network net(g);
  net.set_balance(net.edge_between(0, 1), 10);
  net.set_balance(net.edge_between(1, 3), 6);
  net.set_balance(net.edge_between(1, 2), 6);
  net.set_balance(net.edge_between(2, 3), 6);
  bool ok = false;
  testbed::SpiderSession session(net, {{0, 1, 3}, {0, 1, 2, 3}}, 10.0,
                                 [&](bool b) { ok = b; });
  session.start();
  net.queue().run_until_idle(100000);
  EXPECT_TRUE(ok);
  EXPECT_DOUBLE_EQ(net.balance(net.edge_between(0, 1)), 0);  // both used it
  EXPECT_DOUBLE_EQ(net.total_pending(), 0);
}

TEST(TestbedEdge, SessionUnregisteredAfterFinish) {
  Graph g = make_graph(2, {{0, 1}});
  testbed::Network net(g);
  net.set_balance(0, 10);
  bool ok = false;
  {
    testbed::SpSession session(net, {0, 1}, 5.0, [&](bool b) { ok = b; });
    session.start();
    net.queue().run_until_idle(10000);
    EXPECT_TRUE(session.finished());
  }
  // A stray late message for a finished trans id must be dropped silently.
  testbed::Message stray;
  stray.trans_id = 1;
  stray.type = testbed::MsgType::kProbe;
  stray.path = {0, 1};
  net.originate(std::move(stray));
  net.queue().run_until_idle(10000);
  EXPECT_TRUE(ok);
}

// --- Max-flow numeric edges ------------------------------------------------------------

TEST(MaxFlowEdge, ZeroCapacityEverywhere) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  const auto r = edmonds_karp(g, 0, 2, [](EdgeId) { return 0.0; });
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_TRUE(r.paths.empty());
}

TEST(MaxFlowEdge, TinyCapacitiesBelowEpsilonIgnored) {
  Graph g = make_graph(2, {{0, 1}});
  const auto r = edmonds_karp(g, 0, 1, [](EdgeId) { return 1e-15; });
  EXPECT_DOUBLE_EQ(r.value, 0.0);
}

// --- Yen with weights --------------------------------------------------------------------

TEST(YenEdge, WeightedOrderDiffersFromHopOrder) {
  // Direct edge is expensive; the 2-hop detour is cheaper.
  Graph g = make_graph(3, {{0, 2}, {0, 1}, {1, 2}});
  const EdgeWeight w = [&](EdgeId e) {
    return g.channel_of(e) == 0 ? 10.0 : 1.0;
  };
  const auto paths = yen_k_shortest_paths(g, 0, 2, 2, w);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].size(), 2u);  // cheap detour first
  EXPECT_EQ(paths[1].size(), 1u);
}

// --- FlashRouter boundary thresholds ---------------------------------------------------------

TEST(FlashRouterEdge, ThresholdZeroMakesEverythingElephant) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 100, 0);
  set_channel(s, g, 1, 100, 0);
  FlashConfig config;
  config.elephant_threshold = 0;
  FlashRouter router(g, fees, config);
  const RouteResult r = router.route(tx(0, 2, 1), s);
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(r.elephant);
}

TEST(FlashRouterEdge, HugeThresholdMakesEverythingMice) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 100, 0);
  set_channel(s, g, 1, 100, 0);
  FlashConfig config;
  config.elephant_threshold = 1e18;
  FlashRouter router(g, fees, config);
  const RouteResult r = router.route(tx(0, 2, 50), s);
  EXPECT_TRUE(r.success);
  EXPECT_FALSE(r.elephant);
}

}  // namespace
}  // namespace flash

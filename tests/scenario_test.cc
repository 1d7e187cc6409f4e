// Tests for the dynamic scenario engine (sim/scenario.h): the pinned
// zero-dynamics equivalence with run_simulation, retry accounting, churn,
// gossip-delay staleness, rebalancing drift, and determinism.
#include <gtest/gtest.h>

#include "sim/scenario.h"
#include "sim/simulator.h"
#include "testutil.h"
#include "trace/workload.h"

namespace flash {
namespace {

// Field-for-field SimResult equality; doubles compared exactly (the
// zero-dynamics engine must be BIT-identical to the static simulator).
using flash::testing::expect_identical;

TEST(Scenario, ZeroDynamicsBitIdenticalToRunSimulation) {
  const Workload w = make_toy_workload(30, 250, 3);
  SimConfig sim;
  sim.capacity_scale = 2.0;
  const ScenarioConfig none;  // every dynamic off
  for (const Scheme scheme : all_schemes()) {
    const auto router = make_router(scheme, w, {}, /*seed=*/7);
    const SimResult expected = run_simulation(w, *router, sim);
    const ScenarioResult got = run_scenario(w, scheme, {}, sim, none, 7);
    expect_identical(got.sim, expected);
    EXPECT_EQ(got.sim.retries, 0u);
    EXPECT_EQ(got.sim.stale_view_failures, 0u);
    EXPECT_EQ(got.sim.time_to_success_total, 0.0);
    EXPECT_EQ(got.channels_closed, 0u);
    EXPECT_EQ(got.channels_reopened, 0u);
    EXPECT_EQ(got.rebalance_events, 0u);
    EXPECT_EQ(got.gossip_messages, 0u);
    EXPECT_EQ(got.router_rebuilds, 0u);
  }
}

TEST(Scenario, ZeroDynamicsBitIdenticalUnderCustomOptions) {
  // Non-default Flash options and class threshold must flow through the
  // engine exactly as through the static path.
  const Workload w = make_toy_workload(25, 200, 11);
  FlashOptions opts;
  opts.m_mice_paths = 2;
  opts.k_elephant_paths = 6;
  opts.mice_quantile = 0.8;
  SimConfig sim;
  sim.capacity_scale = 1.5;
  sim.class_threshold = 40;
  sim.invariant_stride = 16;
  const auto router = make_router(Scheme::kFlash, w, opts, 21);
  const SimResult expected = run_simulation(w, *router, sim);
  const ScenarioResult got =
      run_scenario(w, Scheme::kFlash, opts, sim, {}, 21);
  expect_identical(got.sim, expected);
}

TEST(Scenario, RetriesAreCountedAndCanRescuePayments) {
  // Scarce capacity so first attempts fail; Flash's randomized mice order
  // gives retries a real chance to succeed.
  const Workload w = make_toy_workload(30, 300, 5);
  SimConfig sim;
  sim.capacity_scale = 1.0;
  ScenarioConfig cfg;
  cfg.retry.max_retries = 2;
  cfg.retry.delay = 0.25;
  const ScenarioResult got =
      run_scenario(w, Scheme::kFlash, {}, sim, cfg, 9);
  const ScenarioResult baseline =
      run_scenario(w, Scheme::kFlash, {}, sim, {}, 9);

  EXPECT_EQ(got.sim.transactions, 300u);  // retries never double-count
  EXPECT_GT(got.sim.retries, 0u);
  const std::size_t failures = got.sim.transactions - got.sim.successes;
  EXPECT_LE(got.sim.retries,
            cfg.retry.max_retries * (failures + got.sim.retry_successes));
  // A payment that succeeds via retry settles retry.delay (or 2x) late.
  if (got.sim.retry_successes > 0) {
    EXPECT_GT(got.sim.time_to_success_total, 0.0);
    EXPECT_GT(got.sim.mean_time_to_success(), 0.0);
  }
  // Retrying can only help the success count on the same workload.
  EXPECT_GE(got.sim.successes, baseline.sim.successes);
}

TEST(Scenario, ChurnClosesAndReopensChannelsUnderInvariantChecks) {
  const Workload w = make_toy_workload(30, 300, 6);
  SimConfig sim;
  sim.capacity_scale = 3.0;
  sim.invariant_stride = 8;  // sweep the ledger aggressively
  ScenarioConfig cfg;
  cfg.churn.close_rate = 0.1;     // ~30 closes over the 300-tx horizon
  cfg.churn.mean_downtime = 40;   // most reopen within the run
  const ScenarioResult got =
      run_scenario(w, Scheme::kFlash, {}, sim, cfg, 4);
  EXPECT_GT(got.channels_closed, 5u);
  EXPECT_GT(got.channels_reopened, 0u);
  EXPECT_LE(got.channels_reopened, got.channels_closed);
  EXPECT_GT(got.router_rebuilds, 0u);
  EXPECT_GT(got.gossip_messages, 0u);  // churn announcements flooded
  EXPECT_EQ(got.sim.transactions, 300u);
  // Instant gossip: views track the truth, so no failure is ever charged
  // to staleness.
  EXPECT_EQ(got.sim.stale_view_failures, 0u);
}

TEST(Scenario, GossipDelayCausesStaleViewFailures) {
  const Workload w = make_toy_workload(30, 300, 6);
  SimConfig sim;
  sim.capacity_scale = 3.0;
  ScenarioConfig stale;
  stale.churn.close_rate = 0.1;
  stale.gossip.hop_delay = 25;  // announcements crawl across the topology
  const ScenarioResult delayed =
      run_scenario(w, Scheme::kShortestPath, {}, sim, stale, 4);
  EXPECT_GT(delayed.sim.stale_view_failures, 0u);

  ScenarioConfig instant = stale;
  instant.gossip.hop_delay = 0;
  const ScenarioResult fresh =
      run_scenario(w, Scheme::kShortestPath, {}, sim, instant, 4);
  EXPECT_EQ(fresh.sim.stale_view_failures, 0u);
  // Same churn schedule (same dynamics stream): staleness can only hurt.
  EXPECT_EQ(fresh.channels_closed, delayed.channels_closed);
  EXPECT_GE(fresh.sim.successes, delayed.sim.successes);
}

TEST(Scenario, RebalanceDriftRunsAndConservesLedger) {
  const Workload w = make_toy_workload(25, 200, 8);
  SimConfig sim;
  sim.capacity_scale = 2.0;
  sim.invariant_stride = 8;  // internal conservation sweeps
  ScenarioConfig cfg;
  cfg.rebalance.interval = 10;
  cfg.rebalance.strength = 0.5;
  const ScenarioResult got =
      run_scenario(w, Scheme::kShortestPath, {}, sim, cfg, 2);
  EXPECT_GE(got.rebalance_events, 19u);  // one per interval over the run
  EXPECT_EQ(got.sim.transactions, 200u);
  // No churn: rebalancing alone never makes a view stale.
  EXPECT_EQ(got.sim.stale_view_failures, 0u);
  EXPECT_EQ(got.router_rebuilds, 0u);
}

TEST(Scenario, FullyDynamicRunIsDeterministic) {
  const Workload w = make_toy_workload(30, 250, 12);
  SimConfig sim;
  sim.capacity_scale = 2.0;
  ScenarioConfig cfg;
  cfg.retry.max_retries = 1;
  cfg.retry.delay = 0.5;
  cfg.churn.close_rate = 0.08;
  cfg.churn.mean_downtime = 30;
  cfg.gossip.hop_delay = 3;
  cfg.rebalance.interval = 25;
  for (const Scheme scheme : {Scheme::kFlash, Scheme::kShortestPath}) {
    const ScenarioResult a = run_scenario(w, scheme, {}, sim, cfg, 13);
    const ScenarioResult b = run_scenario(w, scheme, {}, sim, cfg, 13);
    expect_identical(a.sim, b.sim);
    EXPECT_EQ(a.channels_closed, b.channels_closed);
    EXPECT_EQ(a.channels_reopened, b.channels_reopened);
    EXPECT_EQ(a.rebalance_events, b.rebalance_events);
    EXPECT_EQ(a.gossip_rounds, b.gossip_rounds);
    EXPECT_EQ(a.gossip_messages, b.gossip_messages);
    EXPECT_EQ(a.router_rebuilds, b.router_rebuilds);
    EXPECT_EQ(a.duration, b.duration);
  }
}

TEST(Scenario, StreamCtorBitIdenticalToVectorCtor) {
  // The vector ctor is a thin wrapper over the streaming one; a fully
  // dynamic run must not be able to tell them apart.
  const Workload w = make_toy_workload(30, 250, 12);
  SimConfig sim;
  sim.capacity_scale = 2.0;
  ScenarioConfig cfg;
  cfg.retry.max_retries = 1;
  cfg.retry.delay = 0.5;
  cfg.churn.close_rate = 0.08;
  cfg.churn.mean_downtime = 30;
  cfg.gossip.hop_delay = 3;
  cfg.rebalance.interval = 25;
  const ScenarioResult expected =
      run_scenario(w, Scheme::kFlash, {}, sim, cfg, 13);
  VectorWorkloadStream stream(w.transactions());
  ScenarioEngine engine(w, stream, Scheme::kFlash, {}, sim, cfg, 13);
  const ScenarioResult got = engine.run();
  expect_identical(got.sim, expected.sim);
  EXPECT_EQ(got.channels_closed, expected.channels_closed);
  EXPECT_EQ(got.router_rebuilds, expected.router_rebuilds);
  EXPECT_EQ(got.duration, expected.duration);
}

TEST(Scenario, BoundedRouterCacheBitIdenticalForStatelessRouters) {
  // A tiny LRU capacity forces evictions and rebuild-on-reuse. A rebuilt
  // ShortestPath router is indistinguishable from the evicted one (no
  // internal draw state) and the rebuilt mirror full-syncs from the truth
  // ledger, so the run must match the unbounded one bit for bit. (Flash
  // is excluded by design: eviction discards a router's consumed rng and
  // table state, which a same-view rebuild cannot resume mid-sequence.)
  const Workload w = make_toy_workload(30, 250, 12);
  SimConfig sim;
  sim.capacity_scale = 2.0;
  ScenarioConfig cfg;
  cfg.retry.max_retries = 1;
  cfg.churn.close_rate = 0.08;
  cfg.churn.mean_downtime = 30;
  cfg.gossip.hop_delay = 3;
  const ScenarioResult unbounded =
      run_scenario(w, Scheme::kShortestPath, {}, sim, cfg, 13);
  ScenarioConfig small = cfg;
  small.max_sender_routers = 2;
  const ScenarioResult bounded =
      run_scenario(w, Scheme::kShortestPath, {}, sim, small, 13);
  expect_identical(bounded.sim, unbounded.sim);
  EXPECT_EQ(bounded.channels_closed, unbounded.channels_closed);
  EXPECT_EQ(bounded.rebalance_events, unbounded.rebalance_events);
  EXPECT_EQ(bounded.gossip_messages, unbounded.gossip_messages);
  EXPECT_EQ(bounded.duration, unbounded.duration);
  // The cap must actually bite for this test to mean anything.
  EXPECT_GT(bounded.router_cache_evictions, 0u);
  EXPECT_GT(bounded.router_cache_misses, unbounded.router_cache_misses);
  EXPECT_EQ(unbounded.router_cache_evictions, 0u);
}

TEST(Scenario, BoundedRouterCacheIsDeterministic) {
  // Stateful routers (Flash) may legitimately route differently once
  // evicted-and-rebuilt, but the bounded run must still be reproducible
  // and conserve the ledger under invariant sweeps.
  const Workload w = make_toy_workload(30, 250, 12);
  SimConfig sim;
  sim.capacity_scale = 2.0;
  sim.invariant_stride = 16;
  ScenarioConfig cfg;
  cfg.retry.max_retries = 1;
  cfg.churn.close_rate = 0.08;
  cfg.churn.mean_downtime = 30;
  cfg.gossip.hop_delay = 3;
  cfg.max_sender_routers = 2;
  const ScenarioResult a = run_scenario(w, Scheme::kFlash, {}, sim, cfg, 13);
  const ScenarioResult b = run_scenario(w, Scheme::kFlash, {}, sim, cfg, 13);
  expect_identical(a.sim, b.sim);
  EXPECT_EQ(a.router_cache_hits, b.router_cache_hits);
  EXPECT_EQ(a.router_cache_misses, b.router_cache_misses);
  EXPECT_EQ(a.router_cache_evictions, b.router_cache_evictions);
  EXPECT_GT(a.router_cache_evictions, 0u);
  EXPECT_EQ(a.sim.transactions, 250u);
}

TEST(Scenario, RouterCacheIdleWithoutDynamics) {
  // Zero dynamics never diverges any view, so the engine routes on the
  // shared base router and no per-sender context is ever built.
  const Workload w = make_toy_workload(20, 100, 4);
  const ScenarioResult got = run_scenario(w, Scheme::kShortestPath, {}, {},
                                          ScenarioConfig{}, 5);
  EXPECT_EQ(got.router_cache_hits, 0u);
  EXPECT_EQ(got.router_cache_misses, 0u);
  EXPECT_EQ(got.router_cache_evictions, 0u);
}

TEST(Scenario, EngineIsSingleUse) {
  const Workload w = make_toy_workload(20, 20, 1);
  ScenarioEngine engine(w, Scheme::kShortestPath, {}, {}, {}, 1);
  engine.run();
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(Scenario, RejectsNonsenseConfigs) {
  const Workload w = make_toy_workload(20, 10, 1);
  ScenarioConfig bad;
  bad.churn.close_rate = -1;
  EXPECT_THROW(run_scenario(w, Scheme::kFlash, {}, {}, bad, 1),
               std::invalid_argument);
  bad = {};
  bad.retry.delay = -0.5;
  EXPECT_THROW(run_scenario(w, Scheme::kFlash, {}, {}, bad, 1),
               std::invalid_argument);
  bad = {};
  bad.rebalance.strength = 1.5;
  EXPECT_THROW(run_scenario(w, Scheme::kFlash, {}, {}, bad, 1),
               std::invalid_argument);
  bad = {};
  bad.gossip.hop_delay = -1;
  EXPECT_THROW(run_scenario(w, Scheme::kFlash, {}, {}, bad, 1),
               std::invalid_argument);
}

TEST(Scenario, EvictedSenderRebuildsNeverPatchesFromForeignState) {
  // A recycled LRU slot carries another sender's mask and router caches;
  // patching it forward from that state (instead of a full rebuild) would
  // leak one sender's view into another's. With the cache capped at one
  // slot, every sender change recycles, so any such leak diverges the run
  // from the oracle almost immediately.
  const Workload w = make_toy_workload(30, 250, 12);
  SimConfig sim;
  sim.capacity_scale = 2.0;
  ScenarioConfig cfg;
  cfg.retry.max_retries = 1;
  cfg.churn.close_rate = 0.15;
  cfg.churn.mean_downtime = 30;
  cfg.gossip.hop_delay = 3;
  cfg.max_sender_routers = 1;
  cfg.maintenance = RouterMaintenance::kFullRebuild;  // the oracle
  ScenarioConfig inc_cfg = cfg;
  inc_cfg.maintenance = RouterMaintenance::kIncrementalStrict;
  for (const Scheme scheme : {Scheme::kFlash, Scheme::kShortestPath}) {
    const ScenarioResult oracle = run_scenario(w, scheme, {}, sim, cfg, 13);
    const ScenarioResult inc = run_scenario(w, scheme, {}, sim, inc_cfg, 13);
    expect_identical(inc.sim, oracle.sim);
    EXPECT_EQ(inc.payment_digest, oracle.payment_digest);
    EXPECT_GT(inc.router_cache_evictions, 0u);  // the cap must bite
    // Telemetry invariant: incremental contexts rebuild exactly on cache
    // misses (first use / post-eviction return) and patch on every view
    // change of a live context — never the other way around.
    EXPECT_EQ(inc.router_rebuilds, inc.router_cache_misses);
    EXPECT_EQ(oracle.router_patches, 0u);
  }
}

TEST(Scenario, RebuildCountPinnedAcrossViewMappingRefactor) {
  // Regression pin for the sorted-pair merge cursor that replaced the
  // per-channel hash lookup in rebuild_context: the mapping refactor must
  // not change WHEN rebuilds fire or what they build. The exact count on
  // this fixed scenario is part of the pin; if it moves, the view-change
  // detection itself changed.
  const Workload w = make_toy_workload(30, 300, 6);
  SimConfig sim;
  sim.capacity_scale = 3.0;
  ScenarioConfig cfg;
  cfg.churn.close_rate = 0.1;
  cfg.churn.mean_downtime = 40;
  // The pin counts the oracle's rebuilds, so it names the oracle mode
  // rather than relying on the default.
  cfg.maintenance = RouterMaintenance::kFullRebuild;
  const ScenarioResult got = run_scenario(w, Scheme::kFlash, {}, sim, cfg, 4);
  EXPECT_EQ(got.router_rebuilds, 189u);
  EXPECT_EQ(got.router_patches, 0u);  // oracle mode never patches
}

TEST(Scenario, SharedMirrorFullSyncsOncePerJournalGeneration) {
  // Incremental senders share one mirror ledger, so building or recycling
  // a sender context must not resync it: only a new truth-journal
  // generation does (the first sync, each rebalance, a journal overflow).
  // A one-slot-short cache over many senders evicts constantly, and each
  // eviction used to full-sync a private mirror on the sender's return.
  const Workload w = make_toy_workload(400, 300, 21);
  SimConfig sim;
  sim.capacity_scale = 2.0;
  FlashOptions opts;
  opts.max_route_hops = 6;
  ScenarioConfig cfg;
  cfg.retry.max_retries = 1;
  cfg.churn.close_rate = 0.05;
  cfg.churn.mean_downtime = 40;
  cfg.gossip.hop_delay = 3;
  cfg.rebalance.interval = 100;
  cfg.max_sender_routers = 2;
  const ScenarioResult got =
      run_scenario(w, Scheme::kShortestPath, opts, sim, cfg, 3);
  // The journal cannot overflow here: a shortest-path payment settles one
  // path of at most max_route_hops hops (two journaled edges per hop), a
  // close or reopen journals 2, and the sum stays under the 4 x edges
  // overflow bound. So the run has exactly 1 + rebalance_events journal
  // generations.
  ASSERT_LT(2 * opts.max_route_hops * got.sim.successes +
                2 * (got.channels_closed + got.channels_reopened),
            4 * w.graph().num_edges());
  EXPECT_GT(got.rebalance_events, 0u);
  EXPECT_GT(got.router_cache_evictions, 20u);  // the cap must bite
  EXPECT_GT(got.router_rebuilds, 10 * (got.rebalance_events + 1));
  EXPECT_GT(got.mirror_full_syncs, 0u);
  EXPECT_LE(got.mirror_full_syncs, got.rebalance_events + 1);
}

// Wall-clock service latency. The suite names predate the removal of the
// concurrent execution modes and are kept so each test's history stays
// continuous; both now run the sequential engine, the only payment loop.
TEST(ConcurrentReplay, LatencyHistogramCoversEveryPayment) {
  // Retries and churn: a payment is timed once, when it completes, however
  // many attempts it took.
  const Workload w = make_toy_workload(20, 150, 4);
  ScenarioConfig cfg;
  cfg.churn.close_rate = 0.08;
  cfg.churn.mean_downtime = 40;
  cfg.retry.max_retries = 2;
  const ScenarioResult got = run_scenario(w, Scheme::kFlash, {}, {}, cfg, 5);
  EXPECT_GT(got.sim.retries, 0u);
  EXPECT_EQ(got.latency.count, got.sim.transactions);
  EXPECT_LE(got.latency.p50_seconds, got.latency.p99_seconds);
  // p50/p99 come from a log histogram (8 bins per decade) that
  // interpolates within a bin, so a quantile may legitimately land up to
  // one bin ratio (10^(1/8) ~= 1.334) above the exact maximum.
  EXPECT_LE(got.latency.p99_seconds, got.latency.max_seconds * 1.34);
  EXPECT_GT(got.latency.mean_seconds, 0.0);
}

TEST(ConcurrentSequential, LatencyAlsoRecordedInSequentialMode) {
  const Workload w = make_toy_workload(20, 150, 4);
  const ScenarioResult got = run_scenario(w, Scheme::kFlash, {}, {}, {}, 5);
  EXPECT_EQ(got.latency.count, got.sim.transactions);
}

}  // namespace
}  // namespace flash

// Cross-module integration tests: the full pipeline from workload
// generation through routing to metrics, exercising the paper's headline
// comparisons in miniature, plus simulator-vs-testbed consistency.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/flash.h"
#include "testbed/runner.h"

namespace flash {
namespace {

TEST(Integration, QuickstartFlow) {
  // The README quickstart, as a test: build a network, route one payment.
  Rng rng(42);
  Graph g = watts_strogatz(50, 8, 0.3, rng);
  NetworkState state(g);
  state.assign_uniform_split(1000, 1500, rng);
  FeeSchedule fees = FeeSchedule::paper_default(g, rng);

  FlashConfig config;
  config.elephant_threshold = 500;
  FlashRouter router(g, fees, config);

  const Transaction tx{0, 7, 123.0, 0};
  const RouteResult r = router.route(tx, state);
  EXPECT_TRUE(r.success);
  EXPECT_DOUBLE_EQ(r.delivered, 123.0);
  EXPECT_TRUE(state.check_invariants());
}

TEST(Integration, AllSchemesOnRippleLikeWorkload) {
  WorkloadConfig wc;
  wc.num_transactions = 150;
  wc.seed = 1;
  const Workload w = make_ripple_workload(wc);
  EXPECT_EQ(w.graph().num_nodes(), 1870u);
  for (Scheme scheme : all_schemes()) {
    const auto router = make_router(scheme, w, {}, 1);
    const SimResult r = run_simulation(w, *router, {10.0});
    EXPECT_EQ(r.transactions, 150u) << scheme_name(scheme);
    EXPECT_GT(r.successes, 0u) << scheme_name(scheme);
  }
}

TEST(Integration, FlashDominatesVolumeOnRippleLike) {
  // Figs. 6-7 in miniature: Flash's success volume clearly exceeds every
  // baseline's on the Ripple-like workload.
  WorkloadConfig wc;
  wc.num_transactions = 300;
  wc.seed = 2;
  const Workload w = make_ripple_workload(wc);
  double flash_vol = 0, best_baseline = 0;
  for (Scheme scheme : all_schemes()) {
    const auto router = make_router(scheme, w, {}, 2);
    const SimResult r = run_simulation(w, *router, {10.0});
    if (scheme == Scheme::kFlash) {
      flash_vol = r.volume_succeeded;
    } else {
      best_baseline = std::max(best_baseline, r.volume_succeeded);
    }
  }
  EXPECT_GT(flash_vol, 1.3 * best_baseline);
}

TEST(Integration, FlashAndSpiderLeadSuccessRatioAtLowCapacity) {
  // Fig. 6a at small scale: the dynamic schemes beat the static ones.
  WorkloadConfig wc;
  wc.num_transactions = 300;
  wc.seed = 3;
  const Workload w = make_ripple_workload(wc);
  double flash = 0, spider = 0, sm = 0, sp = 0;
  for (Scheme scheme : all_schemes()) {
    const auto router = make_router(scheme, w, {}, 3);
    const double ratio = run_simulation(w, *router, {1.0}).success_ratio();
    switch (scheme) {
      case Scheme::kFlash:
        flash = ratio;
        break;
      case Scheme::kSpider:
        spider = ratio;
        break;
      case Scheme::kSpeedyMurmurs:
        sm = ratio;
        break;
      case Scheme::kShortestPath:
        sp = ratio;
        break;
    }
  }
  EXPECT_GT(flash + 0.02, std::max(sm, sp));
  EXPECT_GT(spider + 0.02, std::max(sm, sp));
}

TEST(Integration, RippleFlashRouteDigestPinned) {
  // Golden digest of every RouteResult of static Flash (default options,
  // capacity scale 10) on a paper-scale Ripple trace: its mice payments
  // run the routing-table Yen fills, its elephants the probe + LP path,
  // and fees and probe counts depend on the exact paths chosen. If this
  // moves, a routing result changed — do not re-pin without understanding
  // why.
  WorkloadConfig wc;
  wc.num_transactions = 400;
  wc.seed = 1;
  const Workload w = make_ripple_workload(wc);
  const auto router = make_router(Scheme::kFlash, w, {}, 1);
  std::uint64_t digest = 0;
  auto fold = [&digest](std::uint64_t v) {
    digest ^= v + 0x9e3779b97f4a7c15ULL + (digest << 6) + (digest >> 2);
  };
  const SimObserver observe = [&](std::size_t, const Transaction&,
                                  const RouteResult& r) {
    fold(r.success);
    fold(std::bit_cast<std::uint64_t>(r.delivered));
    fold(std::bit_cast<std::uint64_t>(r.fee));
    fold(r.probe_messages);
    fold(r.probes);
    fold(r.paths_used);
    fold(r.elephant);
  };
  const SimResult result = run_simulation(w, *router, {10.0}, observe);
  EXPECT_EQ(result.transactions, 400u);
  EXPECT_EQ(digest, 18196264122072367256ull);
}

TEST(Integration, FeeOptimizationReducesUnitFee) {
  // Fig. 9 in miniature.
  WorkloadConfig wc;
  wc.num_transactions = 200;
  wc.seed = 4;
  const Workload w = make_ripple_workload(wc);
  FlashOptions with;
  FlashOptions without;
  without.optimize_fees = false;
  const auto r_with =
      run_simulation(w, *make_router(Scheme::kFlash, w, with, 4), {10.0});
  const auto r_without =
      run_simulation(w, *make_router(Scheme::kFlash, w, without, 4), {10.0});
  if (r_with.volume_succeeded > 0 && r_without.volume_succeeded > 0) {
    EXPECT_LE(r_with.fee_ratio(), r_without.fee_ratio() * 1.05);
  }
}

TEST(Integration, TraceRoundTripThroughSimulator) {
  // Persist a workload trace, reload it, and verify the reloaded stream
  // drives the simulator to identical results.
  const Workload w = make_toy_workload(30, 120, 5);
  std::stringstream ss;
  write_trace(ss, w.transactions());
  const auto txs = read_trace(ss);
  ASSERT_EQ(txs.size(), w.transactions().size());

  const auto r1 = make_router(Scheme::kShortestPath, w, {}, 5);
  const SimResult a = run_simulation(w, *r1, {2.0});

  NetworkState state = w.make_state(2.0);
  const auto r2 = make_router(Scheme::kShortestPath, w, {}, 5);
  std::size_t successes = 0;
  for (const auto& tx : txs) successes += r2->route(tx, state).success;
  EXPECT_EQ(successes, a.successes);
}

TEST(Integration, TestbedAndSimulatorAgreeOnDirection) {
  // The message-level testbed and the ledger simulator are two
  // implementations of the same algorithms; on the same workload their
  // volume ordering (Flash > SP) must agree.
  testbed::TestbedConfig tc;
  tc.nodes = 30;
  tc.num_transactions = 400;
  tc.seed = 6;
  tc.scheme = testbed::TestbedScheme::kFlash;
  const auto flash_tb = testbed::run_testbed(tc);
  tc.scheme = testbed::TestbedScheme::kShortestPath;
  const auto sp_tb = testbed::run_testbed(tc);
  EXPECT_GT(flash_tb.volume_succeeded, sp_tb.volume_succeeded);

  WorkloadConfig wc;
  wc.num_transactions = 400;
  wc.seed = 6;
  const Workload w = make_testbed_workload(30, 1000, 1500, wc);
  const auto flash_sim =
      run_simulation(w, *make_router(Scheme::kFlash, w, {}, 6));
  const auto sp_sim =
      run_simulation(w, *make_router(Scheme::kShortestPath, w, {}, 6));
  EXPECT_GT(flash_sim.volume_succeeded, sp_sim.volume_succeeded);
}

TEST(Integration, GraphRoundTripPreservesRouting) {
  // Save/load the topology and confirm routing still works on the loaded
  // copy (the artifact-release usage pattern).
  Rng rng(7);
  Graph g = watts_strogatz(30, 6, 0.2, rng);
  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph h = read_edge_list(ss);
  NetworkState state(h);
  state.assign_uniform_split(100, 200, rng);
  FeeSchedule fees = FeeSchedule::paper_default(h, rng);
  FlashConfig config;
  config.elephant_threshold = 1e9;
  FlashRouter router(h, fees, config);
  const RouteResult r = router.route({0, 15, 3.0, 0}, state);
  EXPECT_TRUE(r.success);
}

}  // namespace
}  // namespace flash

// Churn-fuzz differential harness for incremental router maintenance
// (sim/scenario.h, RouterMaintenance).
//
// The oracle is kFullRebuild: reconstruct the sender's local graph, fees,
// mirror and router from scratch on every view change. The harness drives
// randomized churn/gossip/payment interleavings (and, in a second corpus,
// the HTLC lifecycle and fault injection on top) through the incremental
// engine and pins it against the oracle. kIncrementalStrict must be
// field-for-field identical to the oracle for EVERY scheme and every knob
// combination: masked search over the shared full-shape view graph, with
// every router cache dropped on each view change
// (Router::on_topology_update), equals search over the compacted open
// subgraph (see docs/ARCHITECTURE.md).
//
// Failures print the scenario seed, the full knob vector, and the minimal
// payment prefix that still reproduces the divergence (linear shrink over
// the workload prefix), so a fuzz hit is immediately replayable.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/scenario.h"
#include "testutil.h"
#include "trace/workload.h"
#include "trace/workload_stream.h"
#include "util/rng.h"

namespace flash {
namespace {

using flash::testing::expect_identical;

// One fuzz scenario: every dynamics knob, derived deterministically from
// the scenario index (splitmix64 stream), so the corpus is stable across
// runs and a failure report's seed pinpoints one exact configuration.
struct FuzzKnobs {
  std::uint64_t seed = 0;   // engine seed (router + churn streams)
  Scheme scheme = Scheme::kFlash;
  std::size_t nodes = 24;
  std::size_t payments = 150;
  double capacity_scale = 2.0;
  double close_rate = 0.08;
  double mean_downtime = 0;   // 0 = closes-only churn
  double hop_delay = 0;       // 0 = instant gossip
  std::size_t max_retries = 0;
  std::size_t max_sender_routers = 0;  // 0 = unbounded LRU
  double rebalance_interval = 0;
  // HTLC lifecycle and fault injection: off in the churn corpus
  // (knobs_for), drawn by htlc_fault_knobs_for.
  double hop_latency = 0;     // 0 = instant settlement
  double timelock_delta = 0;  // 0 = no expiry
  std::size_t burst_channels = 0;  // regional close burst (0 = none)
  std::size_t hub_count = 0;       // coordinated hub outage (0 = none)
  double fault_start = 0;
  double fault_length = 0;  // outage duration / burst reopen delay

  std::string describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " scheme=" << scheme_name(scheme)
       << " nodes=" << nodes << " payments=" << payments
       << " capacity_scale=" << capacity_scale
       << " close_rate=" << close_rate
       << " mean_downtime=" << mean_downtime << " hop_delay=" << hop_delay
       << " max_retries=" << max_retries
       << " max_sender_routers=" << max_sender_routers
       << " rebalance_interval=" << rebalance_interval
       << " hop_latency=" << hop_latency
       << " timelock_delta=" << timelock_delta
       << " burst_channels=" << burst_channels << " hub_count=" << hub_count
       << " fault_start=" << fault_start
       << " fault_length=" << fault_length;
    return os.str();
  }
};

FuzzKnobs knobs_for(std::uint64_t index) {
  std::uint64_t state = 0x1cebu ^ (index * 0x9e3779b97f4a7c15ULL);
  const auto pick = [&state](std::uint64_t n) {
    return splitmix64(state) % n;
  };
  FuzzKnobs k;
  k.seed = splitmix64(state);
  k.scheme = all_schemes()[index % all_schemes().size()];
  k.nodes = (pick(2) == 0) ? 24 : 40;
  k.payments = (pick(2) == 0) ? 150 : 250;
  k.capacity_scale = (pick(2) == 0) ? 1.0 : 2.5;
  const double close_rates[] = {0.02, 0.08, 0.3};
  k.close_rate = close_rates[pick(3)];
  k.mean_downtime = (pick(2) == 0) ? 0.0 : 30.0;
  const double hop_delays[] = {0.0, 2.0, 7.0};
  k.hop_delay = hop_delays[pick(3)];
  k.max_retries = (pick(2) == 0) ? 0 : 2;
  const std::size_t caps[] = {0, 1, 3};
  k.max_sender_routers = caps[pick(3)];
  k.rebalance_interval = (pick(4) == 0) ? 50.0 : 0.0;
  return k;
}

/// The churn knobs of knobs_for(index) plus an HTLC hop latency and one
/// fault family, drawn from a separate stream so the churn corpus above
/// keeps its exact draws. Arrivals are one per sim-time unit, so fault
/// windows are placed as fractions of the payment count.
FuzzKnobs htlc_fault_knobs_for(std::uint64_t index) {
  FuzzKnobs k = knobs_for(index);
  std::uint64_t state = 0x417cfa17u ^ (index * 0x9e3779b97f4a7c15ULL);
  const auto pick = [&state](std::uint64_t n) {
    return splitmix64(state) % n;
  };
  const double latencies[] = {0.5, 2.0, 5.0};
  k.hop_latency = latencies[pick(3)];
  k.timelock_delta = (pick(3) == 0) ? 10.0 : 0.0;
  const double payments = static_cast<double>(k.payments);
  k.fault_start = payments * ((pick(2) == 0) ? 0.25 : 0.5);
  if (pick(2) == 0) {
    const std::size_t bursts[] = {3, 8};
    k.burst_channels = bursts[pick(2)];
    // 0 = the burst's channels stay closed.
    k.fault_length = payments * ((pick(2) == 0) ? 0.0 : 0.2);
  } else {
    k.hub_count = 1 + pick(2);
    k.fault_length = payments * ((pick(2) == 0) ? 0.1 : 0.2);
  }
  return k;
}

ScenarioConfig scenario_config(const FuzzKnobs& k, RouterMaintenance mode) {
  ScenarioConfig cfg;
  cfg.retry.max_retries = k.max_retries;
  cfg.retry.delay = 0.5;
  cfg.churn.close_rate = k.close_rate;
  cfg.churn.mean_downtime = k.mean_downtime;
  cfg.gossip.hop_delay = k.hop_delay;
  cfg.max_sender_routers = k.max_sender_routers;
  cfg.rebalance.interval = k.rebalance_interval;
  cfg.htlc.hop_latency = k.hop_latency;
  cfg.htlc.timelock_delta = k.timelock_delta;
  cfg.fault.burst_channels = k.burst_channels;
  cfg.fault.hub_count = k.hub_count;
  if (k.burst_channels > 0) {
    cfg.fault.burst_time = k.fault_start;
    cfg.fault.burst_reopen_after = k.fault_length;
  }
  if (k.hub_count > 0) {
    cfg.fault.hub_outage_start = k.fault_start;
    cfg.fault.hub_outage_duration = k.fault_length;
  }
  cfg.maintenance = mode;
  return cfg;
}

SimConfig sim_config(const FuzzKnobs& k) {
  SimConfig sim;
  sim.capacity_scale = k.capacity_scale;
  return sim;
}

/// Runs one scenario, optionally truncated to the first `prefix` payments
/// (the shrinker's handle). The workload keeps its full transaction vector
/// so class/elephant thresholds — and therefore router construction — are
/// identical across prefixes; only the arrival stream shortens.
ScenarioResult run_mode(const Workload& w, const FuzzKnobs& k,
                        RouterMaintenance mode,
                        std::size_t prefix = ~std::size_t{0}) {
  const SimConfig sim = sim_config(k);
  const ScenarioConfig cfg = scenario_config(k, mode);
  if (prefix >= w.transactions().size()) {
    return run_scenario(w, k.scheme, {}, sim, cfg, k.seed);
  }
  const std::vector<Transaction> head(w.transactions().begin(),
                                      w.transactions().begin() + prefix);
  VectorWorkloadStream stream(head);
  ScenarioEngine engine(w, stream, k.scheme, {}, sim, cfg, k.seed);
  return engine.run();
}

/// Every field the two maintenance modes must agree on. The maintenance
/// telemetry itself (router_rebuilds / router_patches /
/// entries_invalidated / mirror_full_syncs) is excluded by design:
/// replacing rebuilds with patches and private mirrors with the shared one
/// is the whole point.
void expect_results_identical(const ScenarioResult& oracle,
                              const ScenarioResult& got) {
  expect_identical(oracle.sim, got.sim);
  EXPECT_EQ(oracle.payment_digest, got.payment_digest);
  EXPECT_EQ(oracle.channels_closed, got.channels_closed);
  EXPECT_EQ(oracle.channels_reopened, got.channels_reopened);
  EXPECT_EQ(oracle.rebalance_events, got.rebalance_events);
  EXPECT_EQ(oracle.gossip_rounds, got.gossip_rounds);
  EXPECT_EQ(oracle.gossip_messages, got.gossip_messages);
  EXPECT_EQ(oracle.router_cache_hits, got.router_cache_hits);
  EXPECT_EQ(oracle.router_cache_misses, got.router_cache_misses);
  EXPECT_EQ(oracle.router_cache_evictions, got.router_cache_evictions);
  EXPECT_EQ(oracle.duration, got.duration);
  EXPECT_EQ(oracle.htlc_payments, got.htlc_payments);
  EXPECT_EQ(oracle.htlc_inflight_failures, got.htlc_inflight_failures);
  EXPECT_EQ(oracle.htlc_expiries, got.htlc_expiries);
  EXPECT_EQ(oracle.htlc_offline_failures, got.htlc_offline_failures);
  EXPECT_EQ(oracle.htlc_max_inflight, got.htlc_max_inflight);
  EXPECT_EQ(oracle.htlc_onchain_settled_hops, got.htlc_onchain_settled_hops);
  EXPECT_EQ(oracle.htlc_onchain_refunded_hops,
            got.htlc_onchain_refunded_hops);
  EXPECT_EQ(oracle.htlc_break_failures, got.htlc_break_failures);
  EXPECT_EQ(oracle.rebalance_skipped_channels,
            got.rebalance_skipped_channels);
  EXPECT_EQ(oracle.fault_hub_outages, got.fault_hub_outages);
  EXPECT_EQ(oracle.fault_channel_closes, got.fault_channel_closes);
  EXPECT_EQ(oracle.fault_window_payments, got.fault_window_payments);
  EXPECT_EQ(oracle.fault_window_successes, got.fault_window_successes);
  EXPECT_EQ(oracle.post_fault_payments, got.post_fault_payments);
  EXPECT_EQ(oracle.post_fault_successes, got.post_fault_successes);
  EXPECT_EQ(oracle.fault_recovery_time, got.fault_recovery_time);
  EXPECT_EQ(oracle.sim_latency.count, got.sim_latency.count);
  EXPECT_EQ(oracle.sim_latency.mean_seconds, got.sim_latency.mean_seconds);
  EXPECT_EQ(oracle.sim_latency.max_seconds, got.sim_latency.max_seconds);
}

bool digests_equal(const ScenarioResult& a, const ScenarioResult& b) {
  return a.payment_digest == b.payment_digest;
}

/// Linear shrink: the smallest payment-prefix length on which the two
/// modes already disagree (digest-level). Only runs on failure, so the
/// O(payments^2) worst case never taxes a green suite.
std::size_t minimal_failing_prefix(const Workload& w, const FuzzKnobs& k) {
  for (std::size_t n = 1; n <= w.transactions().size(); ++n) {
    if (!digests_equal(run_mode(w, k, RouterMaintenance::kFullRebuild, n),
                       run_mode(w, k, RouterMaintenance::kIncrementalStrict,
                                n))) {
      return n;
    }
  }
  return w.transactions().size();
}

/// Runs kIncrementalStrict against the oracle and returns its result, so
/// callers can also assert that the corpus exercised what it was built to
/// exercise.
ScenarioResult check_against_oracle(const Workload& w, const FuzzKnobs& k) {
  const ScenarioResult oracle = run_mode(w, k, RouterMaintenance::kFullRebuild);
  ScenarioResult got = run_mode(w, k, RouterMaintenance::kIncrementalStrict);
  if (!digests_equal(oracle, got)) {
    ADD_FAILURE() << "kIncrementalStrict diverged from the full-rebuild "
                     "oracle\n"
                  << "  knobs: " << k.describe() << "\n"
                  << "  minimal failing payment prefix: "
                  << minimal_failing_prefix(w, k) << " of "
                  << w.transactions().size();
    return got;
  }
  SCOPED_TRACE(k.describe());
  expect_results_identical(oracle, got);
  // Crisp telemetry invariant of the incremental engine: a rebuild happens
  // exactly on a context build (first use or post-eviction return), i.e.
  // on every cache miss, and never on a view change of a live context.
  if (k.scheme != Scheme::kSpeedyMurmurs) {
    EXPECT_EQ(got.router_rebuilds, got.router_cache_misses);
  }
  return got;
}

// --- The ≥200-scenario differential corpus -------------------------------

// Strict incremental maintenance vs the oracle, field-for-field, across
// 224 seeded scenarios cycling all four schemes and every dynamics knob.
TEST(IncrementalFuzz, StrictMatchesOracleAcrossSeeds) {
  constexpr std::uint64_t kScenarios = 224;
  for (std::uint64_t i = 0; i < kScenarios; ++i) {
    const FuzzKnobs k = knobs_for(i);
    const Workload w =
        make_toy_workload(k.nodes, k.payments, /*seed=*/k.seed & 0xffff);
    check_against_oracle(w, k);
    if (HasFatalFailure()) return;
  }
}

// The same field-for-field check with the HTLC lifecycle active (hop
// latency, sometimes timelock expiry) and a close burst or hub outage on
// top of the churn knobs: the combination the default strict mode runs in
// the HTLC and fault sweeps, which the churn corpus above never draws.
TEST(IncrementalFuzz, StrictMatchesOracleWithHtlcAndFaults) {
  constexpr std::uint64_t kScenarios = 48;
  std::size_t patches = 0, htlc_payments = 0, hub_outages = 0,
              burst_closes = 0, onchain_hops = 0;
  for (std::uint64_t i = 0; i < kScenarios; ++i) {
    const FuzzKnobs k = htlc_fault_knobs_for(i);
    const Workload w =
        make_toy_workload(k.nodes, k.payments, /*seed=*/k.seed & 0xffff);
    const ScenarioResult got = check_against_oracle(w, k);
    if (HasFatalFailure()) return;
    patches += got.router_patches;
    htlc_payments += got.htlc_payments;
    hub_outages += got.fault_hub_outages;
    burst_closes += got.fault_channel_closes;
    onchain_hops +=
        got.htlc_onchain_settled_hops + got.htlc_onchain_refunded_hops;
  }
  // The corpus must reach what it exists to cover: strict patches under
  // in-flight HTLCs, both fault families, and closes that catch HTLCs
  // in flight.
  EXPECT_GT(patches, 0u);
  EXPECT_GT(htlc_payments, 0u);
  EXPECT_GT(hub_outages, 0u);
  EXPECT_GT(burst_closes, 0u);
  EXPECT_GT(onchain_hops, 0u);
}

// Incremental maintenance actually patches: under churn with live
// contexts, view changes land in router_patches, not router_rebuilds.
TEST(IncrementalFuzz, IncrementalModesReplaceRebuildsWithPatches) {
  FuzzKnobs k = knobs_for(0);
  k.scheme = Scheme::kFlash;
  k.close_rate = 0.3;
  k.mean_downtime = 30;
  k.payments = 250;
  const Workload w = make_toy_workload(k.nodes, k.payments, 3);
  const ScenarioResult oracle =
      run_mode(w, k, RouterMaintenance::kFullRebuild);
  const ScenarioResult strict =
      run_mode(w, k, RouterMaintenance::kIncrementalStrict);
  EXPECT_EQ(oracle.router_patches, 0u);
  EXPECT_GT(strict.router_patches, 0u);
  EXPECT_LT(strict.router_rebuilds, oracle.router_rebuilds);
  EXPECT_GT(strict.entries_invalidated, 0u);
}

// SpeedyMurmurs has no maskable search; requesting incremental maintenance
// must silently fall back to full rebuilds (and stay oracle-identical,
// which StrictMatchesOracleAcrossSeeds also covers).
TEST(IncrementalFuzz, SpeedyMurmursFallsBackToFullRebuild) {
  FuzzKnobs k = knobs_for(2);
  k.scheme = Scheme::kSpeedyMurmurs;
  k.close_rate = 0.3;
  const Workload w = make_toy_workload(k.nodes, k.payments, 5);
  const ScenarioResult got =
      run_mode(w, k, RouterMaintenance::kIncrementalStrict);
  EXPECT_EQ(got.router_patches, 0u);
  EXPECT_GT(got.router_rebuilds, 0u);
}

}  // namespace
}  // namespace flash

// Tests for the channel-balance ledger: initialization, probing, holds,
// the channel conservation invariant, and AMP atomicity.
#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "graph/topology.h"
#include "ledger/fee_policy.h"
#include "ledger/htlc.h"
#include "ledger/network_state.h"
#include "testutil.h"
#include "trace/workload.h"

namespace flash {
namespace {

using testing::bwd;
using testing::fwd;
using testing::make_graph;
using testing::set_channel;

// --- Fee policy ---------------------------------------------------------------

TEST(FeePolicy, LinearFee) {
  const FeePolicy p{2.0, 0.01};
  EXPECT_DOUBLE_EQ(p.fee(100), 3.0);
  EXPECT_DOUBLE_EQ(p.fee(0), 2.0);
}

TEST(FeeSchedule, PaperDefaultRatesInRange) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  Rng rng(1);
  // Draw many schedules to check both tiers appear and stay in range.
  int low = 0, high = 0;
  for (int i = 0; i < 200; ++i) {
    const FeeSchedule s = FeeSchedule::paper_default(g, rng);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const double r = s.policy(e).rate;
      EXPECT_GE(r, 0.001);
      EXPECT_LE(r, 0.10);
      (r <= 0.01 ? low : high) += 1;
    }
  }
  EXPECT_GT(low, high);  // 90% of channels draw the low tier
  EXPECT_GT(high, 0);
}

TEST(FeeSchedule, BothDirectionsShareRate) {
  Graph g = make_graph(2, {{0, 1}});
  Rng rng(2);
  const FeeSchedule s = FeeSchedule::paper_default(g, rng);
  EXPECT_DOUBLE_EQ(s.policy(0).rate, s.policy(1).rate);
}

TEST(FeeSchedule, PathFeeSumsEdges) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  FeeSchedule s(g);
  s.set_policy(fwd(g, 0), {1.0, 0.01});
  s.set_policy(fwd(g, 1), {0.5, 0.02});
  const Path p{fwd(g, 0), fwd(g, 1)};
  EXPECT_DOUBLE_EQ(s.path_fee(p, 100), 1.0 + 1.0 + 0.5 + 2.0);
  EXPECT_DOUBLE_EQ(s.path_rate(p), 0.03);
}

// --- NetworkState: init -----------------------------------------------------

TEST(NetworkState, StartsEmpty) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  EXPECT_DOUBLE_EQ(s.balance(0), 0.0);
  EXPECT_DOUBLE_EQ(s.total_balance(), 0.0);
  EXPECT_TRUE(s.check_invariants());
}

TEST(NetworkState, UniformSplitIsEven) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState s(g);
  Rng rng(3);
  s.assign_uniform_split(100, 200, rng);
  for (std::size_t c = 0; c < g.num_channels(); ++c) {
    EXPECT_DOUBLE_EQ(s.balance(fwd(g, c)), s.balance(bwd(g, c)));
    const Amount cap = s.channel_deposit(fwd(g, c));
    EXPECT_GE(cap, 100);
    EXPECT_LT(cap, 200);
  }
  EXPECT_TRUE(s.check_invariants());
}

TEST(NetworkState, SkewedSplitConservesCapacity) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState s(g);
  Rng rng(4);
  s.assign_uniform_skewed(100, 200, 0.1, 0.9, rng);
  for (std::size_t c = 0; c < g.num_channels(); ++c) {
    const Amount sum = s.balance(fwd(g, c)) + s.balance(bwd(g, c));
    EXPECT_GE(sum, 100);
    EXPECT_LT(sum, 200);
  }
}

TEST(NetworkState, LognormalSplitPositive) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState s(g);
  Rng rng(5);
  s.assign_lognormal_split(250, 1.0, rng);
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_GT(s.balance(e), 0);
}

TEST(NetworkState, ScaleAllMultiplies) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 20);
  s.scale_all(3.0);
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 30);
  EXPECT_DOUBLE_EQ(s.balance(bwd(g, 0)), 60);
  EXPECT_TRUE(s.check_invariants());
  EXPECT_THROW(s.scale_all(0.0), std::invalid_argument);
}

TEST(NetworkState, NegativeBalanceRejected) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  EXPECT_THROW(s.set_balance(0, -1), std::invalid_argument);
}

TEST(NetworkState, SetBalanceRebasesOnlyItsOwnChannel) {
  Graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 5);
  set_channel(s, g, 1, 20, 0);
  set_channel(s, g, 2, 7, 7);
  // Channel 1 has 4 of its 20 locked in an active hold: its deposit must
  // keep counting them while another channel is re-based.
  const auto id = s.hold(Path{fwd(g, 1)}, 4);
  ASSERT_TRUE(id.has_value());
  s.set_balance(fwd(g, 2), 30);
  EXPECT_EQ(s.channel_deposit(fwd(g, 0)), 15);
  EXPECT_EQ(s.channel_deposit(fwd(g, 1)), 20);
  EXPECT_EQ(s.channel_deposit(fwd(g, 2)), 37);
  EXPECT_TRUE(s.check_invariants());
  s.abort(*id);
  EXPECT_EQ(s.balance(fwd(g, 1)), 20);
  EXPECT_TRUE(s.check_invariants());
}

/// A workload over an Erdos-Renyi graph with exactly `channels` channels
/// and non-round per-edge balances (no transactions: only the ledger
/// set-up is under test).
Workload balanced_workload(std::size_t nodes, std::size_t channels,
                           std::uint64_t seed) {
  Rng rng(seed);
  Graph g = erdos_renyi(nodes, channels, rng);
  std::vector<Amount> balances(g.num_edges());
  for (Amount& b : balances) b = rng.uniform(1.0, 1000.0);
  FeeSchedule fees(g);
  return Workload(std::move(g), std::move(balances), std::move(fees), {},
                  "ledger-setup");
}

TEST(NetworkState, PerEdgeSetBalanceMatchesBulkDeposits) {
  // Workload::make_state loads balances in bulk; set_balance re-bases one
  // channel per call. Both must derive bit-identical deposits.
  const Workload w = balanced_workload(200, 900, 11);
  const NetworkState bulk = w.make_state(2.5);
  NetworkState per_edge(w.graph());
  for (EdgeId e = 0; e < w.graph().num_edges(); ++e) {
    per_edge.set_balance(e, bulk.balance(e));
  }
  for (EdgeId e = 0; e < w.graph().num_edges(); ++e) {
    EXPECT_EQ(bulk.channel_deposit(e), per_edge.channel_deposit(e))
        << "edge " << e;
  }
  EXPECT_TRUE(bulk.check_invariants());
}

// Ledger set-up must be linear in the network size: a quadratic path
// (re-deriving every deposit per edge) is a bug even when its output is
// right. Quadrupling the channel count takes ~4x the time when linear and
// ~16x when quadratic; the bound of 8 sits between them. Each size's time
// is the minimum of 3 timings, and each timing averages make_state over
// at least 2 ms of calls so timer resolution and preemption wash out.
TEST(NetworkState, MakeStateSetUpScalesLinearly) {
#if defined(__GLIBC__)
  // Pin glibc's dynamic mmap/trim thresholds. Otherwise the larger ledger's
  // freed vectors go back to the kernel after every call while the smaller
  // one's are reused warm, and the page faults alone inflate the ratio
  // past 8 for linear code. The test measures the ledger, not the kernel.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  const auto seconds_per_call = [](const Workload& w) {
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      std::chrono::duration<double> took{0};
      int calls = 0;
      Amount sink = 0;
      do {
        sink += w.make_state(1.5).channel_deposit(0);
        ++calls;
        took = std::chrono::steady_clock::now() - start;
      } while (took.count() < 2e-3);
      EXPECT_GT(sink, 0);
      best = std::min(best, took.count() / calls);
    }
    return best;
  };
  const Workload small = balanced_workload(2000, 8000, 21);
  const Workload large = balanced_workload(8000, 32000, 22);
  ASSERT_EQ(large.graph().num_channels(), 4 * small.graph().num_channels());
  const double t_small = seconds_per_call(small);
  const double t_large = seconds_per_call(large);
  EXPECT_LT(t_large, 8 * t_small)
      << "make_state took " << t_small << " s at "
      << small.graph().num_channels() << " channels and " << t_large
      << " s at " << large.graph().num_channels() << " channels";
}

// --- Probing ------------------------------------------------------------------

TEST(NetworkState, ProbeReturnsBalancesAndChargesMessages) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  set_channel(s, g, 1, 7, 0);
  const Path p{fwd(g, 0), fwd(g, 1)};
  EXPECT_EQ(s.probe_messages(), 0u);
  const auto b = s.probe_path(p);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_DOUBLE_EQ(b[0], 10);
  EXPECT_DOUBLE_EQ(b[1], 7);
  EXPECT_EQ(s.probe_messages(), 4u);  // PROBE + PROBE_ACK over 2 hops
  s.charge_messages(3);
  EXPECT_EQ(s.probe_messages(), 7u);
}

TEST(NetworkState, PathBottleneckAndCanCarry) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  set_channel(s, g, 1, 4, 0);
  const Path p{fwd(g, 0), fwd(g, 1)};
  EXPECT_DOUBLE_EQ(s.path_bottleneck(p), 4);
  EXPECT_TRUE(s.path_can_carry(p, 4));
  EXPECT_FALSE(s.path_can_carry(p, 5));
  EXPECT_DOUBLE_EQ(s.path_bottleneck({}), 0);
}

// --- Holds ---------------------------------------------------------------------

TEST(NetworkState, HoldCommitMovesFunds) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 1);
  set_channel(s, g, 1, 8, 2);
  const Path p{fwd(g, 0), fwd(g, 1)};
  const auto id = s.hold(p, 5);
  ASSERT_TRUE(id.has_value());
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 5);
  EXPECT_DOUBLE_EQ(s.balance(bwd(g, 0)), 1);  // reverse untouched until commit
  EXPECT_EQ(s.active_holds(), 1u);
  EXPECT_TRUE(s.check_invariants());
  s.commit(*id);
  EXPECT_DOUBLE_EQ(s.balance(bwd(g, 0)), 6);
  EXPECT_DOUBLE_EQ(s.balance(bwd(g, 1)), 7);
  EXPECT_EQ(s.active_holds(), 0u);
  EXPECT_TRUE(s.check_invariants());
  // Total funds conserved.
  EXPECT_DOUBLE_EQ(s.total_balance(), 10 + 1 + 8 + 2);
}

TEST(NetworkState, HoldAbortRestores) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  const auto id = s.hold(Path{fwd(g, 0)}, 4);
  ASSERT_TRUE(id);
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 6);
  s.abort(*id);
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 10);
  EXPECT_TRUE(s.check_invariants());
}

TEST(NetworkState, HoldFailsAtomicallyOnInsufficientBalance) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  set_channel(s, g, 1, 3, 0);  // bottleneck
  const Path p{fwd(g, 0), fwd(g, 1)};
  EXPECT_FALSE(s.hold(p, 5).has_value());
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 10);  // nothing deducted
  EXPECT_EQ(s.active_holds(), 0u);
}

TEST(NetworkState, HoldFlowAggregatesDuplicateEdges) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  // Two entries on the same edge totalling 11 > 10 must fail atomically.
  const std::vector<EdgeAmount> parts{{fwd(g, 0), 6}, {fwd(g, 0), 5}};
  EXPECT_FALSE(s.hold_flow(parts).has_value());
  const std::vector<EdgeAmount> ok{{fwd(g, 0), 6}, {fwd(g, 0), 4}};
  const auto id = s.hold_flow(ok);
  ASSERT_TRUE(id);
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 0);
  s.commit(*id);
  EXPECT_DOUBLE_EQ(s.balance(bwd(g, 0)), 10);
}

TEST(NetworkState, HoldFlowIgnoresNonPositive) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  const std::vector<EdgeAmount> parts{{fwd(g, 0), -3}, {fwd(g, 0), 0}};
  EXPECT_FALSE(s.hold_flow(parts).has_value());  // nothing left to hold
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 10);
}

TEST(NetworkState, DoubleCommitThrows) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  const auto id = s.hold(Path{fwd(g, 0)}, 1);
  s.commit(*id);
  EXPECT_THROW(s.commit(*id), std::logic_error);
  EXPECT_THROW(s.abort(*id), std::logic_error);
}

TEST(NetworkState, StaleHoldIdStaysInvalidAfterSlotReuse) {
  // Hold records are recycled through a free list; the generation tag in
  // the id must keep a settled id invalid even once its slot carries a
  // NEW active hold (a silent double-commit would corrupt balances).
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  const auto stale = s.hold(Path{fwd(g, 0)}, 1);
  s.commit(*stale);
  const auto fresh = s.hold(Path{fwd(g, 0)}, 2);  // reuses the slot
  ASSERT_TRUE(fresh.has_value());
  EXPECT_NE(*fresh, *stale);
  EXPECT_THROW(s.commit(*stale), std::logic_error);
  EXPECT_THROW(s.abort(*stale), std::logic_error);
  EXPECT_EQ(s.active_holds(), 1u);  // the fresh hold is untouched
  s.commit(*fresh);
  EXPECT_EQ(s.active_holds(), 0u);
}

TEST(NetworkState, HoldTableBoundedBySlotRecycling) {
  // Settled slots are reused, so a long hold/settle sequence keeps the
  // invariant sweep O(active holds), not O(total payments ever made).
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 10);
  for (int i = 0; i < 1000; ++i) {
    // Ping-pong a unit between the directions so the balances round-trip
    // and every hold succeeds, whatever the settle pattern.
    const EdgeId e = (i % 2 == 0) ? fwd(g, 0) : g.reverse(fwd(g, 0));
    const auto id = s.hold(Path{e}, 1);
    ASSERT_TRUE(id.has_value()) << "payment " << i;
    if (i % 4 < 2) {
      s.commit(*id);
    } else {
      s.abort(*id);
    }
  }
  EXPECT_EQ(s.active_holds(), 0u);
  EXPECT_TRUE(s.check_invariants());
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)) + s.balance(g.reverse(fwd(g, 0))),
                   20);
}

TEST(NetworkState, HoldValidatesArguments) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  EXPECT_THROW(s.hold(Path{fwd(g, 0)}, 0), std::invalid_argument);
  EXPECT_THROW(s.hold(Path{}, 1), std::invalid_argument);
}

TEST(NetworkState, TotalHeldTracksActiveHolds) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  set_channel(s, g, 1, 10, 0);
  const auto id = s.hold(Path{fwd(g, 0), fwd(g, 1)}, 3);
  EXPECT_DOUBLE_EQ(s.total_held(), 6);  // 3 on each of 2 edges
  s.abort(*id);
  EXPECT_DOUBLE_EQ(s.total_held(), 0);
}

// --- Snapshot ------------------------------------------------------------------

TEST(NetworkState, SnapshotRestore) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 5);
  const auto snap = s.snapshot();
  const auto id = s.hold(Path{fwd(g, 0)}, 4);
  s.commit(*id);
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 6);
  s.restore(snap);
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 10);
  EXPECT_DOUBLE_EQ(s.balance(bwd(g, 0)), 5);
  EXPECT_TRUE(s.check_invariants());
}

TEST(NetworkState, SnapshotWithHoldsThrows) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  const auto id = s.hold(Path{fwd(g, 0)}, 1);
  EXPECT_THROW((void)s.snapshot(), std::logic_error);
  s.abort(*id);
}

// --- AtomicPayment (AMP) -------------------------------------------------------

TEST(AtomicPayment, CommitsAllParts) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  NetworkState s(g);
  for (std::size_t c = 0; c < 4; ++c) set_channel(s, g, c, 10, 0);
  AtomicPayment payment(s);
  EXPECT_TRUE(payment.add_part(Path{fwd(g, 0), fwd(g, 1)}, 6));
  EXPECT_TRUE(payment.add_part(Path{fwd(g, 2), fwd(g, 3)}, 4));
  EXPECT_DOUBLE_EQ(payment.held_amount(), 10);
  EXPECT_EQ(payment.parts(), 2u);
  payment.commit();
  EXPECT_DOUBLE_EQ(s.balance(bwd(g, 1)), 6);
  EXPECT_DOUBLE_EQ(s.balance(bwd(g, 3)), 4);
  EXPECT_TRUE(s.check_invariants());
}

TEST(AtomicPayment, DestructorAbortsUncommitted) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  {
    AtomicPayment payment(s);
    EXPECT_TRUE(payment.add_part(Path{fwd(g, 0)}, 7));
    EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 3);
    // no commit: destructor must roll back
  }
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 10);
  EXPECT_EQ(s.active_holds(), 0u);
}

TEST(AtomicPayment, FailedPartLeavesOthersHeldUntilAbort) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  set_channel(s, g, 1, 10, 0);
  set_channel(s, g, 2, 2, 0);  // second path too thin
  set_channel(s, g, 3, 10, 0);
  AtomicPayment payment(s);
  EXPECT_TRUE(payment.add_part(Path{fwd(g, 0), fwd(g, 1)}, 5));
  EXPECT_FALSE(payment.add_part(Path{fwd(g, 2), fwd(g, 3)}, 5));
  payment.abort();
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 10);
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 2)), 2);
  EXPECT_TRUE(s.check_invariants());
}

TEST(AtomicPayment, UseAfterSettleThrows) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 0);
  AtomicPayment payment(s);
  EXPECT_TRUE(payment.add_part(Path{fwd(g, 0)}, 1));
  payment.commit();
  EXPECT_THROW(payment.add_part(Path{fwd(g, 0)}, 1), std::logic_error);
  EXPECT_THROW(payment.commit(), std::logic_error);
}

// --- Time-extended (HTLC) hold lifecycle ------------------------------------

TEST(NetworkState, OpenHoldExtendsHopByHop) {
  Graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  NetworkState s(g);
  for (std::size_t c = 0; c < 3; ++c) set_channel(s, g, c, 10, 10);
  const HoldId id = s.open_hold();
  EXPECT_EQ(s.active_holds(), 1u);
  EXPECT_EQ(s.hold_parts(id).size(), 0u);
  EXPECT_TRUE(s.extend_hold(id, fwd(g, 0), 4));
  EXPECT_TRUE(s.extend_hold(id, fwd(g, 1), 4));
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 6);
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 1)), 6);
  // The forward-lock failure: insufficient balance, nothing changes.
  EXPECT_FALSE(s.extend_hold(id, fwd(g, 2), 11));
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 2)), 10);
  const auto parts = s.hold_parts(id);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].first, fwd(g, 0));
  EXPECT_DOUBLE_EQ(parts[0].second, 4);
  EXPECT_TRUE(s.check_invariants());
  s.abort(id);
  EXPECT_EQ(s.active_holds(), 0u);
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 10);
}

TEST(NetworkState, CommitHopSettlesBackwardAndAutoRetires) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 10);
  set_channel(s, g, 1, 10, 10);
  const auto id = s.hold(Path{fwd(g, 0), fwd(g, 1)}, 3);
  ASSERT_TRUE(id.has_value());
  // Backward settlement: last hop first.
  s.commit_hop(*id, 1);
  EXPECT_DOUBLE_EQ(s.balance(bwd(g, 1)), 13);
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 1)), 7);
  EXPECT_DOUBLE_EQ(s.hold_parts(*id)[1].second, 0);  // settled hop reads 0
  EXPECT_EQ(s.active_holds(), 1u);
  EXPECT_TRUE(s.check_invariants());
  // Re-settling a settled hop is a logic error.
  EXPECT_THROW(s.commit_hop(*id, 1), std::logic_error);
  // Settling the last open hop retires the hold automatically.
  s.commit_hop(*id, 0);
  EXPECT_EQ(s.active_holds(), 0u);
  EXPECT_DOUBLE_EQ(s.balance(bwd(g, 0)), 13);
  EXPECT_TRUE(s.check_invariants());
}

TEST(NetworkState, AbortOnPartiallySettledHoldRefundsRemainder) {
  // The timelock-expiry path: hop 1 already settled, the rest refunds.
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 10);
  set_channel(s, g, 1, 10, 10);
  const auto id = s.hold(Path{fwd(g, 0), fwd(g, 1)}, 3);
  ASSERT_TRUE(id.has_value());
  s.commit_hop(*id, 1);
  s.abort(*id);
  EXPECT_EQ(s.active_holds(), 0u);
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 10);  // refunded
  EXPECT_DOUBLE_EQ(s.balance(bwd(g, 1)), 13);  // settled hop stays settled
  EXPECT_TRUE(s.check_invariants());
}

TEST(NetworkState, MixedHopSettleAndAbortRetire) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 10);
  set_channel(s, g, 1, 10, 10);
  const auto id = s.hold(Path{fwd(g, 0), fwd(g, 1)}, 2);
  ASSERT_TRUE(id.has_value());
  s.abort_hop(*id, 0);
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 10);
  s.commit_hop(*id, 1);  // retires: every hop settled or aborted
  EXPECT_EQ(s.active_holds(), 0u);
  EXPECT_DOUBLE_EQ(s.balance(bwd(g, 1)), 12);
  EXPECT_TRUE(s.check_invariants());
}

TEST(NetworkState, HoldExpiryMetadataRoundTrips) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 10);
  const auto id = s.hold(Path{fwd(g, 0)}, 1);
  ASSERT_TRUE(id.has_value());
  EXPECT_TRUE(std::isinf(s.hold_expiry(*id)));  // never, by default
  s.set_hold_expiry(*id, 42.5);
  EXPECT_DOUBLE_EQ(s.hold_expiry(*id), 42.5);
  s.abort(*id);
  EXPECT_THROW(s.hold_expiry(*id), std::logic_error);
}

TEST(NetworkState, DeferredSettlementQueuesCommits) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 10, 10);
  s.arm_deferred_settlement();
  const auto a = s.hold(Path{fwd(g, 0)}, 1);
  const auto b = s.hold(Path{fwd(g, 0)}, 2);
  ASSERT_TRUE(a.has_value() && b.has_value());
  s.commit(*a);
  s.commit(*b);
  // Nothing settled yet: both holds still active, no credit moved.
  EXPECT_EQ(s.active_holds(), 2u);
  EXPECT_DOUBLE_EQ(s.balance(bwd(g, 0)), 10);
  // Retired ids are still rejected eagerly, not at drain time.
  const auto c = s.hold(Path{fwd(g, 0)}, 1);
  ASSERT_TRUE(c.has_value());
  s.abort(*c);  // abort() is immediate even under deferral
  EXPECT_THROW(s.commit(*c), std::logic_error);
  std::vector<HoldId> drained;
  s.take_deferred_commits(drained);
  ASSERT_EQ(drained.size(), 2u);  // commit order preserved
  EXPECT_EQ(drained[0], *a);
  EXPECT_EQ(drained[1], *b);
  // abort() stays immediate under deferral.
  s.abort(drained[1]);
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 9);
  s.disarm_deferred_settlement();
  s.commit(drained[0]);
  EXPECT_DOUBLE_EQ(s.balance(bwd(g, 0)), 11);
  EXPECT_EQ(s.active_holds(), 0u);
  EXPECT_TRUE(s.check_invariants());
}

TEST(AtomicPayment, AddFlowNetsOffsets) {
  Graph g = make_graph(2, {{0, 1}});
  NetworkState s(g);
  set_channel(s, g, 0, 5, 5);
  AtomicPayment payment(s);
  const std::vector<EdgeAmount> flow{{fwd(g, 0), 4}};
  EXPECT_TRUE(payment.add_flow(flow, 4));
  payment.commit();
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 1);
  EXPECT_DOUBLE_EQ(s.balance(bwd(g, 0)), 9);
}

}  // namespace
}  // namespace flash

// Dynamic channel-balance ledger of an offchain network.
//
// The Graph carries the (quasi-static) topology that every node knows; this
// class carries what nodes do NOT know a priori: the per-direction channel
// balances, which change after every payment (paper §1, §3.1). Routers may
// only learn balances through the probing interface, which also counts
// probe messages so that the overhead comparisons of §4.2 are faithful.
//
// Channel invariant: for every channel, balance(u->v) + balance(v->u) +
// in-flight holds == total deposit, under every sequence of operations.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/rng.h"

namespace flash {

/// Identifier of an in-flight (held but not yet committed) payment part.
/// Valid from hold()/hold_flow() until the matching commit()/abort();
/// record slots are then recycled for later holds (so a long simulation's
/// hold table stays bounded by the maximum number of concurrently active
/// holds and steady-state holding performs no heap allocations). The id
/// carries the slot's generation in its upper 32 bits, so settling a
/// stale id throws std::logic_error even after the slot was reused.
using HoldId = std::uint64_t;

/// Amount held/transferred on one directed edge.
using EdgeAmount = std::pair<EdgeId, Amount>;

class NetworkState {
 public:
  /// All balances zero.
  explicit NetworkState(const Graph& g);

  const Graph& graph() const noexcept { return *graph_; }

  // --- Balance initialization -------------------------------------------

  /// Sets the balance of a single directed edge and re-bases the deposit
  /// of that edge's channel to the sum of its two directed balances, in
  /// O(1). Every other channel's deposit is untouched. Init-time only: on
  /// a channel whose funds are partly locked in an active hold, the
  /// re-based deposit drops the held amount (set_channel_balance refuses
  /// that case instead).
  void set_balance(EdgeId e, Amount amount);

  /// Replaces every per-edge balance and re-bases every channel's deposit,
  /// in one O(edges) pass — the bulk form of set_balance, and how
  /// Workload::make_state loads a whole network. Used by the scenario
  /// engine to sync a stale-view mirror ledger from the live one before
  /// each payment, and for bulk balance drift. Throws
  /// std::invalid_argument on size mismatch or a negative balance and
  /// std::logic_error when holds are in flight.
  void assign_balances(std::span<const Amount> balances);

  /// Overwrites one directed edge's balance WITHOUT re-basing the channel
  /// deposit. For mirroring settled payments between ledgers that share a
  /// channel layout: the caller must conserve each channel's total (the
  /// periodic check_invariants sweep verifies it did). Throws
  /// std::invalid_argument on a negative amount.
  void mirror_balance(EdgeId e, Amount amount);

  /// Draws each *channel* capacity from U[lo, hi) and splits it evenly
  /// across the two directions (the paper redistributes Ripple funds
  /// evenly, §4.1; the testbed draws channel capacity from an interval,
  /// §5.2).
  void assign_uniform_split(Amount lo, Amount hi, Rng& rng);

  /// Like assign_uniform_split, but the forward direction receives a
  /// random fraction drawn from U[skew_lo, skew_hi] of the channel
  /// capacity (skew 0.5/0.5 reproduces the even split). Real channels are
  /// funded mostly by the opening party, so single-path routing meets
  /// depleted directions much more often than the even split suggests.
  void assign_uniform_skewed(Amount lo, Amount hi, double skew_lo,
                             double skew_hi, Rng& rng);

  /// Draws each channel capacity lognormal(mu, sigma) and splits evenly.
  /// `median` is the distribution median (= exp(mu)).
  void assign_lognormal_split(Amount median, double sigma, Rng& rng);

  /// Like assign_lognormal_split, but scales each channel's capacity by
  /// the geometric mean of its endpoints' degrees relative to the average
  /// degree. Well-connected nodes fund larger channels in real PCNs
  /// (gateway/whale channels), so hub-hub channels carry most liquidity.
  /// `median` remains the median for a channel between average-degree
  /// endpoints.
  void assign_lognormal_degree_weighted(Amount median, double sigma,
                                        Rng& rng);

  /// Multiplies every balance by `factor` (the capacity scale factor of
  /// Fig. 6). Precondition: no holds in flight.
  void scale_all(double factor);

  // --- Introspection ------------------------------------------------------

  /// Balance of a directed edge. This is the single hottest read in the
  /// whole simulator (every probe, feasibility check and settle goes
  /// through it), so indexing is unchecked in Release; Debug/ASan builds
  /// keep the bounds assert. Edge ids come from the Graph the state was
  /// built over, so out-of-range ids are programming errors, not inputs.
  Amount balance(EdgeId e) const {
    assert(e < balance_.size());
    return balance_[e];
  }

  /// Total deposit of the channel containing e (both directions + holds).
  Amount channel_deposit(EdgeId e) const;

  /// Sum of all balances (excludes held amounts).
  Amount total_balance() const;

  /// Sum of all held amounts (over every edge of every active hold).
  Amount total_held() const;

  /// Bottleneck (minimum) balance along a path; 0 for an empty path.
  Amount path_bottleneck(const Path& path) const;

  /// True if every edge of the path has balance >= amount.
  bool path_can_carry(const Path& path, Amount amount) const;

  // --- Probing ------------------------------------------------------------

  /// Reads the balances along `path`, charging 2*|path| probe messages
  /// (PROBE out along the path + PROBE_ACK back, §5.1).
  std::vector<Amount> probe_path(const Path& path);

  /// Allocation-free variant: overwrites `out` with the balances along
  /// `path` (capacity reused across probes). Same message accounting.
  void probe_path_into(const Path& path, std::vector<Amount>& out);

  /// Number of probe messages sent so far (monotone).
  std::uint64_t probe_messages() const noexcept { return probe_messages_; }

  /// Adds to the probe message counter (for protocols whose
  /// balance-discovery cost is not a plain path probe).
  void charge_messages(std::uint64_t n) noexcept { probe_messages_ += n; }

  // --- Two-phase payment execution ----------------------------------------
  //
  // A (partial) payment first *holds* funds (decrementing the balances of
  // the edges it uses), then either *commits* (credits the reverse
  // directions: funds have moved) or *aborts* (restores the original
  // balances). Multipath atomicity (AMP, §3.1) is built on top by holding
  // all parts before committing any (see AtomicPayment in htlc.h).

  /// Holds `amount` on every edge of `path`. Returns nullopt (and changes
  /// nothing) if some edge has insufficient balance. The hold record keeps
  /// the edges in PATH order (duplicate edges of a non-simple path
  /// aggregate onto their first occurrence), so hold_parts() hands the
  /// HTLC engine the hop sequence directly. Precondition: amount > 0, path
  /// non-empty.
  std::optional<HoldId> hold(const Path& path, Amount amount);

  /// Holds per-edge amounts (a flow). Amounts on duplicate edges are
  /// aggregated before the feasibility check. Entries with amount <= 0 are
  /// ignored. Returns nullopt (and changes nothing) on insufficient
  /// balance; nullopt also when nothing positive remains to hold.
  std::optional<HoldId> hold_flow(std::span<const EdgeAmount> edge_amounts);

  /// Commits a held payment: credits reverse directions, retires the hold.
  /// Parts already settled hop-wise (amount 0) are skipped. While deferred
  /// settlement is armed, validates the id and queues it instead (see
  /// below).
  void commit(HoldId id);

  /// Aborts a held payment: restores balances, retires the hold. Valid on
  /// partially settled holds (settled hops refund nothing) — this is the
  /// timelock-expiry path of the HTLC lifecycle.
  void abort(HoldId id);

  std::size_t active_holds() const noexcept { return active_holds_; }

  // --- Time-extended (HTLC) hold lifecycle --------------------------------
  //
  // The instant-settlement contract above locks and settles a payment
  // inside one route() call. The HTLC scenario engine stretches that over
  // sim-time: a payment locks hop by hop forward, settles hop by hop
  // backward, and refunds on failure or timelock expiry. The channel
  // invariant (balances + holds == deposits, check_invariants) holds after
  // every individual step.

  /// Opens an empty active hold: no funds locked yet; hops are then locked
  /// one at a time with extend_hold. Counts in active_holds() until every
  /// hop is settled/aborted or the whole hold is committed/aborted.
  HoldId open_hold();

  /// Locks `amount` on edge `e` as the next hop of hold `id`. Returns
  /// false (changing nothing) when e's balance cannot cover it — the HTLC
  /// forward-lock failure. Precondition: amount > 0.
  bool extend_hold(HoldId id, EdgeId e, Amount amount);

  /// The per-hop parts of an active hold, in lock order (path order for
  /// hold()/extend_hold, ascending edge id for hold_flow). Hops already
  /// settled hop-wise read amount 0. Invalidated by any hold mutation.
  std::span<const EdgeAmount> hold_parts(HoldId id);

  /// Settles ONE hop: credits the reverse direction of parts[hop] and
  /// zeroes it. The hold retires automatically once every hop is settled
  /// or aborted. Throws std::logic_error on an already-settled hop.
  void commit_hop(HoldId id, std::size_t hop);

  /// Releases ONE hop: refunds parts[hop] to its edge and zeroes it. Same
  /// retirement rule as commit_hop.
  void abort_hop(HoldId id, std::size_t hop);

  /// Expiry metadata (sim-time; +inf = never). The ledger only carries it
  /// so hold records are self-describing — enforcement (abort at expiry)
  /// is the owner's job.
  void set_hold_expiry(HoldId id, double expiry);
  double hold_expiry(HoldId id);

  // --- On-chain resolution (channel close with funds in flight) -----------
  //
  // A cooperative channel close cannot strand in-flight HTLCs: each one
  // resolves on-chain instead. An HTLC whose preimage is already public
  // (the hold was marked settling) is claimable by the downstream party —
  // it force-SETTLES; any other HTLC times out on-chain — it force-REFUNDS.
  // The channel invariant holds after every individual hop (the same
  // credit/refund arithmetic as commit_hop/abort_hop).

  /// Marks a hold as settling: its preimage is propagating, so a forced
  /// on-chain resolution settles its hops instead of refunding them.
  void mark_hold_settling(HoldId id);
  bool hold_settling(HoldId id);

  /// True iff `id` still names an active hold (same generation, not yet
  /// retired). Unlike checked_active_record this never throws — callers
  /// use it after resolve_holds_on_close to learn whether a hold fully
  /// resolved (and auto-retired) on-chain.
  bool hold_active(HoldId id) const noexcept;

  /// What a resolve_holds_on_close call forced on-chain.
  struct CloseResolution {
    std::size_t settled_hops = 0;
    std::size_t refunded_hops = 0;
    Amount settled_amount = 0;
    Amount refunded_amount = 0;
  };

  /// Forces every active hold's unsettled hops on either direction of
  /// `channel` to a final state: committed (reverse-credited) when the
  /// hold is marked settling, refunded otherwise. Hops on other channels
  /// are untouched; fully resolved holds retire. Afterwards the channel
  /// carries no escrow, so set_channel_balance(channel, ...) is legal.
  CloseResolution resolve_holds_on_close(std::size_t channel);

  /// Re-bases ONE channel: sets both directed balances and the channel's
  /// deposit to fwd + bwd, leaving every other channel's deposit untouched
  /// (like set_balance, but checked: this is the mid-run form, used when a
  /// closed channel reopens with fresh funding). Throws std::logic_error
  /// while any active hold still locks funds on the channel —
  /// resolve_holds_on_close first.
  void set_channel_balance(std::size_t channel, Amount fwd, Amount bwd);

  /// Marks channels carrying any unsettled held amount (`out` is reset to
  /// num_channels zeros). O(active holds x parts). Background rebalancing
  /// uses this to skip escrowed channels.
  void held_channels(std::vector<char>& out) const;

  // --- Deferred settlement -------------------------------------------------
  //
  // The HTLC engine lets routers run unchanged: a router holds parts and
  // calls commit() exactly as in instant settlement, but with deferral
  // armed the commit only queues the hold id. The engine then drains the
  // queue and drives each hold through the timed per-hop lifecycle.
  // abort() stays immediate (a failed route's refund has no in-flight
  // phase).

  void arm_deferred_settlement() noexcept { defer_commits_ = true; }
  void disarm_deferred_settlement() noexcept { defer_commits_ = false; }
  bool deferred_settlement_armed() const noexcept { return defer_commits_; }

  /// Moves the queued hold ids (in commit order) into `out`.
  void take_deferred_commits(std::vector<HoldId>& out) {
    out.swap(deferred_commits_);
    deferred_commits_.clear();
  }

  // --- Change log ---------------------------------------------------------
  //
  // When enabled, every edge whose balance is modified by the two-phase
  // payment machinery (hold_flow debits, commit credits, abort refunds) is
  // appended to a journal. A reader that knew every balance at the last
  // clear_change_log() can resync by revisiting only the logged edges —
  // the scenario engine uses this to mirror a stale sender's routing
  // activity back to the ground-truth ledger in O(edges touched) instead
  // of O(all edges). Entries may repeat (each modification logs one entry,
  // deduplication is the reader's business) and deliberately EXCLUDE
  // direct writes (set_balance / assign_balances / mirror_balance): those
  // are made by the ledger's owner, who already knows what it wrote.

  /// Starts journaling payment-driven balance changes (off by default, so
  /// ledgers that never sync pay nothing).
  void enable_change_log() noexcept { change_log_enabled_ = true; }

  /// Edges modified by hold/commit/abort since the last clear (may repeat).
  std::span<const EdgeId> change_log() const noexcept { return change_log_; }

  void clear_change_log() noexcept { change_log_.clear(); }

  /// Verifies the channel invariant for every channel (O(V+E+holds)).
  /// Returns false and sets `bad_channel` (optional) on violation.
  bool check_invariants(std::size_t* bad_channel = nullptr) const;

  // --- Payment holds-list lease -------------------------------------------

  /// Borrows the ledger-owned HoldId list AtomicPayment uses to track its
  /// parts, cleared and ready. Returns nullptr if already leased (a nested
  /// payment on the same ledger), in which case the caller must fall back
  /// to its own storage. Keeping the list here makes the per-payment
  /// hold/commit cycle allocation-free in steady state: the buffer's
  /// capacity survives across payments instead of dying with each
  /// AtomicPayment.
  std::vector<HoldId>* acquire_payment_holds() noexcept {
    if (payment_holds_leased_) return nullptr;
    payment_holds_leased_ = true;
    payment_holds_buf_.clear();
    return &payment_holds_buf_;
  }
  void release_payment_holds() noexcept { payment_holds_leased_ = false; }

  // --- Snapshots ----------------------------------------------------------

  /// Captures balances. Throws if holds are in flight.
  struct Snapshot {
    std::vector<Amount> balance;
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& s);

 private:
  struct HoldRecord {
    std::vector<EdgeAmount> parts;  // lock order; hop-settled parts read 0
    std::uint32_t generation = 0;   // bumped per reuse; encoded in HoldId
    std::uint32_t settled = 0;      // hops settled/aborted hop-wise
    double expiry = 0;              // sim-time; set to +inf on acquire
    bool active = false;
    bool settling = false;  // preimage public: on-chain resolution settles
  };

  /// Decodes a HoldId, throwing std::logic_error on a stale or foreign id
  /// (wrong generation / out-of-range slot / already settled).
  HoldRecord& checked_active_record(HoldId id);

  /// Recycles (or grows) a hold slot, bumps its generation, and resets the
  /// record. Shared by place_hold and open_hold.
  std::uint64_t acquire_slot();

  /// Places the aggregated parts staged in hold_scratch_ as a new hold:
  /// feasibility check first (nothing changes on failure), then debit.
  std::optional<HoldId> place_hold();

  /// Retires a fully hop-settled record, recycling its slot.
  void retire_if_settled(HoldRecord& h, std::uint64_t slot);

  /// Journals a payment-driven write to e.
  void log_write(EdgeId e) {
    if (change_log_enabled_) change_log_.push_back(e);
  }

  const Graph* graph_;
  std::vector<Amount> balance_;
  std::vector<Amount> deposit_;  // per channel, fixed at init
  std::vector<HoldRecord> holds_;
  std::vector<HoldId> free_hold_slots_;     // retired records to recycle
  std::vector<EdgeAmount> hold_scratch_;    // staged parts (place_hold)
  std::size_t active_holds_ = 0;
  std::uint64_t probe_messages_ = 0;
  std::vector<EdgeId> change_log_;
  bool change_log_enabled_ = false;
  std::vector<HoldId> payment_holds_buf_;  // AtomicPayment lease (above)
  bool payment_holds_leased_ = false;
  bool defer_commits_ = false;             // deferred settlement armed
  std::vector<HoldId> deferred_commits_;   // queued commit ids, FIFO

  /// Re-derives channel c's deposit from its two directed balances.
  void rebase_deposit(std::size_t c);
  void recompute_deposits();
};

}  // namespace flash

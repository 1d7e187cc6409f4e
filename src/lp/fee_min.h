// Fee-minimizing payment split across probed paths — program (1) of §3.2.
//
//   min  sum_p sum_{(u,v) in p} fee_{u,v}(r_p)
//   s.t. sum_p r_p = d
//        sum_p r_p a^p(u,v) - sum_p r_p a^p(v,u) <= C(u,v)  for all (u,v)
//        r_p >= 0
//
// where C is the capacity matrix probed by Algorithm 1. Flows on opposite
// directions of the same channel offset each other, exactly as in the paper.
// With linear (proportional) fees the objective coefficient of r_p is the
// sum of fee rates along p, making this an LP solved by simplex.
//
// Constraint ordering: the LP can have several optimal vertices and the
// simplex picks one as a function of constraint order, so the order C is
// iterated in is part of the result's determinism contract. ProbedCapacities
// iterates in *insertion order* (for Algorithm 1: the order edges were
// first probed), which is canonical and portable — the same on every
// standard library.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/scratch.h"
#include "graph/types.h"
#include "ledger/fee_policy.h"
#include "lp/simplex.h"

namespace flash {

/// Probed capacity per directed edge (the sparse capacity matrix C):
/// an insertion-ordered flat (EdgeId, Amount) vector plus an epoch-stamped
/// edge -> entry index, so reset() is O(1) and membership/lookup O(1).
/// Iteration walks entries in insertion order — the canonical constraint
/// order of program (1). Reusing one instance across probes is
/// allocation-free once the buffers have warmed up.
class ProbedCapacities {
 public:
  /// Forgets all entries and re-keys the index for edge ids < num_edges.
  void reset(std::size_t num_edges) {
    entries_.clear();
    num_edges_ = num_edges;
    index_.reset(num_edges);
  }

  /// Records the probed capacity of `e`. Precondition: e < num_edges of
  /// the last reset() and !contains(e) — Algorithm 1 records each directed
  /// edge exactly once, when it is first probed.
  void insert(EdgeId e, Amount capacity) {
    index_.set(e, static_cast<std::uint32_t>(entries_.size()));
    entries_.emplace_back(e, capacity);
  }

  bool contains(EdgeId e) const {
    return e < num_edges_ && index_.contains(e);
  }

  /// Index of e's entry in insertion order. Precondition: contains(e).
  std::uint32_t index_of(EdgeId e) const { return index_.get(e); }

  /// Probed capacity of e. Precondition: contains(e).
  Amount at(EdgeId e) const { return entries_[index_.get(e)].second; }

  const std::vector<std::pair<EdgeId, Amount>>& entries() const noexcept {
    return entries_;
  }
  auto begin() const noexcept { return entries_.begin(); }
  auto end() const noexcept { return entries_.end(); }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

 private:
  std::vector<std::pair<EdgeId, Amount>> entries_;
  StampedArray<std::uint32_t> index_;
  std::size_t num_edges_ = 0;
};

struct SplitResult {
  bool feasible = false;
  std::vector<Amount> amounts;  // per path, aligned with `paths`
  Amount total_fee = 0;         // fees over all used paths at these amounts
};

/// Reusable workspace for the split strategies: the LP workspace, the
/// sparse edge -> (path, sign) incidence index optimize_fee_split builds
/// per call, and residuals for the sequential fill. Same
/// single-owner/thread-affinity contract as GraphScratch; FlashRouter owns
/// one per router.
struct SplitWorkspace {
  LpWorkspace lp;

  // Incidence index (optimize_fee_split_core): for capacity entry j, the
  // paths crossing it. CSR layout over entry indices; items are signed
  // path indices (i + 1 forward, -(i + 1) reverse), built in O(total path
  // length) per call.
  std::vector<std::uint32_t> inc_offset;   // size cap.size() + 1
  std::vector<std::int32_t> inc_items;     // signed path indices
  std::vector<std::uint32_t> inc_fill;     // per-entry fill cursor

  // Sequential-fill residual capacities (epoch-reset per call).
  StampedArray<Amount> residual;

  // route_elephant plumbing: the reused split result and the first-touch
  // channel list for sparse flow netting (see elephant.cc).
  SplitResult split_buf;
  std::vector<EdgeId> net_channels;
};

/// LP-optimal split of demand d over `paths` under capacities `cap`,
/// emitting capacity constraints in cap's insertion order. Runs entirely
/// in `ws` (zero steady-state allocations); the result lands in `out`
/// (buffers reused). Edges appearing in `paths` but missing from `cap`
/// are unconstrained.
/// Precondition: paths are channel-simple (no path uses a directed edge
/// or its reverse more than once) — true for every path Algorithm 1 or
/// Yen produces.
void optimize_fee_split_core(const Graph& g, const std::vector<Path>& paths,
                             Amount demand, const ProbedCapacities& cap,
                             const FeeSchedule& fees, SplitWorkspace& ws,
                             SplitResult& out);

/// The "w/o optimization" baseline of Fig. 9: fill paths sequentially in
/// discovery order, each up to its joint residual capacity, until the
/// demand is met. Runs in `ws` (zero steady-state allocations). A path
/// edge missing from `cap` makes the split infeasible (returned cleanly,
/// never thrown): the probed matrix does not cover the path set.
void sequential_split_core(const Graph& g, const std::vector<Path>& paths,
                           Amount demand, const ProbedCapacities& cap,
                           const FeeSchedule& fees, SplitWorkspace& ws,
                           SplitResult& out);

/// Convenience overloads over a thread_local workspace.
SplitResult optimize_fee_split(const Graph& g, const std::vector<Path>& paths,
                               Amount demand, const ProbedCapacities& cap,
                               const FeeSchedule& fees);
SplitResult sequential_split(const Graph& g, const std::vector<Path>& paths,
                             Amount demand, const ProbedCapacities& cap,
                             const FeeSchedule& fees);

/// Fee charged for a split (shared by both strategies and the tests).
Amount split_fee(const FeeSchedule& fees, const std::vector<Path>& paths,
                 const std::vector<Amount>& amounts);

}  // namespace flash

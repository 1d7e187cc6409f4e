#include "lp/fee_min.h"

#include <algorithm>
#include <cassert>

#include "lp/simplex.h"

namespace flash {

namespace {

/// Thread-local workspace behind the convenience overloads. The
/// split strategies take no user callbacks, so no re-entrancy lease is
/// needed (unlike the graph wrappers, see graph/scratch.h).
SplitWorkspace& internal_split_workspace() {
  thread_local SplitWorkspace ws;
  return ws;
}

}  // namespace

void optimize_fee_split_core(const Graph& g, const std::vector<Path>& paths,
                             Amount demand, const ProbedCapacities& cap,
                             const FeeSchedule& fees, SplitWorkspace& ws,
                             SplitResult& out) {
  out.feasible = false;
  out.amounts.clear();
  out.total_fee = 0;
  if (paths.empty() || demand <= 0) return;

  const std::size_t n = paths.size();
  const std::size_t ncap = cap.size();
  // Scale amounts by the demand so variables are O(1) for the solver.
  const double scale = demand;

  // Sparse incidence index, built in O(total path length): for each
  // capacity entry j, the signed paths whose net flow crosses it. CSR via
  // counting sort keyed by entry index.
  ws.inc_offset.assign(ncap + 1, 0);
  for (const Path& p : paths) {
    for (const EdgeId e : p) {
      if (cap.contains(e)) ++ws.inc_offset[cap.index_of(e) + 1];
      const EdgeId rev = g.reverse(e);
      if (cap.contains(rev)) ++ws.inc_offset[cap.index_of(rev) + 1];
    }
  }
  for (std::size_t j = 0; j < ncap; ++j) {
    ws.inc_offset[j + 1] += ws.inc_offset[j];
  }
  ws.inc_items.resize(ws.inc_offset[ncap]);
  ws.inc_fill.assign(ncap, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto signed_path = static_cast<std::int32_t>(i + 1);
    for (const EdgeId e : paths[i]) {
      if (cap.contains(e)) {
        const std::uint32_t j = cap.index_of(e);
        ws.inc_items[ws.inc_offset[j] + ws.inc_fill[j]++] = signed_path;
      }
      const EdgeId rev = g.reverse(e);
      if (cap.contains(rev)) {
        const std::uint32_t j = cap.index_of(rev);
        ws.inc_items[ws.inc_offset[j] + ws.inc_fill[j]++] = -signed_path;
      }
    }
  }

  ws.lp.reset(n);
  for (std::size_t i = 0; i < n; ++i) {
    ws.lp.objective[i] = fees.path_rate(paths[i]);
  }

  // Demand constraint: sum r_p = 1 (scaled).
  double* demand_row = ws.lp.add_constraint(Relation::kEq, 1.0);
  for (std::size_t i = 0; i < n; ++i) demand_row[i] = 1.0;

  // One capacity constraint per probed directed edge that some path
  // crosses (in either direction), in cap's insertion order.
  const auto& entries = cap.entries();
  for (std::size_t j = 0; j < ncap; ++j) {
    const std::uint32_t begin = ws.inc_offset[j];
    const std::uint32_t end = ws.inc_offset[j + 1];
    if (begin == end) continue;  // no path touches this edge
    double* row =
        ws.lp.add_constraint(Relation::kLessEq, entries[j].second / scale);
    for (std::uint32_t it = begin; it < end; ++it) {
      const std::int32_t item = ws.inc_items[it];
      if (item > 0) {
        row[item - 1] += 1.0;
      } else {
        row[-item - 1] -= 1.0;
      }
    }
  }

  solve_lp_core(ws.lp);
  if (ws.lp.status != LpStatus::kOptimal) return;

  out.feasible = true;
  out.amounts.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.amounts[i] = ws.lp.x[i] * scale;
  }
  out.total_fee = split_fee(fees, paths, out.amounts);
}

void sequential_split_core(const Graph& g, const std::vector<Path>& paths,
                           Amount demand, const ProbedCapacities& cap,
                           const FeeSchedule& fees, SplitWorkspace& ws,
                           SplitResult& out) {
  out.feasible = false;
  out.total_fee = 0;
  out.amounts.clear();
  if (paths.empty() || demand <= 0) return;

  auto& residual = ws.residual;
  residual.reset(g.num_edges());
  for (const auto& [e, c] : cap.entries()) residual.set(e, c);

  out.amounts.assign(paths.size(), 0);
  Amount remaining = demand;
  for (std::size_t i = 0; i < paths.size() && remaining > 1e-12; ++i) {
    // Joint residual bottleneck of this path.
    Amount bottleneck = remaining;
    for (EdgeId e : paths[i]) {
      if (e >= g.num_edges() || !residual.contains(e)) {
        // C does not cover the path set: cleanly infeasible. (This is the
        // LP-degenerate fallback inside route_elephant — throwing here
        // would abort a whole sweep over one malformed instance.)
        return;
      }
      bottleneck = std::min(bottleneck, residual.get(e));
    }
    if (bottleneck <= 0) continue;
    out.amounts[i] = bottleneck;
    remaining -= bottleneck;
    for (EdgeId e : paths[i]) {
      residual.slot(e) -= bottleneck;
      // Flow on e frees capacity on the reverse direction (offsetting).
      const EdgeId rev = g.reverse(e);
      if (residual.contains(rev)) residual.slot(rev) += bottleneck;
    }
  }
  if (remaining > 1e-9 * std::max<Amount>(1, demand)) {
    return;  // infeasible: could not place the full demand
  }
  out.feasible = true;
  out.total_fee = split_fee(fees, paths, out.amounts);
}

SplitResult optimize_fee_split(const Graph& g, const std::vector<Path>& paths,
                               Amount demand, const ProbedCapacities& cap,
                               const FeeSchedule& fees) {
  SplitResult result;
  optimize_fee_split_core(g, paths, demand, cap, fees,
                          internal_split_workspace(), result);
  return result;
}

SplitResult sequential_split(const Graph& g, const std::vector<Path>& paths,
                             Amount demand, const ProbedCapacities& cap,
                             const FeeSchedule& fees) {
  SplitResult result;
  sequential_split_core(g, paths, demand, cap, fees,
                        internal_split_workspace(), result);
  return result;
}

Amount split_fee(const FeeSchedule& fees, const std::vector<Path>& paths,
                 const std::vector<Amount>& amounts) {
  assert(paths.size() == amounts.size());
  Amount total = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (amounts[i] <= 0) continue;
    total += fees.path_fee(paths[i], amounts[i]);
  }
  return total;
}

}  // namespace flash

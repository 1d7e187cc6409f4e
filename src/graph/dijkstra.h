// Weighted shortest path (Dijkstra) with pluggable edge weights.
//
// Used by Yen's k-shortest-paths and by routers that weight hops by fees.
// Two layers:
//  - dijkstra_core / dijkstra_distances_core: templated, allocation-free
//    hot path running in a caller-provided GraphScratch. Edge weights and
//    bans are compile-time callables, so the inner loop has no
//    std::function dispatch.
//  - dijkstra / dijkstra_distances: the original std::function API, kept as
//    thin wrappers over a thread-local scratch so no caller breaks.
#pragma once

#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "graph/graph.h"
#include "graph/scratch.h"
#include "graph/types.h"

namespace flash {

/// Non-negative weight of a directed edge. Return `kEdgeBanned` to exclude
/// an edge entirely.
using EdgeWeight = std::function<double(EdgeId)>;

inline constexpr double kEdgeBanned = std::numeric_limits<double>::infinity();

/// A weight functor opts into dijkstra_core's unit-cost exits by declaring
/// `static constexpr bool kUnitCost = true;` — a promise that every edge
/// weighs exactly 1.0 or kEdgeBanned. Functors without the member (legacy
/// EdgeWeight callables, fee weights) run the general search.
template <typename WeightFn>
inline constexpr bool kIsUnitCost =
    requires { requires std::remove_cvref_t<WeightFn>::kUnitCost; };

/// Unit edge weight (hop counting) — the default when no weight is given.
struct UnitWeight {
  static constexpr bool kUnitCost = true;
  double operator()(EdgeId) const { return 1.0; }
};

/// Hop counting on the open-channel subgraph: edge e weighs 1.0 when
/// mask[e] is non-zero and kEdgeBanned otherwise, which dijkstra_core skips
/// before pushing — the search behaves exactly as if closed edges were
/// absent.
struct OpenMaskUnitWeight {
  static constexpr bool kUnitCost = true;
  const unsigned char* mask;
  double operator()(EdgeId e) const { return mask[e] ? 1.0 : kEdgeBanned; }
};

/// Result of a single-pair shortest path query.
struct DijkstraResult {
  Path path;          // empty when t unreachable (or s == t)
  double distance =   // +inf when unreachable; 0 when s == t
      std::numeric_limits<double>::infinity();
  bool found = false;
};

/// Core result without the path (the path is appended to a caller buffer).
struct DijkstraCoreResult {
  double distance = std::numeric_limits<double>::infinity();
  bool found = false;
};

/// Core Dijkstra: shortest s->t path under `weight`, running entirely in
/// `scratch` (allocation-free once the scratch is warm).
///
/// When `use_bans` is true, nodes marked in scratch.node_ban and edges
/// marked in scratch.edge_ban are excluded; the marks are set by the caller
/// before the call and survive it (they live on their own epochs), which is
/// what Yen's spur loop needs. On success the s->t edge sequence is
/// *appended* to `path_out` (existing content, e.g. Yen's root prefix, is
/// kept). Out-of-range or invalid s/t yields found == false.
///
/// Passing t == kInvalidNode switches to all-targets mode: the full
/// reachable set is settled (no early exit, no path reconstruction, found
/// stays false) and the distances/shortest-path tree remain in
/// scratch.dist/scratch.parent — see dijkstra_distances_core.
///
/// `cutoff` (default +inf) abandons the search once the tentative
/// frontier exceeds it: t is then reported unreachable unless
/// dist(t) <= cutoff. Settle order up to the cutoff is identical to the
/// unbounded search, so any path found is bit-identical to the unbounded
/// one — callers may prune with it whenever they would discard costlier
/// results anyway (Yen's candidate bound).
///
/// Unit-cost weights (kIsUnitCost: UnitWeight, OpenMaskUnitWeight) take
/// two more exits in single-target mode, neither of which changes found,
/// distance or path:
///  1. The search stops when t is first labelled, not when it is popped.
///     Pops come in non-decreasing d, so every later relaxation offers
///     t at least its current label, and the strict `<` keeps parent(t);
///     t's ancestors are already settled.
///  2. Under a finite cutoff it stops once the popped d + 1 > cutoff:
///     nothing relaxed from there can reach t within the cutoff.
/// scratch.dist/parent then hold only the part of the tree searched.
template <typename WeightFn>
DijkstraCoreResult dijkstra_core(
    const Graph& g, NodeId s, NodeId t, GraphScratch& scratch,
    WeightFn&& weight, bool use_bans, Path& path_out,
    double cutoff = std::numeric_limits<double>::infinity()) {
  DijkstraCoreResult result;
  const std::size_t n = g.num_nodes();
  const bool all_targets = t == kInvalidNode;
  // Reset before the early returns (like bfs_core) so scratch.dist/parent
  // never hold a previous query's state after this call.
  scratch.dist.reset(n);
  scratch.parent.reset(n);
  if (s >= n || (!all_targets && t >= n)) return result;
  if (use_bans && (scratch.node_ban.get_or(s, 0) ||
                   (!all_targets && scratch.node_ban.get_or(t, 0)))) {
    return result;
  }
  if (!all_targets && s == t) {
    result.found = true;
    result.distance = 0.0;
    return result;
  }
  const double inf = std::numeric_limits<double>::infinity();
  auto& heap = scratch.heap;
  heap.clear();
  scratch.dist.set(s, 0.0);
  heap.push_back({0.0, s});  // no push_heap needed for a single element
  // Raw views (see StampedArray::View): epochs and array bases stay in
  // registers across the whole search. The ban views are only indexed
  // when use_bans is set, in which case the caller (Yen / edge-disjoint)
  // has reset both ban arrays to this graph's size.
  const auto dist = scratch.dist.view();
  const auto parent = scratch.parent.view();
  const auto nban = scratch.node_ban.view();
  const auto eban = scratch.edge_ban.view();
  const bool finalized = g.finalized();
  constexpr bool unit_cost = kIsUnitCost<WeightFn>;
  // The search loop, stamped out once per ban mode so the per-edge ban
  // checks vanish entirely from the no-bans instantiation (the branch
  // would otherwise run for every relaxed edge).
  auto search = [&](auto bans) {
    while (!heap.empty()) {
      const auto [d, u] = heap.front();
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      heap.pop_back();
      if (d > cutoff) break;  // everything still queued costs > cutoff
      if (d > dist.get_or(u, inf)) continue;  // stale entry
      if (u == t) break;  // never taken in all-targets mode
      if constexpr (unit_cost) {
        // Exit 2; all-targets mode keeps the full tree.
        if (!all_targets && d + 1.0 > cutoff) break;
      }
      // Returns true when t has just been labelled under unit costs
      // (exit 1); never in all-targets mode, where t matches no node.
      auto relax = [&](EdgeId e, NodeId v) {
        if constexpr (bans.value) {
          if (nban.get_or(v, 0)) return false;
          if (eban.get_or(e, 0)) return false;
        }
        const double w = weight(e);
        if (w == kEdgeBanned) return false;
        const double nd = d + w;
        if (nd < dist.get_or(v, inf)) {
          dist.set(v, nd);
          parent.set(v, e);
          if constexpr (unit_cost) {
            if (v == t) return true;
          }
          heap.push_back({nd, v});
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
        return false;
      };
      if (finalized) {
        // Packed-arc loop: head node in the same sequential stream as the
        // edge id (see Graph::out_arcs); relaxation order is identical.
        for (const Graph::Arc a : g.out_arcs(u)) {
          if (relax(a.edge, a.head)) return;
        }
      } else {
        for (EdgeId e : g.out_edges(u)) {
          if (relax(e, g.to(e))) return;
        }
      }
    }
  };
  if (use_bans) {
    search(std::true_type{});
  } else {
    search(std::false_type{});
  }
  if (all_targets || !scratch.dist.contains(t)) return result;
  // Under a finite cutoff the loop can stop with t carrying a tentative
  // (unsettled, possibly non-optimal) label > cutoff; only a settled t —
  // which always has dist <= cutoff, else the u == t break could not have
  // run — or, under unit costs, a first-labelled one within the cutoff
  // counts as found.
  if (scratch.dist.get(t) > cutoff) return result;
  result.found = true;
  result.distance = scratch.dist.get(t);
  const std::size_t first = path_out.size();
  NodeId cur = t;
  while (cur != s) {
    const EdgeId e = scratch.parent.get(cur);
    path_out.push_back(e);
    cur = g.from(e);
  }
  std::reverse(path_out.begin() + static_cast<long>(first), path_out.end());
  return result;
}

/// Core all-targets Dijkstra: distances from src land in scratch.dist
/// (scratch.dist.get_or(v, inf) after the call; scratch.parent holds the
/// shortest-path tree). Out-of-range src leaves everything unreachable.
template <typename WeightFn>
void dijkstra_distances_core(const Graph& g, NodeId src, GraphScratch& scratch,
                             WeightFn&& weight) {
  Path unused;  // never written in all-targets mode
  dijkstra_core(g, src, kInvalidNode, scratch,
                std::forward<WeightFn>(weight), /*use_bans=*/false, unused);
}

/// Shortest s->t path under `weight` (unit weights if empty).
/// Additional `banned_nodes[v] != 0` excludes v from interior use
/// (needed by Yen's spur computation); may be empty.
DijkstraResult dijkstra(const Graph& g, NodeId s, NodeId t,
                        const EdgeWeight& weight = {},
                        const std::vector<char>& banned_nodes = {});

/// Distances from src to all nodes (no target, no bans).
std::vector<double> dijkstra_distances(const Graph& g, NodeId src,
                                       const EdgeWeight& weight = {});

}  // namespace flash

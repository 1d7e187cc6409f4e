// Yen's k shortest loopless paths.
//
// Flash's mice routing table stores the top-m shortest paths per receiver,
// computed with Yen's algorithm on the local topology (paper §3.3). This is
// the hottest graph query of a simulation (one call per new mice receiver),
// so the core is written against GraphScratch: spur-path dijkstras reuse the
// scratch's epoch-stamped state, banned spur edges/root nodes are O(1)
// epoch-reset marks, known-path dedup is an open-addressing hash set over
// pooled paths (no std::set<Path> full-path tree), and candidates live in a
// binary min-heap ordered by (cost, path) — the exact extraction order the
// previous std::set implementation had, so results are bit-identical.
// Spur searches are pruned three ways, none of which changes the output:
// Lawler's deviation-index skip, a candidate-bound cutoff, and — for
// unit-cost weights such as the mice table's hop counts — dijkstra_core's
// stop at the first label of t (see its contract in graph/dijkstra.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "graph/scratch.h"
#include "graph/types.h"

namespace flash {

namespace yen_detail {

/// FNV-1a over the edge ids; deterministic across runs and platforms.
inline std::uint64_t path_hash(const Path& p) {
  std::uint64_t h = 1469598103934665603ull;
  for (EdgeId e : p) {
    h ^= e;
    h *= 1099511628211ull;
  }
  return h;
}

/// Prepares the known-path set for a new query in O(1): slots are live only
/// when their epoch stamp matches scratch.yen_epoch, so bumping the epoch
/// forgets everything (stamps get re-zeroed once per 2^32 queries on wrap).
inline void yen_known_reset(GraphScratch& s) {
  if (++s.yen_epoch == 0) {
    std::fill(s.yen_known_epoch.begin(), s.yen_known_epoch.end(), 0u);
    s.yen_epoch = 1;
  }
}

/// Inserts pool path `idx` (hash pre-stored in scratch.yen_hash) into the
/// open-addressing known-set. Returns false when an equal path is already
/// present. Table slots hold pool index + 1; grown by doubling,
/// steady-state reuse is allocation-free.
inline bool yen_known_insert(GraphScratch& s, std::uint32_t idx,
                             std::size_t known_count) {
  auto& table = s.yen_known;
  auto& epoch = s.yen_known_epoch;
  const std::uint32_t live = s.yen_epoch;
  if (table.size() < 2 * (known_count + 1)) {
    std::size_t cap = table.empty() ? 64 : table.size();
    while (cap < 2 * (known_count + 1)) cap *= 2;
    table.assign(cap, 0);
    epoch.assign(cap, 0);
    // Re-insert everything below idx: duplicates were popped from the
    // pool, so every live pool entry except `idx` is a known path.
    for (std::uint32_t i = 0; i < s.pool.size(); ++i) {
      if (i == idx) continue;
      std::size_t slot = s.yen_hash[i] & (cap - 1);
      while (epoch[slot] == live) slot = (slot + 1) & (cap - 1);
      table[slot] = i + 1;
      epoch[slot] = live;
    }
  }
  const std::size_t mask = table.size() - 1;
  std::size_t slot = s.yen_hash[idx] & mask;
  while (epoch[slot] == live) {
    const std::uint32_t other = table[slot] - 1;
    if (s.yen_hash[other] == s.yen_hash[idx] &&
        s.pool.at(other) == s.pool.at(idx)) {
      return false;
    }
    slot = (slot + 1) & mask;
  }
  table[slot] = idx + 1;
  epoch[slot] = live;
  return true;
}

}  // namespace yen_detail

/// Core Yen: up to k loopless shortest s->t paths under `weight`, written
/// into `out` (slot-reused, then resized to the number found; see
/// assign_path_slot). Ordering matches yen_k_shortest_paths exactly.
/// Runs entirely in `scratch`; allocation-free once warm.
template <typename WeightFn>
void yen_core(const Graph& g, NodeId s, NodeId t, std::size_t k,
              GraphScratch& scratch, WeightFn&& weight,
              std::vector<Path>& out) {
  using yen_detail::path_hash;
  using yen_detail::yen_known_insert;
  using yen_detail::yen_known_reset;

  auto path_cost = [&](const Path& p) {
    double c = 0.0;
    for (EdgeId e : p) c += weight(e);
    return c;
  };

  std::size_t found = 0;
  auto finish = [&] { out.resize(found); };
  if (k == 0 || s == t || s >= g.num_nodes() || t >= g.num_nodes()) {
    finish();
    return;
  }

  auto& pool = scratch.pool;
  auto& hashes = scratch.yen_hash;
  auto& result_idx = scratch.yen_result;
  auto& cand_heap = scratch.yen_heap;
  pool.reset();
  result_idx.clear();
  cand_heap.clear();
  yen_known_reset(scratch);
  std::size_t known_count = 0;

  // Min-heap on (cost, path): the same total order the previous
  // std::set<std::pair<double, Path>> extracted in. Candidates are unique
  // (the known-set dedups paths), so heap extraction is deterministic.
  auto cand_greater = [&pool](const GraphScratch::YenCandidate& a,
                              const GraphScratch::YenCandidate& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    return pool.at(a.idx) > pool.at(b.idx);
  };

  auto& dev = scratch.yen_dev;
  auto record_hash = [&](std::uint32_t idx, std::uint32_t dev_index) {
    if (hashes.size() <= idx) hashes.resize(idx + 1);
    hashes[idx] = path_hash(pool.at(idx));
    if (dev.size() <= idx) dev.resize(idx + 1);
    dev[idx] = dev_index;
  };

  // First path: plain dijkstra, no bans.
  {
    Path& first = pool.alloc();
    const DijkstraCoreResult r =
        dijkstra_core(g, s, t, scratch, weight, /*use_bans=*/false, first);
    if (!r.found) {
      pool.pop();
      finish();
      return;
    }
    record_hash(0, 0);
    yen_known_insert(scratch, 0, known_count);
    ++known_count;
    result_idx.push_back(0);
    assign_path_slot(out, found++, first);
  }

  while (result_idx.size() < k) {
    const std::uint32_t prev_idx = result_idx.back();
    const Path& prev = pool.at(prev_idx);

    // Node sequence of the previous path (s included).
    auto& prev_nodes = scratch.node_buf;
    prev_nodes.clear();
    prev_nodes.push_back(s);
    for (EdgeId e : prev) prev_nodes.push_back(g.to(e));

    // Each node of the previous path except the last is a spur candidate —
    // starting at the previous path's own deviation index (Lawler's
    // optimization). A spur at an earlier index shares its root prefix
    // with the path prev deviated FROM, and prev's edge at that index
    // equals that parent's edge (they agree before the deviation point),
    // so the ban set — and therefore the spur dijkstra's result — is
    // identical to the one already computed at the parent's iteration.
    // Those re-runs can only produce candidates the known-set would
    // reject; skipping them changes nothing in the output sequence (the
    // equivalence suite pins this against the full-scan implementation).
    const std::size_t spur_begin = dev[prev_idx];
    double root_cost = 0.0;
    for (std::size_t j = 0; j < spur_begin; ++j) {
      root_cost += weight(prev[j]);
    }
    for (std::size_t i = spur_begin; i + 1 < prev_nodes.size(); ++i) {
      if (i > spur_begin) root_cost += weight(prev[i - 1]);
      const NodeId spur_node = prev_nodes[i];

      // Ban edges that would recreate an already-known path sharing this
      // root, and ban root nodes to keep paths loopless. Epoch reset: O(1).
      scratch.edge_ban.reset(g.num_edges());
      scratch.node_ban.reset(g.num_nodes());
      for (const std::uint32_t ridx : result_idx) {
        const Path& known_path = pool.at(ridx);
        if (known_path.size() > i &&
            std::equal(prev.begin(), prev.begin() + static_cast<long>(i),
                       known_path.begin())) {
          scratch.edge_ban.set(known_path[i], 1);
        }
      }
      for (std::size_t j = 0; j < i; ++j) {
        scratch.node_ban.set(prev_nodes[j], 1);
      }

      // Candidate-bound pruning: only `remaining` more paths will be
      // accepted, and each acceptance takes the heap minimum, so once the
      // heap holds >= remaining candidates, every future accepted cost is
      // <= the remaining-th smallest cost currently queued (later
      // candidates can only lower that). A spur path costlier than that
      // bound can never be emitted, so its dijkstra may stop there — in
      // particular capping the otherwise full-graph sweeps of spurs whose
      // best completion is expensive or unreachable. The 1e-9 slack keeps
      // floating-point borderline candidates: they are generated and
      // rejected by the normal acceptance logic instead of being pruned,
      // so the emitted sequence cannot shift by a rounding difference
      // between root_cost + distance and path_cost.
      const std::size_t remaining = k - result_idx.size();
      double cutoff = std::numeric_limits<double>::infinity();
      if (cand_heap.size() >= remaining) {
        auto& costs = scratch.yen_bound_buf;
        costs.clear();
        for (const auto& c : cand_heap) costs.push_back(c.cost);
        std::nth_element(costs.begin(),
                         costs.begin() + static_cast<long>(remaining - 1),
                         costs.end());
        cutoff = costs[remaining - 1] - root_cost + 1e-9;
      }

      // Root prefix + spur path, built in place in a pooled buffer.
      Path& total = pool.alloc();
      total.assign(prev.begin(), prev.begin() + static_cast<long>(i));
      const DijkstraCoreResult spur =
          dijkstra_core(g, spur_node, t, scratch, weight, /*use_bans=*/true,
                        total, cutoff);
      if (!spur.found) {
        pool.pop();
        continue;
      }

      const auto total_idx = static_cast<std::uint32_t>(pool.size() - 1);
      record_hash(total_idx, static_cast<std::uint32_t>(i));
      if (yen_known_insert(scratch, total_idx, known_count)) {
        ++known_count;
        cand_heap.push_back({path_cost(total), total_idx});
        std::push_heap(cand_heap.begin(), cand_heap.end(), cand_greater);
      } else {
        pool.pop();  // duplicate of a known path
      }
    }

    if (cand_heap.empty()) break;
    const std::uint32_t best = cand_heap.front().idx;
    std::pop_heap(cand_heap.begin(), cand_heap.end(), cand_greater);
    cand_heap.pop_back();
    result_idx.push_back(best);
    assign_path_slot(out, found++, pool.at(best));
  }
  finish();
}

/// Up to k loopless shortest paths from s to t ordered by increasing cost
/// (hop count when `weight` is empty; ties broken deterministically by the
/// candidate-generation order). Fewer than k paths are returned when the
/// graph does not contain k distinct loopless paths.
std::vector<Path> yen_k_shortest_paths(const Graph& g, NodeId s, NodeId t,
                                       std::size_t k,
                                       const EdgeWeight& weight = {});

}  // namespace flash

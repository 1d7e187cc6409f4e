#include "routing/flash/routing_table.h"

#include <algorithm>

#include "graph/yen.h"

namespace flash {

// Entries are keyed by pair_key(sender, receiver) from graph/types.h (the
// shared checked NodeId-packing helper).

MiceRoutingTable::MiceRoutingTable(const Graph& graph,
                                   RoutingTableConfig config)
    : graph_(&graph), config_(config) {}

const std::vector<Path>& MiceRoutingTable::lookup(NodeId sender,
                                                  NodeId receiver,
                                                  bool* computed) {
  LegacyScratchLease lease;
  GraphScratch& scratch = lease.get();
  return lookup(sender, receiver, scratch, computed);
}

const std::vector<Path>& MiceRoutingTable::lookup(NodeId sender,
                                                  NodeId receiver,
                                                  GraphScratch& scratch,
                                                  bool* computed) {
  ++clock_;
  if (config_.entry_timeout != 0 && (clock_ % 256) == 0) evict_stale();

  const auto key = pair_key(sender, receiver);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry entry;
    auto& paths = scratch.path_list_buf;
    if (open_mask_) {
      // Masked topology: results match Yen on the open-channel subgraph.
      yen_core(*graph_, sender, receiver,
               config_.paths_per_receiver + config_.spare_paths, scratch,
               OpenMaskUnitWeight{open_mask_}, paths);
    } else {
      yen_core(*graph_, sender, receiver,
               config_.paths_per_receiver + config_.spare_paths, scratch,
               UnitWeight{}, paths);
    }
    ++computations_;
    if (config_.max_hops != 0) {
      // Yen emits paths in non-decreasing length, so the over-budget ones
      // form a suffix; dropping them keeps the top-m semantics intact.
      std::erase_if(paths, [this](const Path& p) {
        return p.size() > config_.max_hops;
      });
    }
    const std::size_t active =
        std::min(paths.size(), config_.paths_per_receiver);
    entry.active.assign(paths.begin(),
                        paths.begin() + static_cast<long>(active));
    entry.spares.assign(paths.begin() + static_cast<long>(active),
                        paths.end());
    it = entries_.emplace(key, std::move(entry)).first;
    if (computed) *computed = true;
  } else if (computed) {
    *computed = false;
  }
  it->second.last_used = clock_;
  return it->second.active;
}

bool MiceRoutingTable::replace_dead_path(NodeId sender, NodeId receiver,
                                         const Path& path) {
  const auto it = entries_.find(pair_key(sender, receiver));
  if (it == entries_.end()) return false;
  Entry& entry = it->second;
  const auto pos = std::find(entry.active.begin(), entry.active.end(), path);
  if (pos == entry.active.end()) return false;
  if (entry.next_spare < entry.spares.size()) {
    // O(1) pop-front: consume spares by index instead of erasing (the
    // spares vector is dropped wholesale once exhausted).
    *pos = std::move(entry.spares[entry.next_spare++]);
    if (entry.next_spare == entry.spares.size()) {
      entry.spares.clear();
      entry.next_spare = 0;
    }
    return true;
  }
  entry.active.erase(pos);
  if (config_.recompute_on_exhaustion && entry.active.empty()) {
    // Every path this entry ever knew is dead. Under churn the topology
    // that produced them is gone too, so forget the entry: the next lookup
    // re-runs Yen on the (refreshed) graph rather than failing forever.
    entries_.erase(it);
  }
  return false;
}

void MiceRoutingTable::clear() { entries_.clear(); }

std::size_t MiceRoutingTable::invalidate_closed_paths() {
  // Affected-set rule: an entry dies iff any path it could ever serve —
  // active paths and the unconsumed spare tail (replace_dead_path may
  // activate those later) — crosses a closed edge. One O(path length) mask
  // scan per cached path, no per-close graph work.
  const unsigned char* mask = open_mask_;
  auto path_closed = [mask](const Path& p) {
    for (const EdgeId e : p) {
      if (!mask[e]) return true;
    }
    return false;
  };
  std::size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const Entry& entry = it->second;
    bool dead = false;
    for (const Path& p : entry.active) {
      if (path_closed(p)) {
        dead = true;
        break;
      }
    }
    for (std::size_t i = entry.next_spare; !dead && i < entry.spares.size();
         ++i) {
      dead = path_closed(entry.spares[i]);
    }
    if (dead) {
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

void MiceRoutingTable::evict_stale() {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (clock_ - it->second.last_used > config_.entry_timeout) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace flash

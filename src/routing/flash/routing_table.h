// Per-sender routing table for mice payments (paper §3.3).
//
// Each node keeps, per unique receiver, the top-m shortest paths computed
// with Yen's algorithm on the local topology. Recurrence (Fig. 4) makes
// this a table-lookup fast path for the vast majority of payments. Entries
// time out when unused; a path that turns out dead is replaced by the next
// shortest path. The table is rebuilt when the gossiped topology changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/scratch.h"
#include "graph/types.h"

namespace flash {

/// Tuning knobs for MiceRoutingTable. Plain value type.
struct RoutingTableConfig {
  /// Paths kept per receiver (the paper's m; default 4, §4.1).
  std::size_t paths_per_receiver = 4;
  /// Extra Yen paths computed and cached as spares for dead-path
  /// replacement, avoiding a full recomputation per replacement.
  std::size_t spare_paths = 4;
  /// Entries not used for this many lookups are evicted (the paper uses
  /// timeouts to bound table size). 0 disables eviction.
  std::uint64_t entry_timeout = 0;
  /// Dead-path replacement under churn: when an entry's last active path
  /// dies with the spares exhausted, drop the whole entry so the next
  /// lookup recomputes it (one extra Yen) instead of returning an empty
  /// path set forever. Off by default — recomputation changes the probe
  /// stream, and the static-simulation results are pinned bit-identical;
  /// the scenario engine enables it for its stale-view routers.
  bool recompute_on_exhaustion = false;
  /// Timelock budget as a hop cap (0 = unlimited): Yen results longer than
  /// this are discarded at computation time, so neither active paths nor
  /// spares can ever exceed the budget.
  std::size_t max_hops = 0;
};

/// NOT thread-safe: lookup() mutates the entry cache and the eviction
/// clock. Each concurrently running FlashRouter owns its own table. The
/// Graph is borrowed and must outlive the table.
class MiceRoutingTable {
 public:
  MiceRoutingTable(const Graph& graph, RoutingTableConfig config);

  /// Active paths for (sender, receiver); computes and inserts them on
  /// first use. The returned reference is invalidated by any non-const
  /// call. `computed` (optional out) reports whether Yen ran.
  const std::vector<Path>& lookup(NodeId sender, NodeId receiver,
                                  bool* computed = nullptr);

  /// Hot-path variant: a cache miss runs Yen inside `scratch` instead of a
  /// thread-local one (FlashRouter passes its own). Same semantics.
  const std::vector<Path>& lookup(NodeId sender, NodeId receiver,
                                  GraphScratch& scratch,
                                  bool* computed = nullptr);

  /// Replaces `path` (one of the entry's active paths) with the next
  /// shortest spare, dropping it permanently. Returns true if a
  /// replacement was activated, false if the entry simply shrank.
  bool replace_dead_path(NodeId sender, NodeId receiver, const Path& path);

  /// Recomputes nothing eagerly; drops everything so the next lookups
  /// recompute on the fresh topology (periodic refresh, §3.3).
  void clear();

  /// Installs (or clears) the open-edge mask: when set, lookup's Yen runs
  /// with closed edges weighted out (kEdgeBanned), so computed paths only
  /// use open channels. Borrowed; caller keeps it alive and current.
  void set_open_mask(const unsigned char* mask) noexcept { open_mask_ = mask; }

  /// Drops every entry holding a cached path (active or unconsumed spare)
  /// that traverses a masked-closed edge — the affected set of a channel
  /// close. Entries whose paths all stay open survive untouched; affected
  /// pairs re-Yen lazily on their next lookup. Returns entries dropped.
  /// Precondition: an open mask is installed.
  std::size_t invalidate_closed_paths();

  std::size_t size() const noexcept { return entries_.size(); }

  /// Total Yen invocations (path computations), an overhead metric.
  std::uint64_t computations() const noexcept { return computations_; }

 private:
  struct Entry {
    std::vector<Path> active;
    std::vector<Path> spares;       // next-shortest candidates, in order
    std::size_t next_spare = 0;     // first unconsumed spare (O(1) pop)
    std::uint64_t last_used = 0;    // lookup clock value
  };

  const Graph* graph_;
  RoutingTableConfig config_;
  const unsigned char* open_mask_ = nullptr;  // per directed edge; borrowed
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t clock_ = 0;
  std::uint64_t computations_ = 0;

  void evict_stale();
};

}  // namespace flash

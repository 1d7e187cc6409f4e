// Shortest Path (SP) baseline: route the whole payment over the single
// fewest-hops path (paper §4.1). Static: no probing, no balance awareness;
// the payment fails if any hop lacks balance.
#pragma once

#include <unordered_map>

#include "graph/graph.h"
#include "ledger/fee_policy.h"
#include "routing/router.h"

namespace flash {

class ShortestPathRouter : public Router {
 public:
  /// `fees` is used only for reporting the fee metric; it must outlive the
  /// router, as must `graph`. `max_hops` caps route length (0 = unlimited):
  /// a payment whose shortest path exceeds it fails — the HTLC timelock
  /// budget (scenario engine) rejects paths whose cumulative timelock the
  /// sender cannot afford.
  ShortestPathRouter(const Graph& graph, const FeeSchedule& fees,
                     std::size_t max_hops = 0);

  RouteResult route(const Transaction& tx, NetworkState& state) override;
  std::string name() const override { return "SP"; }
  std::size_t on_topology_update() override {
    const std::size_t n = cache_.size();
    cache_.clear();
    return n;
  }

  bool supports_incremental_maintenance() const override { return true; }
  void set_open_mask(const unsigned char* mask) override { open_mask_ = mask; }

 private:
  const Graph* graph_;
  const FeeSchedule* fees_;
  std::size_t max_hops_ = 0;                  // 0 = unlimited
  const unsigned char* open_mask_ = nullptr;  // borrowed; null = all open
  /// Shortest paths are static given the topology, so cache per pair.
  std::unordered_map<std::uint64_t, Path> cache_;

  const Path& shortest_path(NodeId s, NodeId t);
};

}  // namespace flash

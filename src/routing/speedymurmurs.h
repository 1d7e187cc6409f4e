// SpeedyMurmurs baseline [Roos et al., NDSS'18]: embedding-based routing.
//
// Nodes are assigned coordinates from spanning trees rooted at a few
// landmarks (paper §4.1 uses 3); a payment is split into one share per
// landmark tree and each share is forwarded greedily to the neighbour
// whose coordinate is closest to the receiver's — consulting only *local*
// channel balances, never probing remote ones. That makes SpeedyMurmurs a
// static (probe-free) scheme: cheap, but blind to remote depletion, which
// is why its success volume trails dynamic schemes in Figs. 6-7.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "ledger/fee_policy.h"
#include "routing/router.h"
#include "util/rng.h"

namespace flash {

struct SpeedyMurmursConfig {
  /// Number of landmarks / spanning trees (paper: 3, as [29] suggests).
  std::size_t num_landmarks = 3;
  /// Timelock budget as a hop cap (0 = unlimited): a share whose greedy
  /// walk exceeds it fails the payment (embedding routing cannot shorten a
  /// walk on demand).
  std::size_t max_hops = 0;
};

class SpeedyMurmursRouter : public Router {
 public:
  SpeedyMurmursRouter(const Graph& graph, const FeeSchedule& fees,
                      SpeedyMurmursConfig config = {});

  RouteResult route(const Transaction& tx, NetworkState& state) override;
  std::string name() const override { return "SpeedyMurmurs"; }
  std::size_t on_topology_update() override {
    build_embeddings();
    return 0;
  }

  /// Tree distance between two nodes in embedding `tree` (hops up to the
  /// lowest common ancestor and back down). Exposed for tests.
  std::uint32_t tree_distance(std::size_t tree, NodeId a, NodeId b) const;

  const std::vector<NodeId>& landmarks() const noexcept { return landmarks_; }

 private:
  const Graph* graph_;
  const FeeSchedule* fees_;
  SpeedyMurmursConfig config_;
  std::vector<NodeId> landmarks_;
  /// coords_[tree][node] = path of node ids from the landmark (inclusive)
  /// to the node; prefix comparison yields the tree distance.
  std::vector<std::vector<std::vector<NodeId>>> coords_;

  void build_embeddings();

  /// Greedy walk of one share through embedding `tree`; returns the path
  /// or an empty path when stuck (no closer neighbour with balance).
  Path greedy_route(std::size_t tree, NodeId s, NodeId t, Amount share,
                    const NetworkState& state) const;
};

}  // namespace flash

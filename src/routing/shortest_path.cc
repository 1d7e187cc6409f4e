#include "routing/shortest_path.h"

#include "graph/bfs.h"
#include "ledger/htlc.h"

namespace flash {

// Path cache keyed by pair_key(s, t) from graph/types.h.

ShortestPathRouter::ShortestPathRouter(const Graph& graph,
                                       const FeeSchedule& fees,
                                       std::size_t max_hops)
    : graph_(&graph), fees_(&fees), max_hops_(max_hops) {}

const Path& ShortestPathRouter::shortest_path(NodeId s, NodeId t) {
  const auto key = pair_key(s, t);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    if (open_mask_) {
      const unsigned char* mask = open_mask_;
      Path p;
      LegacyScratchLease lease;
      bfs_path_core(*graph_, s, t, lease.get(),
                    [mask](EdgeId e) { return mask[e] != 0; }, p);
      it = cache_.emplace(key, std::move(p)).first;
    } else {
      it = cache_.emplace(key, bfs_path(*graph_, s, t)).first;
    }
  }
  return it->second;
}

RouteResult ShortestPathRouter::route(const Transaction& tx,
                                      NetworkState& state) {
  RouteResult result;
  if (tx.amount <= 0 || tx.sender == tx.receiver) return result;
  const Path& path = shortest_path(tx.sender, tx.receiver);
  if (path.empty()) return result;  // unreachable
  // Timelock budget: the fewest-hops path already exceeds it, so every
  // path does — the payment is infeasible for this sender.
  if (max_hops_ != 0 && path.size() > max_hops_) return result;

  AtomicPayment payment(state);
  if (!payment.add_part(path, tx.amount)) return result;
  payment.commit();
  result.success = true;
  result.delivered = tx.amount;
  result.fee = fees_->path_fee(path, tx.amount);
  result.paths_used = 1;
  return result;
}

}  // namespace flash

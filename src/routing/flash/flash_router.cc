#include "routing/flash/flash_router.h"

namespace flash {

FlashRouter::FlashRouter(const Graph& graph, const FeeSchedule& fees,
                         FlashConfig config)
    : graph_(&graph),
      fees_(&fees),
      config_(config),
      table_(graph, RoutingTableConfig{config.m_mice_paths,
                                       config.spare_paths,
                                       config.table_timeout,
                                       config.table_recompute_on_exhaustion,
                                       config.max_route_hops}),
      rng_(config.seed) {}

RouteResult FlashRouter::route(const Transaction& tx, NetworkState& state) {
  const bool elephant =
      is_elephant(tx.amount) ||
      (config_.m_mice_paths == 0 && config_.mice_as_elephants_when_m0);
  if (elephant) {
    ElephantConfig ec;
    ec.max_paths = config_.k_elephant_paths;
    ec.optimize_fees = config_.optimize_fees;
    ec.open_mask = open_mask_;
    ec.max_hops = config_.max_route_hops;
    RouteResult r = route_elephant(*graph_, tx, state, *fees_, ec, scratch_,
                                   probe_buf_, split_ws_);
    r.elephant = is_elephant(tx.amount);
    return r;
  }
  RouteResult r =
      config_.mice_selection == MiceSelection::kWaterfill
          ? route_mice_waterfill(*graph_, tx, state, *fees_, table_, scratch_)
          : route_mice(*graph_, tx, state, *fees_, table_, rng_, scratch_);
  r.elephant = false;
  return r;
}

}  // namespace flash

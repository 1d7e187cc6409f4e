// Router interface shared by Flash and the three baselines.
//
// A router processes one payment at a time against the live ledger
// (NetworkState), exactly as in the paper's simulation where "payments
// arrive at senders sequentially" (§4.1). Routers learn balances only
// through NetworkState's probing interface, which meters probe messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "ledger/network_state.h"
#include "trace/transaction.h"

namespace flash {

/// Per-payment outcome.
struct RouteResult {
  bool success = false;
  /// Amount delivered end-to-end: tx.amount on success, 0 on failure
  /// (payments are atomic — partial delivery never settles, §3.1).
  Amount delivered = 0;
  /// Total transaction fees that the delivered payment incurs.
  Amount fee = 0;
  /// Probe messages this payment consumed (delta of the ledger's meter).
  std::uint64_t probe_messages = 0;
  /// Number of path probes issued.
  std::uint32_t probes = 0;
  /// Paths that carried a positive amount.
  std::uint32_t paths_used = 0;
  /// Set by Flash: whether the payment was classified as an elephant.
  bool elephant = false;
};

class Router {
 public:
  virtual ~Router() = default;

  /// Routes one payment, settling it against `state` on success.
  virtual RouteResult route(const Transaction& tx, NetworkState& state) = 0;

  /// Scheme name as used in the paper's figures ("Flash", "Spider", ...).
  virtual std::string name() const = 0;

  /// Invalidates any cached paths/coordinates after a topology change
  /// (the paper's routing tables are refreshed when the gossiped topology
  /// updates, §3.3). Returns the number of cache entries dropped.
  virtual std::size_t on_topology_update() { return 0; }

  // --- Incremental maintenance (scenario engine; see sim/scenario.h) ---
  //
  // A router that supports it is constructed over a FIXED full-shape graph
  // whose closed channels are masked out via set_open_mask: mask[e] != 0
  // means directed edge e is currently traversable. Search cores skip
  // masked edges, so the router behaves exactly as if built over the
  // subgraph of open channels, without ever rebuilding the CSR. On a view
  // change the owner updates the mask in place and calls
  // on_topology_update instead of reconstructing the router: dropping
  // every cached entry over the patched mask leaves the router
  // bit-identical to a freshly built one.

  /// Whether this router honors set_open_mask.
  /// Routers that return false (e.g. SpeedyMurmurs, whose embeddings are
  /// baked from the raw adjacency) must be fully rebuilt on view changes.
  virtual bool supports_incremental_maintenance() const { return false; }

  /// Installs (or clears, with nullptr) the per-directed-edge open mask.
  /// Borrowed: the caller keeps it alive and in sync with the topology.
  virtual void set_open_mask(const unsigned char* /*mask*/) {}

  /// Re-derives the router's internal randomness exactly as constructing
  /// it through make_router(..., seed) would. No-op for deterministic
  /// routers. Lets a patched router match a freshly built one stream-for-
  /// stream (the scenario engine reseeds per (sender, view version)).
  virtual void reseed(std::uint64_t /*seed*/) {}
};

}  // namespace flash

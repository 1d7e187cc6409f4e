// Lightning-scale streaming benchmark: payments/sec, peak RSS and
// router-cache behaviour when the scenario engine runs a 10k-100k-node
// synthetic Lightning topology with a generated (never materialized)
// payment stream and a bounded per-sender router cache.
//
// This is the tentpole measurement for the ROADMAP's scale work: workload
// memory is O(1) in the payment count (GeneratedWorkloadStream), per-sender
// routing state is O(network x K) (SenderRouterCache), and the topology
// comes through the snapshot-materialization path (make_snapshot_workload)
// so the bench exercises the same plumbing a real crawled snapshot would.
//
// Modes: FLASH_BENCH_SMOKE runs one 2k-node cell sized for a CI gate;
// FLASH_BENCH_FAST one 10k-node cell; the default runs 10k and 50k nodes
// at 10^5 streamed payments each. FLASH_BENCH_JSON writes the structured
// report run_benches.sh folds into BENCH_micro.json under "scale".
// Each cell reports set-up (snapshot -> Workload -> engine construction)
// as setup_seconds and the timed run as wall_seconds; pay/s is over the
// run alone.
// FLASH_BENCH_MAINTENANCE=full|strict picks the router maintenance mode
// (default strict: the O(delta) patch path this bench is sized to show
// off; "full" is the pre-incremental O(network)-rebuild baseline for A/B).
// Any other value exits with status 2 before a topology is built.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/graph_io.h"
#include "graph/topology.h"
#include "sim/scenario.h"
#include "trace/workload_stream.h"
#include "util/table.h"

namespace flash::bench {
namespace {

/// Satoshi size threshold separating mice from elephants. An on-the-fly
/// stream has no materialized trace to take quantiles from, so the bench
/// pins the threshold the paper's Lightning workload converges to.
constexpr Amount kClassThreshold = 8.9e7;

struct ScaleCell {
  const char* label;
  std::size_t nodes;
  std::size_t payments;
  std::size_t max_routers;  // SenderRouterCache capacity K
};

struct ScaleRow {
  ScaleCell cell;
  std::size_t channels = 0;
  double setup_seconds = 0;  // snapshot -> Workload -> engine construction
  double wall_seconds = 0;   // engine.run() only
  double payments_per_sec = 0;
  double success_ratio = 0;
  double cache_hit_rate = 0;
  ScenarioResult result;
  long peak_rss_kib = 0;
};

long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

/// Synthesizes a crawled-density snapshot: scale-free topology at the
/// Lightning channels-per-node ratio, degree-weighted lognormal channel
/// capacities around the 500k-satoshi median (hubs carry most traffic, so
/// they get proportionally deeper channels — same model as the paper's
/// Lightning workload) split evenly across directions, and the paper's
/// low-end proportional fee on every edge.
LightningSnapshot make_snapshot(std::size_t nodes, Rng& rng) {
  const Graph g = scale_free_lightning(nodes, rng);
  double avg_degree = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    avg_degree += static_cast<double>(g.out_degree(v));
  }
  avg_degree /= std::max<double>(1.0, static_cast<double>(g.num_nodes()));
  LightningSnapshot snap;
  snap.num_nodes = g.num_nodes();
  snap.channels.reserve(g.num_channels());
  const double mu = std::log(500000.0);
  for (std::size_t c = 0; c < g.num_channels(); ++c) {
    const EdgeId e = g.channel_forward_edge(c);
    const double du = static_cast<double>(g.out_degree(g.from(e)));
    const double dv = static_cast<double>(g.out_degree(g.to(e)));
    const double weight = std::sqrt(du * dv) / std::max(avg_degree, 1.0);
    const Amount capacity = rng.lognormal(mu, 1.6) * weight;
    snap.channels.push_back({g.from(e), g.to(e), capacity / 2, capacity / 2,
                             0.0, 0.001, 0.0, 0.001});
  }
  return snap;
}

/// FLASH_BENCH_MAINTENANCE, or nullopt for a value outside full|strict.
std::optional<RouterMaintenance> maintenance_mode() {
  const char* env = std::getenv("FLASH_BENCH_MAINTENANCE");
  const std::string mode = env ? env : "strict";
  if (mode == "full") return RouterMaintenance::kFullRebuild;
  if (mode == "strict") return RouterMaintenance::kIncrementalStrict;
  return std::nullopt;
}

const char* maintenance_name(RouterMaintenance m) {
  return m == RouterMaintenance::kFullRebuild ? "full" : "strict";
}

ScaleRow run_cell(const ScaleCell& cell, RouterMaintenance maintenance) {
  const auto setup_start = std::chrono::steady_clock::now();
  Rng rng(1);
  const LightningSnapshot snap = make_snapshot(cell.nodes, rng);
  const Workload w = make_snapshot_workload(snap, cell.label);

  GeneratedStreamConfig stream_cfg;
  stream_cfg.count = cell.payments;
  stream_cfg.sizes = SizeDistribution::bitcoin();
  stream_cfg.pair_config = PairGenConfig::daily();
  GeneratedWorkloadStream stream(w.graph(), /*seed=*/2, stream_cfg);

  FlashOptions opts;
  opts.elephant_threshold = kClassThreshold;
  SimConfig sim;
  sim.class_threshold = kClassThreshold;
  sim.invariant_stride = 4096;
  ScenarioConfig scenario;
  // A handful of close/reopen cycles over the run, each stale for ~20 % of
  // it: enough view divergence that the per-sender router cache does real
  // work without the bench becoming a churn microbenchmark.
  scenario.churn.close_rate = 8.0 / static_cast<double>(cell.payments);
  scenario.churn.mean_downtime = static_cast<double>(cell.payments) / 5.0;
  scenario.gossip.hop_delay = 3;
  scenario.max_sender_routers = cell.max_routers;
  scenario.maintenance = maintenance;

  ScenarioEngine engine(w, stream, Scheme::kShortestPath, opts, sim, scenario,
                        /*seed=*/7);
  const auto start = std::chrono::steady_clock::now();
  ScenarioResult result = engine.run();
  const auto end = std::chrono::steady_clock::now();
  const std::chrono::duration<double> setup = start - setup_start;
  const std::chrono::duration<double> elapsed = end - start;

  ScaleRow row;
  row.cell = cell;
  row.channels = w.graph().num_channels();
  row.setup_seconds = setup.count();
  row.wall_seconds = elapsed.count();
  row.payments_per_sec =
      static_cast<double>(cell.payments) / std::max(elapsed.count(), 1e-9);
  row.success_ratio = result.sim.success_ratio();
  const std::uint64_t lookups =
      result.router_cache_hits + result.router_cache_misses;
  row.cache_hit_rate =
      lookups ? static_cast<double>(result.router_cache_hits) /
                    static_cast<double>(lookups)
              : 0.0;
  row.result = std::move(result);
  row.peak_rss_kib = peak_rss_kib();
  return row;
}

void write_json(const std::string& path, const std::vector<ScaleRow>& rows,
                RouterMaintenance maintenance, double wall_seconds) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write FLASH_BENCH_JSON=%s\n",
                 path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"bench_scale\",\n";
  out << "  \"wall_seconds\": " << wall_seconds << ",\n";
  out << "  \"threads\": 1,\n  \"cells\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    out << "    {\"label\": \"" << r.cell.label << "\""
        << ", \"nodes\": " << r.cell.nodes
        << ", \"channels\": " << r.channels
        << ", \"payments\": " << r.cell.payments
        << ", \"max_sender_routers\": " << r.cell.max_routers
        << ", \"setup_seconds\": " << r.setup_seconds
        << ", \"wall_seconds\": " << r.wall_seconds
        << ", \"payments_per_sec\": " << r.payments_per_sec
        << ", \"success_ratio\": " << r.success_ratio
        << ", \"cache_hit_rate\": " << r.cache_hit_rate
        << ", \"cache_hits\": " << r.result.router_cache_hits
        << ", \"cache_misses\": " << r.result.router_cache_misses
        << ", \"cache_evictions\": " << r.result.router_cache_evictions
        << ", \"router_rebuilds\": " << r.result.router_rebuilds
        << ", \"router_patches\": " << r.result.router_patches
        << ", \"entries_invalidated\": " << r.result.entries_invalidated
        << ", \"maintenance\": \"" << maintenance_name(maintenance)
        << "\""
        << ", \"channels_closed\": " << r.result.channels_closed
        << ", \"peak_rss_kib\": " << r.peak_rss_kib << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("json report: %s\n", path.c_str());
}

int run() {
  const std::optional<RouterMaintenance> maintenance = maintenance_mode();
  if (!maintenance) {
    std::fprintf(stderr,
                 "error: FLASH_BENCH_MAINTENANCE=%s; accepted values are "
                 "full and strict\n",
                 std::getenv("FLASH_BENCH_MAINTENANCE"));
    return 2;
  }
  std::vector<ScaleCell> cells;
  if (smoke_mode()) {
    cells.push_back({"2k", 2000, 3000, 16});
  } else if (fast_mode()) {
    cells.push_back({"10k", 10000, 20000, 64});
  } else {
    cells.push_back({"10k", 10000, 100000, 64});
    cells.push_back({"50k", 50000, 100000, 16});
  }

  print_header("bench_scale",
               "streaming payments through Lightning-scale topologies");
  std::printf("router maintenance: %s (FLASH_BENCH_MAINTENANCE)\n",
              maintenance_name(*maintenance));
  const auto start = std::chrono::steady_clock::now();
  std::vector<ScaleRow> rows;
  rows.reserve(cells.size());
  for (const ScaleCell& cell : cells) {
    std::printf("-- %s: %zu nodes, %zu payments, K=%zu\n", cell.label,
                cell.nodes, cell.payments, cell.max_routers);
    rows.push_back(run_cell(cell, *maintenance));
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  TextTable t;
  t.header({"topo", "nodes", "channels", "payments", "K", "setup s", "run s",
            "pay/s", "success", "hit rate", "evict", "rebuilds", "patches",
            "invalidated", "peakRSS MiB"});
  for (const ScaleRow& r : rows) {
    t.row({r.cell.label, std::to_string(r.cell.nodes),
           std::to_string(r.channels), std::to_string(r.cell.payments),
           std::to_string(r.cell.max_routers), fmt(r.setup_seconds, 3),
           fmt(r.wall_seconds, 3), fmt(r.payments_per_sec, 0),
           fmt_pct(r.success_ratio), fmt_pct(r.cache_hit_rate),
           std::to_string(r.result.router_cache_evictions),
           std::to_string(r.result.router_rebuilds),
           std::to_string(r.result.router_patches),
           std::to_string(r.result.entries_invalidated),
           fmt(static_cast<double>(r.peak_rss_kib) / 1024.0, 1)});
  }
  print_table(t);

  claim("workload memory per payment", "O(1) (streamed)", "O(1) (streamed)");
  claim("per-sender router state", "O(network x K)",
        "K=" + std::to_string(cells.back().max_routers) + " live routers");

  const char* path = std::getenv("FLASH_BENCH_JSON");
  if (path && *path) write_json(path, rows, *maintenance, elapsed.count());
  return 0;
}

}  // namespace
}  // namespace flash::bench

int main() { return flash::bench::run(); }

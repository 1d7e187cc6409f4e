// Whole-run benchmark for the simulator (see perfbench/README.md).
//
// One process runs one workload. --seed derives a fixed set of cases, each
// an independent input (topology, capacities, payment trace); a pass runs
// every case once, start to finish: topology and trace construction,
// engine set-up, every payment, teardown. Passes repeat while the next one
// fits in --seconds, at least two of them, and every pass must reproduce the
// first one payment for payment. Each layer is measured only from outside the
// library: the Router and WorkloadStream interfaces are wrapped in timing
// decorators, direct calls (make_ripple_workload, scale_free_lightning,
// Workload::make_state, elephant_find_paths_into, optimize_fee_split_core)
// are timed at the call site, and the rest comes from the public counters
// of SimResult, ScenarioResult and the Flash routing table.
//
//   flash_perfbench --workload flash-mice|flash-elephant|lightning-dynamic
//                   --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced passes and prints the per-layer metrics, the self time of
// every layer computed from the spans, and the tracing overhead; the spans
// of the last traced pass are written to DIR as JSON lines at exit. The
// last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Exit code 1 on a correctness violation, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/graph_io.h"
#include "graph/topology.h"
#include "lp/fee_min.h"
#include "routing/flash/elephant.h"
#include "routing/flash/flash_router.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "trace/workload.h"
#include "trace/workload_stream.h"
#include "util/rng.h"

namespace {

using namespace flash;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent span, payment index, kept in memory. The
// layer of a span is its name up to the first '.'.

struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  std::int32_t parent;
  std::int64_t payment;  // -1 outside a payment
};

class SpanLog {
 public:
  std::int32_t open(const char* name, std::int32_t parent) {
    const Clock::time_point now = Clock::now();
    spans_.push_back({name, now, now, parent, -1});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
  }
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::int32_t parent, std::int64_t payment) {
    spans_.push_back({name, start, end, parent, payment});
  }
  std::size_t size() const noexcept { return spans_.size(); }

  /// Self time per layer: each span's duration minus the time its child
  /// spans cover (children of one span never overlap: one thread).
  std::map<std::string, double> self_seconds_by_layer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] +=
            seconds_between(s.start, s.end);
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::string name = spans_[i].name;
      self[name.substr(0, name.find('.'))] +=
          seconds_between(spans_[i].start, spans_[i].end) - child[i];
    }
    return self;
  }

  void write_jsonl(std::ostream& os) const {
    if (spans_.empty()) return;
    const Clock::time_point t0 = spans_.front().start;
    const auto ns = [t0](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0)
          .count();
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"start_ns\":" << ns(s.start) << ",\"end_ns\":" << ns(s.end)
         << ",\"parent\":" << s.parent << ",\"payment\":" << s.payment
         << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

/// Records a span over its lifetime; does nothing without a log.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::int32_t parent)
      : log_(log), id_(log ? log->open(name, parent) : -1) {}
  ~Scope() {
    if (log_) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  std::int32_t id_;
};

/// Runs `f` under a span and adds its wall time to `acc`.
template <typename F>
void timed(SpanLog* log, const char* name, std::int32_t parent, double& acc,
           F&& f) {
  const Scope scope(log, name, parent);
  const Clock::time_point t0 = Clock::now();
  f();
  acc += seconds_between(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Metrics.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"throughput_pps", "1/s"},
    {"payment_p50_us", "us"},
    {"payment_p99_us", "us"},
    {"peak_rss_mib", "MiB"},
    {"success_ratio", "ratio"},
    {"msgs_per_payment", "msgs/payment"},
    {"fee_ratio", "ratio"},
};

constexpr MetricDef kLayerMetrics[] = {
    {"graph.topology_s", "s"},
    {"trace.build_s", "s"},
    {"trace.stream_next_s", "s"},
    {"trace.stream_next_calls", "count"},
    {"ledger.make_state_s", "s"},
    {"ledger.probe_msgs", "count"},
    {"routing.route_calls", "count"},
    {"routing.route_busy_s", "s"},
    {"routing.mice.calls", "count"},
    {"routing.mice.busy_s", "s"},
    {"routing.mice.miss_busy_s", "s"},
    {"routing.mice.failures", "count"},
    {"routing.mice.table_hit_ratio", "ratio"},
    {"routing.mice.table_computations", "count"},
    {"routing.elephant.calls", "count"},
    {"routing.elephant.busy_s", "s"},
    {"routing.elephant.failures", "count"},
    {"routing.elephant.probe_s", "s"},
    {"routing.elephant.probes_per_payment", "count/payment"},
    {"routing.elephant.paths_per_payment", "count/payment"},
    {"lp.split_s", "s"},
    {"lp.splits", "count"},
    {"sim.engine_setup_s", "s"},
    {"sim.run_s", "s"},
    {"sim.router_rebuilds", "count"},
    {"sim.router_patches", "count"},
    {"sim.entries_invalidated", "count"},
    {"sim.sender_cache_hit_ratio", "ratio"},
    {"sim.sender_cache_evictions", "count"},
    {"sim.retries", "count"},
    {"sim.stale_view_failures", "count"},
    {"sim.htlc_payments", "count"},
    {"sim.htlc_inflight_failures", "count"},
    {"sim.htlc_max_inflight", "count"},
    {"gossip.messages", "count"},
    {"gossip.rounds", "count"},
    {"trace.self_s", "s"},
    {"graph.self_s", "s"},
    {"ledger.self_s", "s"},
    {"routing.self_s", "s"},
    {"lp.self_s", "s"},
    {"sim.self_s", "s"},
    {"bench.self_s", "s"},
    {"bench.tracing_overhead", "ratio"},
};

/// Per-layer counters by metric name, summed over the cases of a pass.
/// Ratio metrics are derived from raw sums (derive_ratios) so that they
/// pool correctly across cases; the raw inputs are not printed.
using Layers = std::map<std::string, double>;

void add_layers(Layers& into, const Layers& from) {
  for (const auto& [name, value] : from) {
    double& slot = into[name];
    slot = name == "sim.htlc_max_inflight" ? std::max(slot, value)
                                           : slot + value;
  }
}

void derive_ratios(Layers& l) {
  l["routing.mice.table_hit_ratio"] =
      ratio(l["routing.mice.table_hits"], l["routing.mice.calls"]);
  l["routing.elephant.probes_per_payment"] =
      ratio(l["routing.elephant.probes"], l["routing.elephant.calls"]);
  l["routing.elephant.paths_per_payment"] =
      ratio(l["routing.elephant.paths"], l["routing.elephant.calls"]);
  l["sim.sender_cache_hit_ratio"] =
      ratio(l["sim.sender_cache_hits"], l["sim.sender_cache_lookups"]);
}

/// Routing outcome of one case, summed; deterministic per case seed.
struct Totals {
  double transactions = 0;
  double successes = 0;
  double volume_attempted = 0;
  double volume_succeeded = 0;
  double fees = 0;
  double messages = 0;  // probe + gossip

  Totals& operator+=(const Totals& o) {
    transactions += o.transactions;
    successes += o.successes;
    volume_attempted += o.volume_attempted;
    volume_succeeded += o.volume_succeeded;
    fees += o.fees;
    messages += o.messages;
    return *this;
  }
  bool operator==(const Totals&) const = default;
};

Totals totals_of(const SimResult& r, std::uint64_t gossip_messages) {
  Totals t;
  t.transactions = static_cast<double>(r.transactions);
  t.successes = static_cast<double>(r.successes);
  t.volume_attempted = r.volume_attempted;
  t.volume_succeeded = r.volume_succeeded;
  t.fees = r.fees_paid;
  t.messages = static_cast<double>(r.probe_messages + gossip_messages);
  return t;
}

/// One complete run of one case.
struct CaseRun {
  double wall_s = 0;
  double setup_s = 0;
  std::size_t payments = 0;
  std::uint64_t digest = 0;  // result_digest
  Totals totals;
  std::vector<double> payment_us;  // per-payment latency samples
  Layers layers;
  std::vector<std::string> violations;
};

void fold(std::uint64_t& h, std::uint64_t v) {
  std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ULL);
  h = splitmix64(x);
}

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

// ---------------------------------------------------------------------------
// Timing decorators.

/// Times every WorkloadStream::next call; the gaps between consecutive
/// pulls are the engine's time per arrival.
class TimedStream final : public WorkloadStream {
 public:
  TimedStream(WorkloadStream& inner, SpanLog* log)
      : inner_(&inner), log_(log) {}

  bool next(Transaction& out) override {
    const Clock::time_point t0 = Clock::now();
    if (calls_ == 0) {
      first_pull_ = t0;
    } else {
      gaps_us_.push_back(seconds_between(last_end_, t0) * 1e6);
    }
    const bool ok = inner_->next(out);
    const Clock::time_point t1 = Clock::now();
    if (log_) {
      log_->add("trace.stream_next", t0, t1, parent_,
                static_cast<std::int64_t>(calls_));
    }
    busy_s_ += seconds_between(t0, t1);
    last_end_ = t1;
    ++calls_;
    return ok;
  }
  void reset() override { inner_->reset(); }
  void reset(std::uint64_t seed) override { inner_->reset(seed); }
  std::size_t size() const override { return inner_->size(); }

  void set_parent(std::int32_t parent) noexcept { parent_ = parent; }
  Clock::time_point first_pull() const noexcept { return first_pull_; }
  std::uint64_t calls() const noexcept { return calls_; }
  std::vector<double>& gaps_us() noexcept { return gaps_us_; }

  void report(Layers& l) const {
    l["trace.stream_next_s"] += busy_s_;
    l["trace.stream_next_calls"] += static_cast<double>(calls_);
  }

 private:
  WorkloadStream* inner_;
  SpanLog* log_;
  std::int32_t parent_ = -1;
  Clock::time_point first_pull_{};
  Clock::time_point last_end_{};
  std::uint64_t calls_ = 0;
  double busy_s_ = 0;
  std::vector<double> gaps_us_;
};

/// Times every Router::route call of a Flash router and splits the time by
/// payment class. With a span log it also replays each elephant payment's
/// probe (Algorithm 1) and fee LP on a copy of the ledger, which times those
/// two steps without touching the run's own state.
class TimedRouter final : public Router {
 public:
  TimedRouter(std::unique_ptr<Router> inner, const Workload& workload,
              std::size_t k_elephant_paths, bool optimize_fees, SpanLog* log)
      : inner_(std::move(inner)),
        flash_(dynamic_cast<const FlashRouter*>(inner_.get())),
        workload_(&workload),
        k_elephant_paths_(k_elephant_paths),
        optimize_fees_(optimize_fees),
        log_(log) {
    if (!flash_) throw std::invalid_argument("TimedRouter wraps FlashRouter");
  }

  RouteResult route(const Transaction& tx, NetworkState& state) override {
    const auto index = static_cast<std::int64_t>(payment_us_.size());
    if (!state_) {
      first_route_ = Clock::now();
      state_ = &state;
      initial_funds_ = funds(state);
    }
    const Scope payment(log_, "bench.payment", parent_);
    if (log_ && flash_->is_elephant(tx.amount)) {
      replay_elephant(tx, state, payment.id(), index);
    }

    const std::uint64_t computed = flash_->routing_table().computations();
    const Clock::time_point t0 = Clock::now();
    const RouteResult r = inner_->route(tx, state);
    const Clock::time_point t1 = Clock::now();
    if (log_) log_->add("routing.route", t0, t1, payment.id(), index);

    const double busy = seconds_between(t0, t1);
    payment_us_.push_back(busy * 1e6);
    ++c_.route_calls;
    c_.route_busy_s += busy;
    if (r.elephant) {
      ++c_.elephant_calls;
      c_.elephant_busy_s += busy;
      c_.elephant_failures += r.success ? 0 : 1;
      c_.elephant_probes += r.probes;
      c_.elephant_paths += r.paths_used;
    } else {
      const bool hit = flash_->routing_table().computations() == computed;
      ++c_.mice_calls;
      c_.mice_busy_s += busy;
      c_.mice_failures += r.success ? 0 : 1;
      c_.mice_hits += hit ? 1 : 0;
      c_.mice_miss_busy_s += hit ? 0 : busy;
    }
    return r;
  }
  std::string name() const override { return inner_->name(); }

  /// The total funds of the ledger handed to route() never change: a
  /// payment only moves balance between the two directions of channels.
  bool funds_conserved() const {
    if (!state_) return true;
    return std::abs(funds(*state_) - initial_funds_) <=
           1e-9 * std::max(1.0, std::abs(initial_funds_));
  }

  void set_parent(std::int32_t parent) noexcept { parent_ = parent; }
  Clock::time_point first_route() const noexcept { return first_route_; }
  std::vector<double>& payment_us() noexcept { return payment_us_; }

  void report(Layers& l) const {
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    l["routing.route_calls"] += count(c_.route_calls);
    l["routing.route_busy_s"] += c_.route_busy_s;
    l["routing.mice.calls"] += count(c_.mice_calls);
    l["routing.mice.busy_s"] += c_.mice_busy_s;
    l["routing.mice.miss_busy_s"] += c_.mice_miss_busy_s;
    l["routing.mice.failures"] += count(c_.mice_failures);
    l["routing.mice.table_hits"] += count(c_.mice_hits);
    l["routing.mice.table_computations"] +=
        count(flash_->routing_table().computations());
    l["routing.elephant.calls"] += count(c_.elephant_calls);
    l["routing.elephant.busy_s"] += c_.elephant_busy_s;
    l["routing.elephant.failures"] += count(c_.elephant_failures);
    l["routing.elephant.probes"] += count(c_.elephant_probes);
    l["routing.elephant.paths"] += count(c_.elephant_paths);
    l["routing.elephant.probe_s"] += c_.probe_s;
    l["lp.split_s"] += c_.split_s;
    l["lp.splits"] += count(c_.splits);
  }

 private:
  static double funds(const NetworkState& s) {
    return s.total_balance() + s.total_held();
  }

  void replay_elephant(const Transaction& tx, const NetworkState& state,
                       std::int32_t parent, std::int64_t index) {
    NetworkState copy = state;
    const Graph& g = workload_->graph();
    Clock::time_point t0 = Clock::now();
    elephant_find_paths_into(g, tx.sender, tx.receiver, tx.amount,
                             k_elephant_paths_, copy, scratch_, probe_);
    Clock::time_point t1 = Clock::now();
    log_->add("routing.elephant.probe", t0, t1, parent, index);
    c_.probe_s += seconds_between(t0, t1);
    if (!probe_.feasible || !optimize_fees_) return;
    t0 = Clock::now();
    optimize_fee_split_core(g, probe_.paths, tx.amount, probe_.capacities,
                            workload_->fees(), split_ws_, split_);
    t1 = Clock::now();
    log_->add("lp.split", t0, t1, parent, index);
    c_.split_s += seconds_between(t0, t1);
    ++c_.splits;
  }

  std::unique_ptr<Router> inner_;
  const FlashRouter* flash_;
  const Workload* workload_;
  std::size_t k_elephant_paths_;
  bool optimize_fees_;
  SpanLog* log_;
  std::int32_t parent_ = -1;

  NetworkState* state_ = nullptr;  // the run's ledger; valid while it runs
  double initial_funds_ = 0;
  Clock::time_point first_route_{};
  std::vector<double> payment_us_;
  struct Counters {
    std::uint64_t route_calls = 0;
    double route_busy_s = 0;
    std::uint64_t mice_calls = 0;
    double mice_busy_s = 0;
    double mice_miss_busy_s = 0;
    std::uint64_t mice_failures = 0;
    std::uint64_t mice_hits = 0;
    std::uint64_t elephant_calls = 0;
    double elephant_busy_s = 0;
    std::uint64_t elephant_failures = 0;
    std::uint64_t elephant_probes = 0;
    std::uint64_t elephant_paths = 0;
    double probe_s = 0;  // replayed probes (traced passes only)
    double split_s = 0;  // replayed fee LPs (traced passes only)
    std::uint64_t splits = 0;
  } c_;

  GraphScratch scratch_;
  ElephantProbeResult probe_;
  SplitWorkspace split_ws_;
  SplitResult split_;
};

// ---------------------------------------------------------------------------
// Workloads.

/// Seed of case `index` of a run seeded with `seed`.
std::uint64_t case_seed(std::uint64_t seed, std::size_t index) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + index;
  return splitmix64(x);
}

/// flash-mice / flash-elephant: the paper's Ripple workload at capacity
/// scale 10 (as fig10/fig11) through Flash with k = 20 and m = 4.
constexpr std::size_t kRippleTransactions = 2000;
constexpr double kRippleCapacityScale = 10.0;

CaseRun run_flash(double mice_quantile, std::uint64_t seed, SpanLog* log) {
  CaseRun run;
  Layers& l = run.layers;
  const Clock::time_point start = Clock::now();
  {
    const Scope root(log, "bench.case", -1);
    std::optional<Workload> w;
    timed(log, "trace.build", root.id(), l["trace.build_s"], [&] {
      WorkloadConfig c;
      c.num_transactions = kRippleTransactions;
      c.seed = seed;
      w.emplace(make_ripple_workload(c));
    });
    if (log) {
      timed(log, "ledger.make_state", root.id(), l["ledger.make_state_s"],
            [&] { (void)w->make_state(kRippleCapacityScale); });
    }
    FlashOptions opts;
    opts.mice_quantile = mice_quantile;
    TimedRouter router(make_router(Scheme::kFlash, *w, opts, seed), *w,
                       opts.k_elephant_paths, opts.optimize_fees, log);
    VectorWorkloadStream trace(w->transactions());
    TimedStream stream(trace, log);
    SimConfig sim;
    sim.capacity_scale = kRippleCapacityScale;
    const std::size_t n = w->transactions().size();

    std::uint64_t digest = 0;
    double delivered = 0;
    std::size_t successes = 0;
    const SimObserver observe = [&](std::size_t i, const Transaction& tx,
                                    const RouteResult& r) {
      fold(digest, r.success);
      fold(digest, bits(r.delivered));
      fold(digest, bits(r.fee));
      fold(digest, r.probe_messages);
      fold(digest, r.probes);
      fold(digest, r.paths_used);
      fold(digest, r.elephant);
      if (r.delivered != (r.success ? tx.amount : 0.0) || r.fee < 0) {
        run.violations.push_back("payment " + std::to_string(i) +
                                 ": inconsistent RouteResult");
      }
      successes += r.success ? 1 : 0;
      delivered += r.delivered;
      if (((i + 1) % sim.invariant_stride == 0 || i + 1 == n) &&
          !router.funds_conserved()) {
        run.violations.push_back("funds not conserved after payment " +
                                 std::to_string(i));
      }
    };
    SimResult result;
    {
      const Scope sim_run(log, "sim.run", root.id());
      router.set_parent(sim_run.id());
      stream.set_parent(sim_run.id());
      const Clock::time_point t0 = Clock::now();
      try {
        result = run_simulation(*w, stream, router, sim, observe);
      } catch (const std::logic_error& e) {  // ledger invariant broken
        run.violations.push_back(e.what());
      }
      l["sim.run_s"] += seconds_between(t0, Clock::now());
      l["sim.engine_setup_s"] += seconds_between(t0, router.first_route());
    }
    if (result.transactions != n || result.successes != successes ||
        std::abs(result.volume_succeeded - delivered) >
            1e-9 * std::max(1.0, delivered)) {
      run.violations.push_back("SimResult disagrees with the routed payments");
    }
    run.setup_s = seconds_between(start, router.first_route());
    run.payments = router.payment_us().size();
    run.digest = digest;
    run.totals = totals_of(result, 0);
    run.payment_us = std::move(router.payment_us());
    router.report(l);
    stream.report(l);
    l["ledger.probe_msgs"] += static_cast<double>(result.probe_messages);
  }
  run.wall_s = seconds_between(start, Clock::now());
  return run;
}

/// lightning-dynamic: a streamed Lightning-density snapshot through the
/// scenario engine with the shortest-path scheme, churn, gossip delay,
/// retries, HTLC hop latency and a bounded sender-router cache. Router
/// maintenance stays at the library default.
constexpr std::size_t kLightningNodes = 2000;
constexpr std::size_t kLightningPayments = 5000;
/// Capacity multiplier over bench_scale's snapshot model, under which
/// shortest-path success is about 9 %; x100 puts it near 35 %.
constexpr double kLightningCapacityScale = 100.0;
constexpr Amount kLightningClassThreshold = 8.9e7;
/// The snapshots and the churn, gossip and HTLC randomness are fixed, as a
/// crawled snapshot would be; --seed varies the payment streams. With the
/// churn schedule drawn from the seed too, the gossip message count swung
/// by a third between seeds.
constexpr std::uint64_t kLightningSnapshotSeed = 0x5a17;
constexpr std::uint64_t kLightningDynamicsSeed = 7;

/// bench_scale's snapshot model: degree-weighted lognormal capacities
/// around 500k satoshi, split evenly, with a 0.1 % proportional fee.
LightningSnapshot lightning_snapshot(const Graph& g, Rng& rng) {
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

ScenarioConfig lightning_scenario() {
  const double payments = static_cast<double>(kLightningPayments);
  ScenarioConfig s;
  s.churn.close_rate = 16.0 / payments;
  s.churn.mean_downtime = payments / 10.0;
  s.gossip.hop_delay = 3;
  s.retry.max_retries = 2;
  s.retry.delay = 1;
  s.htlc.hop_latency = 2;
  s.max_sender_routers = 16;
  return s;
}

CaseRun run_lightning(std::size_t index, std::uint64_t seed, SpanLog* log) {
  CaseRun run;
  Layers& l = run.layers;
  const Clock::time_point start = Clock::now();
  {
    const Scope root(log, "bench.case", -1);
    Rng rng(case_seed(kLightningSnapshotSeed, index));
    std::optional<Graph> topology;
    timed(log, "graph.topology", root.id(), l["graph.topology_s"],
          [&] { topology.emplace(scale_free_lightning(kLightningNodes, rng)); });
    std::optional<Workload> w;
    std::optional<GeneratedWorkloadStream> generated;
    timed(log, "trace.build", root.id(), l["trace.build_s"], [&] {
      w.emplace(make_snapshot_workload(lightning_snapshot(*topology, rng),
                                       "lightning-dynamic"));
      GeneratedStreamConfig c;
      c.count = kLightningPayments;
      c.sizes = SizeDistribution::bitcoin();
      c.pair_config = PairGenConfig::daily();
      generated.emplace(w->graph(), seed, c);
    });
    topology.reset();
    if (log) {
      timed(log, "ledger.make_state", root.id(), l["ledger.make_state_s"],
            [&] { (void)w->make_state(kLightningCapacityScale); });
    }
    TimedStream stream(*generated, log);
    FlashOptions opts;
    opts.elephant_threshold = kLightningClassThreshold;
    SimConfig sim;
    sim.capacity_scale = kLightningCapacityScale;
    sim.class_threshold = kLightningClassThreshold;
    std::optional<ScenarioEngine> engine;
    timed(log, "sim.engine_setup", root.id(), l["sim.engine_setup_s"], [&] {
      engine.emplace(*w, stream, Scheme::kShortestPath, opts, sim,
                     lightning_scenario(), kLightningDynamicsSeed);
    });
    ScenarioResult r;
    {
      const Scope sim_run(log, "sim.run", root.id());
      stream.set_parent(sim_run.id());
      const Clock::time_point t0 = Clock::now();
      try {
        r = engine->run();
      } catch (const std::logic_error& e) {  // ledger invariant broken
        run.violations.push_back(e.what());
      }
      l["sim.run_s"] += seconds_between(t0, Clock::now());
    }
    if (r.sim.transactions != kLightningPayments ||
        r.sim.successes > r.sim.transactions ||
        r.sim.volume_succeeded > r.sim.volume_attempted) {
      run.violations.push_back("ScenarioResult counters are inconsistent");
    }
    run.setup_s = seconds_between(start, stream.first_pull());
    run.payments = stream.calls();  // arrivals pulled by the engine
    run.digest = r.payment_digest;
    run.totals = totals_of(r.sim, r.gossip_messages);
    run.payment_us = std::move(stream.gaps_us());
    stream.report(l);
    const auto count = [](auto v) { return static_cast<double>(v); };
    l["ledger.probe_msgs"] += count(r.sim.probe_messages);
    l["sim.router_rebuilds"] += count(r.router_rebuilds);
    l["sim.router_patches"] += count(r.router_patches);
    l["sim.entries_invalidated"] += count(r.entries_invalidated);
    l["sim.sender_cache_hits"] += count(r.router_cache_hits);
    l["sim.sender_cache_lookups"] +=
        count(r.router_cache_hits + r.router_cache_misses);
    l["sim.sender_cache_evictions"] += count(r.router_cache_evictions);
    l["sim.retries"] += count(r.sim.retries);
    l["sim.stale_view_failures"] += count(r.sim.stale_view_failures);
    l["sim.htlc_payments"] += count(r.htlc_payments);
    l["sim.htlc_inflight_failures"] += count(r.htlc_inflight_failures);
    l["sim.htlc_max_inflight"] += count(r.htlc_max_inflight);
    l["gossip.messages"] += count(r.gossip_messages);
    l["gossip.rounds"] += count(r.gossip_rounds);
  }
  run.wall_s = seconds_between(start, Clock::now());
  return run;
}

/// A workload: how many independent cases one pass runs, and one case.
struct WorkloadSpec {
  const char* name;
  std::size_t cases;
  /// Runs case `index` from its seed (derived from --seed and the index).
  CaseRun (*run_case)(std::size_t index, std::uint64_t seed, SpanLog* log);
};

constexpr WorkloadSpec kWorkloads[] = {
    {"flash-mice", 6,
     [](std::size_t, std::uint64_t seed, SpanLog* log) {
       return run_flash(0.9, seed, log);
     }},
    {"flash-elephant", 6,
     [](std::size_t, std::uint64_t seed, SpanLog* log) {
       return run_flash(0.0, seed, log);
     }},
    {"lightning-dynamic", 3, run_lightning},
};

// ---------------------------------------------------------------------------
// Command line and the pass loop.

struct Args {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench/traces";
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "error: %s\nusage: flash_perfbench --workload "
               "flash-mice|flash-elephant|lightning-dynamic --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) a.workload = &w;
      }
      if (!a.workload) usage("unknown workload " + value);
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end || value[0] == '-') {
        usage("--seed takes an unsigned integer");
      }
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end || !(a.seconds > 0) || a.seconds > 3600) {
        usage("--seconds takes a number in (0, 3600]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (!a.workload) usage("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank ? rank - 1 : 0);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Every case of the workload run once, in case order.
struct Pass {
  bool traced = false;
  std::vector<CaseRun> cases;
  Layers layers;

  double wall_s() const {
    double s = 0;
    for (const CaseRun& c : cases) s += c.wall_s;
    return s;
  }
  double throughput_pps() const {
    double payments = 0;
    for (const CaseRun& c : cases) payments += static_cast<double>(c.payments);
    return payments / wall_s();
  }
};

Pass run_pass(const Args& args, SpanLog* log) {
  Pass pass;
  pass.traced = log != nullptr;
  for (std::size_t i = 0; i < args.workload->cases; ++i) {
    CaseRun run;
    try {
      run = args.workload->run_case(i, case_seed(args.seed, i), log);
    } catch (const std::exception& e) {
      run.violations.push_back(std::string("case threw: ") + e.what());
    }
    add_layers(pass.layers, run.layers);
    pass.cases.push_back(std::move(run));
  }
  if (log) {
    for (const auto& [layer, self] : log->self_seconds_by_layer()) {
      pass.layers[layer + ".self_s"] = self;
    }
  }
  derive_ratios(pass.layers);
  return pass;
}

int run(const Args& args) {
  std::printf("# env: nproc=%u compiler=\"%s\" build_type=%s\n",
              std::thread::hardware_concurrency(), compiler(),
              FLASH_PERFBENCH_BUILD_TYPE);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d cases=%zu\n",
              args.workload->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.workload->cases);
  std::fflush(stdout);

  // Passes while the next one fits the time budget, at least two: with
  // tracing the passes alternate untraced / traced, so tracing must not
  // change results.
  std::vector<Pass> passes;
  std::vector<std::string> violations;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  SpanLog last_spans;
  const Clock::time_point begin = Clock::now();
  while (passes.size() < 2 ||
         seconds_between(begin, Clock::now()) + passes.back().wall_s() <=
             args.seconds) {
    SpanLog spans;
    const bool traced = args.trace && passes.size() % 2 == 1;
    Pass pass = run_pass(args, traced ? &spans : nullptr);
    for (std::size_t i = 0; i < pass.cases.size(); ++i) {
      CaseRun& c = pass.cases[i];
      if (!passes.empty()) {
        const CaseRun& ref = passes.front().cases[i];
        if (c.digest != ref.digest || !(c.totals == ref.totals)) {
          c.violations.push_back("case " + std::to_string(i) +
                                 " differs from its first run");
        }
      }
      attempted += c.payments;
      if (!c.violations.empty()) {
        failed += c.payments;
        violations.insert(violations.end(), c.violations.begin(),
                          c.violations.end());
      }
    }
    if (traced) last_spans = std::move(spans);
    passes.push_back(std::move(pass));
    if (!violations.empty()) break;
  }

  std::uint64_t digest = 0;
  Totals t;
  for (const CaseRun& c : passes.front().cases) {
    fold(digest, c.digest);
    t += c.totals;
  }
  std::printf("# result_digest=%016llx passes=%zu payments/pass=%.0f\n",
              static_cast<unsigned long long>(digest), passes.size(),
              t.transactions);

  std::map<std::string, double> out;
  const auto median_over = [&](bool traced, auto f) {
    std::vector<double> v;
    for (const Pass& p : passes) {
      if (p.traced == traced) v.push_back(f(p));
    }
    return median(v);
  };
  if (!args.trace) {
    std::vector<double> setup;
    std::vector<double> samples;
    for (const Pass& p : passes) {
      for (const CaseRun& c : p.cases) {
        setup.push_back(c.setup_s);
        samples.insert(samples.end(), c.payment_us.begin(),
                       c.payment_us.end());
      }
    }
    out["setup_s"] = median(setup);
    out["throughput_pps"] =
        median_over(false, [](const Pass& p) { return p.throughput_pps(); });
    out["payment_p50_us"] = percentile(samples, 50);
    out["payment_p99_us"] = percentile(samples, 99);
    out["peak_rss_mib"] = peak_rss_mib();
    out["success_ratio"] = ratio(t.successes, t.transactions);
    out["msgs_per_payment"] = ratio(t.messages, t.transactions);
    out["fee_ratio"] = ratio(t.fees, t.volume_succeeded);
    std::printf("# payment latency samples=%zu setup samples=%zu\n",
                samples.size(), setup.size());
    std::printf("# success_volume_ratio=%.6f\n",
                ratio(t.volume_succeeded, t.volume_attempted));
  } else {
    for (const MetricDef& m : kLayerMetrics) {
      out[m.name] = median_over(true, [&](const Pass& p) {
        const auto it = p.layers.find(m.name);
        return it == p.layers.end() ? 0.0 : it->second;
      });
    }
    out["bench.tracing_overhead"] =
        1.0 -
        median_over(true, [](const Pass& p) { return p.throughput_pps(); }) /
            median_over(false, [](const Pass& p) { return p.throughput_pps(); });

    // The per-layer numbers must agree with each other.
    if (out["routing.mice.calls"] + out["routing.elephant.calls"] !=
        out["routing.route_calls"]) {
      violations.push_back("mice + elephant calls != route calls");
    }
    const double wall =
        median_over(true, [](const Pass& p) { return p.wall_s(); });
    for (const MetricDef& m : kLayerMetrics) {
      if (std::strcmp(m.unit, "s") == 0 && out[m.name] > wall) {
        violations.push_back(std::string(m.name) +
                             " exceeds the pass's wall time");
      }
    }

    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/" + args.workload->name +
                             "-seed" + std::to_string(args.seed) +
                             ".spans.jsonl";
    std::ofstream f(path);
    last_spans.write_jsonl(f);
    f.close();
    if (f) {
      std::printf("# spans of the last traced pass: %s (%zu spans)\n",
                  path.c_str(), last_spans.size());
    } else {
      std::fprintf(stderr, "warning: cannot write spans to %s\n",
                   path.c_str());
    }
  }

  const std::span<const MetricDef> defs =
      args.trace ? std::span<const MetricDef>(kLayerMetrics)
                 : std::span<const MetricDef>(kEndToEndMetrics);
  for (const MetricDef& m : defs) {
    std::printf("%-40s %18.6f %s\n", m.name, out.at(m.name), m.unit);
  }
  for (const std::string& v : violations) {
    std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  }

  const bool correct = violations.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + std::string(defs[i].name) + "\": {\"value\": " +
            json_number(out.at(defs[i].name)) + ", \"unit\": \"" +
            defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(parse_args(argc, argv)); }

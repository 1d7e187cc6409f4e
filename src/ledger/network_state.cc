#include "ledger/network_state.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace flash {

namespace {
constexpr Amount kEps = 1e-6;
}

NetworkState::NetworkState(const Graph& g)
    : graph_(&g),
      balance_(g.num_edges(), 0),
      deposit_(g.num_channels(), 0) {}

void NetworkState::set_balance(EdgeId e, Amount amount) {
  if (amount < 0) throw std::invalid_argument("negative balance");
  balance_.at(e) = amount;
  rebase_deposit(graph_->channel_of(e));
}

void NetworkState::assign_balances(std::span<const Amount> balances) {
  if (balances.size() != balance_.size()) {
    throw std::invalid_argument("assign_balances: edge count mismatch");
  }
  if (active_holds_ != 0) {
    throw std::logic_error("assign_balances with holds in flight");
  }
  for (const Amount b : balances) {
    if (b < 0) throw std::invalid_argument("assign_balances: negative balance");
  }
  std::copy(balances.begin(), balances.end(), balance_.begin());
  recompute_deposits();
}

void NetworkState::mirror_balance(EdgeId e, Amount amount) {
  if (amount < 0) throw std::invalid_argument("mirror_balance: negative");
  assert(e < balance_.size());
  balance_[e] = amount;
}

void NetworkState::assign_uniform_split(Amount lo, Amount hi, Rng& rng) {
  for (std::size_t c = 0; c < graph_->num_channels(); ++c) {
    const Amount cap = rng.uniform(lo, hi);
    const EdgeId fwd = graph_->channel_forward_edge(c);
    balance_[fwd] = cap / 2;
    balance_[graph_->reverse(fwd)] = cap / 2;
  }
  recompute_deposits();
}

void NetworkState::assign_uniform_skewed(Amount lo, Amount hi, double skew_lo,
                                         double skew_hi, Rng& rng) {
  if (skew_lo < 0 || skew_hi > 1 || skew_lo > skew_hi) {
    throw std::invalid_argument("assign_uniform_skewed: bad skew range");
  }
  for (std::size_t c = 0; c < graph_->num_channels(); ++c) {
    const Amount cap = rng.uniform(lo, hi);
    const double f = rng.uniform(skew_lo, skew_hi);
    const EdgeId fwd = graph_->channel_forward_edge(c);
    balance_[fwd] = cap * f;
    balance_[graph_->reverse(fwd)] = cap * (1 - f);
  }
  recompute_deposits();
}

void NetworkState::assign_lognormal_split(Amount median, double sigma,
                                          Rng& rng) {
  if (median <= 0) throw std::invalid_argument("median must be positive");
  const double mu = std::log(median);
  for (std::size_t c = 0; c < graph_->num_channels(); ++c) {
    const Amount cap = rng.lognormal(mu, sigma);
    const EdgeId fwd = graph_->channel_forward_edge(c);
    balance_[fwd] = cap / 2;
    balance_[graph_->reverse(fwd)] = cap / 2;
  }
  recompute_deposits();
}

void NetworkState::assign_lognormal_degree_weighted(Amount median,
                                                    double sigma, Rng& rng) {
  if (median <= 0) throw std::invalid_argument("median must be positive");
  double avg_degree = 0;
  for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
    avg_degree += static_cast<double>(graph_->out_degree(v));
  }
  avg_degree /= std::max<double>(1.0, static_cast<double>(graph_->num_nodes()));
  const double mu = std::log(median);
  for (std::size_t c = 0; c < graph_->num_channels(); ++c) {
    const EdgeId fwd = graph_->channel_forward_edge(c);
    const double du = static_cast<double>(graph_->out_degree(graph_->from(fwd)));
    const double dv = static_cast<double>(graph_->out_degree(graph_->to(fwd)));
    const double weight = std::sqrt(du * dv) / std::max(avg_degree, 1.0);
    const Amount cap = rng.lognormal(mu, sigma) * weight;
    balance_[fwd] = cap / 2;
    balance_[graph_->reverse(fwd)] = cap / 2;
  }
  recompute_deposits();
}

void NetworkState::scale_all(double factor) {
  if (factor <= 0) throw std::invalid_argument("scale factor must be > 0");
  if (active_holds_ != 0) {
    throw std::logic_error("scale_all with holds in flight");
  }
  for (auto& b : balance_) b *= factor;
  recompute_deposits();
}

Amount NetworkState::channel_deposit(EdgeId e) const {
  assert(graph_->channel_of(e) < deposit_.size());
  return deposit_[graph_->channel_of(e)];
}

Amount NetworkState::total_balance() const {
  Amount total = 0;
  for (Amount b : balance_) total += b;
  return total;
}

Amount NetworkState::total_held() const {
  Amount total = 0;
  for (const auto& h : holds_) {
    if (!h.active) continue;
    for (const auto& [e, amt] : h.parts) total += amt;
  }
  return total;
}

Amount NetworkState::path_bottleneck(const Path& path) const {
  if (path.empty()) return 0;
  Amount bn = balance(path.front());
  for (EdgeId e : path) bn = std::min(bn, balance(e));
  return bn;
}

bool NetworkState::path_can_carry(const Path& path, Amount amount) const {
  for (EdgeId e : path) {
    if (balance(e) + kEps < amount) return false;
  }
  return true;
}

std::vector<Amount> NetworkState::probe_path(const Path& path) {
  std::vector<Amount> out;
  probe_path_into(path, out);
  return out;
}

void NetworkState::probe_path_into(const Path& path,
                                   std::vector<Amount>& out) {
  probe_messages_ += 2 * path.size();  // PROBE forward + PROBE_ACK back
  out.clear();
  out.reserve(path.size());
  for (EdgeId e : path) out.push_back(balance(e));
}

std::optional<HoldId> NetworkState::hold(const Path& path, Amount amount) {
  if (amount <= 0 || path.empty()) {
    throw std::invalid_argument("hold: need positive amount, non-empty path");
  }
  // Stage the parts in PATH order: the HTLC engine reads hold_parts() as
  // the hop sequence. Duplicate edges of a non-simple path aggregate onto
  // their first occurrence (paths are simple in practice, so the inner
  // scan is a no-op).
  hold_scratch_.clear();
  for (EdgeId e : path) {
    bool merged = false;
    for (auto& [se, samt] : hold_scratch_) {
      if (se == e) {
        samt += amount;
        merged = true;
        break;
      }
    }
    if (!merged) hold_scratch_.emplace_back(e, amount);
  }
  return place_hold();
}

std::optional<HoldId> NetworkState::hold_flow(
    std::span<const EdgeAmount> edge_amounts) {
  // Working copy in reused scratch; aggregate duplicates so the
  // feasibility check is exact.
  hold_scratch_.assign(edge_amounts.begin(), edge_amounts.end());
  std::erase_if(hold_scratch_,
                [](const EdgeAmount& ea) { return ea.second <= 0; });
  if (hold_scratch_.empty()) return std::nullopt;
  std::sort(hold_scratch_.begin(), hold_scratch_.end());
  std::size_t w = 0;
  for (std::size_t i = 0; i < hold_scratch_.size(); ++i) {
    if (w > 0 && hold_scratch_[w - 1].first == hold_scratch_[i].first) {
      hold_scratch_[w - 1].second += hold_scratch_[i].second;
    } else {
      hold_scratch_[w++] = hold_scratch_[i];
    }
  }
  hold_scratch_.resize(w);
  return place_hold();
}

std::uint64_t NetworkState::acquire_slot() {
  // Recycle a retired slot when one exists, so holds_ stays bounded by the
  // maximum number of concurrently active holds and steady-state holding
  // allocates nothing (the record keeps its parts capacity). The slot's
  // generation rides in the id's upper bits so a stale id can never
  // silently settle a later payment's hold.
  std::uint64_t slot;
  if (!free_hold_slots_.empty()) {
    slot = free_hold_slots_.back();
    free_hold_slots_.pop_back();
  } else {
    slot = static_cast<std::uint64_t>(holds_.size());
    holds_.emplace_back();
  }
  HoldRecord& h = holds_[slot];
  ++h.generation;
  h.parts.clear();
  h.settled = 0;
  h.expiry = std::numeric_limits<double>::infinity();
  h.settling = false;
  return slot;
}

std::optional<HoldId> NetworkState::place_hold() {
  // Feasibility first: a failed hold changes nothing and consumes no slot.
  for (const auto& [e, amt] : hold_scratch_) {
    if (e >= graph_->num_edges()) {
      throw std::out_of_range("hold: bad edge id");
    }
    if (balance_[e] + kEps < amt) return std::nullopt;
  }
  const std::uint64_t slot = acquire_slot();
  HoldRecord& h = holds_[slot];
  h.parts.assign(hold_scratch_.begin(), hold_scratch_.end());
  for (const auto& [e, amt] : h.parts) {
    log_write(e);
    balance_[e] = std::max<Amount>(0, balance_[e] - amt);
  }
  h.active = true;
  ++active_holds_;
  return (static_cast<HoldId>(h.generation) << 32) | slot;
}

HoldId NetworkState::open_hold() {
  const std::uint64_t slot = acquire_slot();
  HoldRecord& h = holds_[slot];
  h.active = true;
  ++active_holds_;
  return (static_cast<HoldId>(h.generation) << 32) | slot;
}

bool NetworkState::extend_hold(HoldId id, EdgeId e, Amount amount) {
  if (amount <= 0) {
    throw std::invalid_argument("extend_hold: need positive amount");
  }
  HoldRecord& h = checked_active_record(id);
  if (e >= graph_->num_edges()) {
    throw std::out_of_range("extend_hold: bad edge id");
  }
  if (balance_[e] + kEps < amount) return false;
  log_write(e);
  balance_[e] = std::max<Amount>(0, balance_[e] - amount);
  h.parts.emplace_back(e, amount);
  return true;
}

std::span<const EdgeAmount> NetworkState::hold_parts(HoldId id) {
  return checked_active_record(id).parts;
}

void NetworkState::retire_if_settled(HoldRecord& h, std::uint64_t slot) {
  if (h.settled < h.parts.size()) return;
  h.active = false;
  --active_holds_;
  free_hold_slots_.push_back(slot);
}

void NetworkState::commit_hop(HoldId id, std::size_t hop) {
  HoldRecord& h = checked_active_record(id);
  if (hop >= h.parts.size()) {
    throw std::out_of_range("commit_hop: bad hop index");
  }
  auto& [e, amt] = h.parts[hop];
  if (amt <= 0) throw std::logic_error("commit_hop: hop already settled");
  const EdgeId rev = graph_->reverse(e);
  log_write(rev);
  balance_[rev] += amt;
  amt = 0;
  ++h.settled;
  retire_if_settled(h, id & 0xffffffffull);
}

void NetworkState::abort_hop(HoldId id, std::size_t hop) {
  HoldRecord& h = checked_active_record(id);
  if (hop >= h.parts.size()) {
    throw std::out_of_range("abort_hop: bad hop index");
  }
  auto& [e, amt] = h.parts[hop];
  if (amt <= 0) throw std::logic_error("abort_hop: hop already settled");
  log_write(e);
  balance_[e] += amt;
  amt = 0;
  ++h.settled;
  retire_if_settled(h, id & 0xffffffffull);
}

void NetworkState::set_hold_expiry(HoldId id, double expiry) {
  checked_active_record(id).expiry = expiry;
}

double NetworkState::hold_expiry(HoldId id) {
  return checked_active_record(id).expiry;
}

void NetworkState::mark_hold_settling(HoldId id) {
  checked_active_record(id).settling = true;
}

bool NetworkState::hold_settling(HoldId id) {
  return checked_active_record(id).settling;
}

bool NetworkState::hold_active(HoldId id) const noexcept {
  const std::uint64_t slot = id & 0xffffffffull;
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  return slot < holds_.size() && holds_[slot].generation == generation &&
         holds_[slot].active;
}

NetworkState::CloseResolution NetworkState::resolve_holds_on_close(
    std::size_t channel) {
  if (channel >= deposit_.size()) {
    throw std::out_of_range("resolve_holds_on_close: bad channel");
  }
  CloseResolution res;
  const EdgeId fe = graph_->channel_forward_edge(channel);
  const EdgeId be = graph_->reverse(fe);
  for (std::uint64_t slot = 0; slot < holds_.size(); ++slot) {
    HoldRecord& h = holds_[slot];
    if (!h.active) continue;
    bool touched = false;
    for (auto& [e, amt] : h.parts) {
      if (amt <= 0 || (e != fe && e != be)) continue;
      touched = true;
      if (h.settling) {
        // The preimage is public: the downstream party claims the HTLC
        // output on-chain — the same reverse-direction credit commit_hop
        // would have made.
        const EdgeId rev = graph_->reverse(e);
        log_write(rev);
        balance_[rev] += amt;
        res.settled_amount += amt;
        ++res.settled_hops;
      } else {
        // No preimage: the HTLC output times out back to the sender side.
        log_write(e);
        balance_[e] += amt;
        res.refunded_amount += amt;
        ++res.refunded_hops;
      }
      amt = 0;
      ++h.settled;
    }
    // Only holds this close actually resolved may retire here: an untouched
    // hold with zero parts (open_hold before any extend) must stay active —
    // its owner still holds the id and will commit or abort it.
    if (touched) retire_if_settled(h, slot);
  }
  return res;
}

void NetworkState::set_channel_balance(std::size_t channel, Amount fwd,
                                       Amount bwd) {
  if (channel >= deposit_.size()) {
    throw std::out_of_range("set_channel_balance: bad channel");
  }
  if (fwd < 0 || bwd < 0) {
    throw std::invalid_argument("set_channel_balance: negative balance");
  }
  const EdgeId fe = graph_->channel_forward_edge(channel);
  const EdgeId be = graph_->reverse(fe);
  for (const auto& h : holds_) {
    if (!h.active) continue;
    for (const auto& [e, amt] : h.parts) {
      if (amt > 0 && (e == fe || e == be)) {
        throw std::logic_error(
            "set_channel_balance: channel carries in-flight holds - call "
            "resolve_holds_on_close first");
      }
    }
  }
  balance_[fe] = fwd;
  balance_[be] = bwd;
  deposit_[channel] = fwd + bwd;
}

void NetworkState::held_channels(std::vector<char>& out) const {
  out.assign(deposit_.size(), 0);
  for (const auto& h : holds_) {
    if (!h.active) continue;
    for (const auto& [e, amt] : h.parts) {
      if (amt > 0) out[graph_->channel_of(e)] = 1;
    }
  }
}

NetworkState::HoldRecord& NetworkState::checked_active_record(HoldId id) {
  const std::uint64_t slot = id & 0xffffffffull;
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= holds_.size() || holds_[slot].generation != generation ||
      !holds_[slot].active) {
    throw std::logic_error("hold id not active (settled, stale or foreign)");
  }
  return holds_[slot];
}

void NetworkState::commit(HoldId id) {
  if (defer_commits_) {
    (void)checked_active_record(id);  // validate now, settle later
    deferred_commits_.push_back(id);
    return;
  }
  HoldRecord& h = checked_active_record(id);
  for (const auto& [e, amt] : h.parts) {
    if (amt <= 0) continue;  // already settled hop-wise
    const EdgeId rev = graph_->reverse(e);
    log_write(rev);
    balance_[rev] += amt;
  }
  h.active = false;
  --active_holds_;
  free_hold_slots_.push_back(id & 0xffffffffull);
}

void NetworkState::abort(HoldId id) {
  HoldRecord& h = checked_active_record(id);
  for (const auto& [e, amt] : h.parts) {
    if (amt <= 0) continue;  // already settled hop-wise
    log_write(e);
    balance_[e] += amt;
  }
  h.active = false;
  --active_holds_;
  free_hold_slots_.push_back(id & 0xffffffffull);
}

bool NetworkState::check_invariants(std::size_t* bad_channel) const {
  // held[e] = sum of active hold amounts on e.
  std::vector<Amount> held(graph_->num_edges(), 0);
  for (const auto& h : holds_) {
    if (!h.active) continue;
    for (const auto& [e, amt] : h.parts) held[e] += amt;
  }
  for (std::size_t c = 0; c < graph_->num_channels(); ++c) {
    const EdgeId fwd = graph_->channel_forward_edge(c);
    const EdgeId bwd = graph_->reverse(fwd);
    const Amount sum = balance_[fwd] + balance_[bwd] + held[fwd] + held[bwd];
    const Amount tolerance =
        1e-4 * std::max<Amount>(1, std::abs(deposit_[c]));
    if (std::abs(sum - deposit_[c]) > tolerance) {
      if (bad_channel) *bad_channel = c;
      return false;
    }
    if (balance_[fwd] < -kEps || balance_[bwd] < -kEps) {
      if (bad_channel) *bad_channel = c;
      return false;
    }
  }
  return true;
}

NetworkState::Snapshot NetworkState::snapshot() const {
  if (active_holds_ != 0) {
    throw std::logic_error("snapshot with holds in flight");
  }
  return Snapshot{balance_};
}

void NetworkState::restore(const Snapshot& s) {
  if (s.balance.size() != balance_.size()) {
    throw std::invalid_argument("snapshot size mismatch");
  }
  if (active_holds_ != 0) {
    throw std::logic_error("restore with holds in flight");
  }
  balance_ = s.balance;
  // No holds are in flight (checked above), so every record is retired and
  // already on the free list; keeping them preserves their parts capacity
  // for the next payments instead of re-allocating after every restore.
  recompute_deposits();
}

void NetworkState::rebase_deposit(std::size_t c) {
  const EdgeId fwd = graph_->channel_forward_edge(c);
  deposit_[c] = balance_[fwd] + balance_[graph_->reverse(fwd)];
}

void NetworkState::recompute_deposits() {
  for (std::size_t c = 0; c < graph_->num_channels(); ++c) rebase_deposit(c);
}

}  // namespace flash

// Tests for the simplex LP solver and the fee-minimization program (1).
//
// The workspace rewrite (LpWorkspace / solve_lp_core, ProbedCapacities /
// optimize_fee_split_core) is pinned here against the pre-rewrite
// implementations, embedded below as `legacy::` oracles:
//  - solve_lp runs the identical pivot sequence for the same constraint
//    order, so status and objective must match the legacy dense solver
//    exactly (cross-checked on random LPs with mixed relations, negative
//    rhs and redundant rows);
//  - the splits are pinned at SOLUTION level on fig-scale probed
//    instances: identical feasibility, total fee within 1e-6, and all
//    program-(1) constraints satisfied — the chosen vertex may differ
//    because the canonical (insertion-order) constraint ordering replaces
//    the legacy unordered_map hash order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <unordered_map>
#include <utility>

#include "graph/topology.h"
#include "lp/fee_min.h"
#include "lp/simplex.h"
#include "routing/flash/elephant.h"
#include "testutil.h"
#include "util/rng.h"

namespace flash {
namespace {

using testing::fwd;
using testing::make_graph;

// --- Simplex -------------------------------------------------------------------

TEST(Simplex, SimpleMinimization) {
  // min x + 2y s.t. x + y >= 4, x <= 3, y <= 5 -> x=3, y=1, obj=5.
  LpProblem lp;
  lp.objective = {1, 2};
  lp.constraints.push_back({{1, 1}, Relation::kGreaterEq, 4});
  lp.constraints.push_back({{1, 0}, Relation::kLessEq, 3});
  lp.constraints.push_back({{0, 1}, Relation::kLessEq, 5});
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 3, 1e-7);
  EXPECT_NEAR(sol.x[1], 1, 1e-7);
  EXPECT_NEAR(sol.objective_value, 5, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // min 3x + y s.t. x + y = 10, x >= 0, y >= 0 -> x=0, y=10.
  LpProblem lp;
  lp.objective = {3, 1};
  lp.constraints.push_back({{1, 1}, Relation::kEq, 10});
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 0, 1e-7);
  EXPECT_NEAR(sol.x[1], 10, 1e-7);
}

TEST(Simplex, InfeasibleDetected) {
  // x <= 1 and x >= 2 simultaneously.
  LpProblem lp;
  lp.objective = {1};
  lp.constraints.push_back({{1}, Relation::kLessEq, 1});
  lp.constraints.push_back({{1}, Relation::kGreaterEq, 2});
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  // min -x with no upper bound on x.
  LpProblem lp;
  lp.objective = {-1};
  lp.constraints.push_back({{1}, Relation::kGreaterEq, 0});
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalized) {
  // x - y <= -2 with min x + y -> y >= x + 2, best x=0 y=2.
  LpProblem lp;
  lp.objective = {1, 1};
  lp.constraints.push_back({{1, -1}, Relation::kLessEq, -2});
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective_value, 2, 1e-7);
}

TEST(Simplex, DegenerateTiesTerminate) {
  // Multiple constraints active at the optimum; Bland's rule must not cycle.
  LpProblem lp;
  lp.objective = {-1, -1};
  lp.constraints.push_back({{1, 0}, Relation::kLessEq, 1});
  lp.constraints.push_back({{1, 0}, Relation::kLessEq, 1});
  lp.constraints.push_back({{0, 1}, Relation::kLessEq, 1});
  lp.constraints.push_back({{1, 1}, Relation::kLessEq, 2});
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective_value, -2, 1e-7);
}

TEST(Simplex, ZeroObjectiveFeasibility) {
  LpProblem lp;
  lp.objective = {0, 0};
  lp.constraints.push_back({{1, 1}, Relation::kEq, 5});
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0] + sol.x[1], 5, 1e-7);
}

TEST(Simplex, RandomProblemsSolutionsFeasible) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    LpProblem lp;
    const std::size_t n = 2 + rng.next_below(4);
    const std::size_t m = 1 + rng.next_below(5);
    lp.objective.resize(n);
    for (auto& c : lp.objective) c = rng.uniform(0.0, 2.0);
    for (std::size_t i = 0; i < m; ++i) {
      LpConstraint con;
      con.coeffs.resize(n);
      for (auto& a : con.coeffs) a = rng.uniform(0.0, 1.0);
      con.rel = Relation::kLessEq;
      con.rhs = rng.uniform(0.5, 5.0);
      lp.constraints.push_back(std::move(con));
    }
    // Nonnegative objective over <= constraints with positive rhs: x = 0 is
    // feasible and optimal (objective 0).
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, LpStatus::kOptimal);
    EXPECT_NEAR(sol.objective_value, 0.0, 1e-7);
  }
}

TEST(Simplex, RandomDemandProblemsRespectConstraints) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + rng.next_below(4);
    LpProblem lp;
    lp.objective.resize(n);
    for (auto& c : lp.objective) c = rng.uniform(0.1, 1.0);
    LpConstraint demand;
    demand.coeffs.assign(n, 1.0);
    demand.rel = Relation::kEq;
    demand.rhs = 1.0;
    lp.constraints.push_back(demand);
    std::vector<double> caps(n);
    double total = 0;
    for (std::size_t j = 0; j < n; ++j) {
      caps[j] = rng.uniform(0.1, 1.0);
      total += caps[j];
      LpConstraint cap;
      cap.coeffs.assign(n, 0.0);
      cap.coeffs[j] = 1.0;
      cap.rel = Relation::kLessEq;
      cap.rhs = caps[j];
      lp.constraints.push_back(std::move(cap));
    }
    const LpSolution sol = solve_lp(lp);
    if (total < 1.0) {
      EXPECT_EQ(sol.status, LpStatus::kInfeasible);
      continue;
    }
    ASSERT_EQ(sol.status, LpStatus::kOptimal);
    double sum = 0;
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_LE(sol.x[j], caps[j] + 1e-7);
      EXPECT_GE(sol.x[j], -1e-9);
      sum += sol.x[j];
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

// --- Fee minimization ------------------------------------------------------------

/// A probed capacity matrix over g's edges holding `caps` in the given
/// (insertion) order.
ProbedCapacities probed(
    const Graph& g,
    std::initializer_list<std::pair<EdgeId, Amount>> caps) {
  ProbedCapacities out;
  out.reset(g.num_edges());
  for (const auto& [e, c] : caps) out.insert(e, c);
  return out;
}

/// Two-path setup: cheap path (rate 0.01/hop) and expensive (0.05/hop).
struct TwoPathFixture {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  FeeSchedule fees{g};
  std::vector<Path> paths;
  ProbedCapacities cap;

  TwoPathFixture() {
    fees.set_policy(fwd(g, 0), {0, 0.01});
    fees.set_policy(fwd(g, 1), {0, 0.01});
    fees.set_policy(fwd(g, 2), {0, 0.05});
    fees.set_policy(fwd(g, 3), {0, 0.05});
    paths = {{fwd(g, 0), fwd(g, 1)}, {fwd(g, 2), fwd(g, 3)}};
    set_capacities(60, 60, 60, 60);
  }

  /// Probes the four forward edges, in channel order, at these capacities.
  void set_capacities(Amount c0, Amount c1, Amount c2, Amount c3) {
    cap = probed(g, {{fwd(g, 0), c0},
                     {fwd(g, 1), c1},
                     {fwd(g, 2), c2},
                     {fwd(g, 3), c3}});
  }
};

TEST(FeeMin, PrefersCheapPath) {
  TwoPathFixture f;
  const SplitResult r = optimize_fee_split(f.g, f.paths, 50, f.cap, f.fees);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.amounts[0], 50, 1e-6);  // everything on the cheap path
  EXPECT_NEAR(r.amounts[1], 0, 1e-6);
  EXPECT_NEAR(r.total_fee, 50 * 0.02, 1e-6);
}

TEST(FeeMin, SpillsToExpensiveWhenCheapIsFull) {
  TwoPathFixture f;
  const SplitResult r = optimize_fee_split(f.g, f.paths, 100, f.cap, f.fees);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.amounts[0], 60, 1e-6);
  EXPECT_NEAR(r.amounts[1], 40, 1e-6);
}

TEST(FeeMin, InfeasibleWhenDemandExceedsCapacity) {
  TwoPathFixture f;
  const SplitResult r = optimize_fee_split(f.g, f.paths, 1000, f.cap, f.fees);
  EXPECT_FALSE(r.feasible);
}

TEST(FeeMin, LpNeverWorseThanSequential) {
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    TwoPathFixture f;
    // Random capacities and rates.
    const Amount c0 = rng.uniform(10.0, 80.0);
    const Amount c1 = rng.uniform(10.0, 80.0);
    const Amount c2 = rng.uniform(10.0, 80.0);
    const Amount c3 = rng.uniform(10.0, 80.0);
    f.set_capacities(c0, c1, c2, c3);
    for (std::size_t ch = 0; ch < f.g.num_channels(); ++ch) {
      const double rate = rng.uniform(0.001, 0.05);
      f.fees.set_policy(fwd(f.g, ch), {0, rate});
    }
    const Amount demand = rng.uniform(5.0, 60.0);
    const SplitResult lp =
        optimize_fee_split(f.g, f.paths, demand, f.cap, f.fees);
    const SplitResult seq =
        sequential_split(f.g, f.paths, demand, f.cap, f.fees);
    if (seq.feasible) {
      ASSERT_TRUE(lp.feasible) << "LP must be feasible when sequential is";
      EXPECT_LE(lp.total_fee, seq.total_fee + 1e-6);
    }
  }
}

TEST(FeeMin, SequentialFillsInDiscoveryOrder) {
  TwoPathFixture f;
  const SplitResult r = sequential_split(f.g, f.paths, 80, f.cap, f.fees);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.amounts[0], 60, 1e-9);  // first path to its bottleneck
  EXPECT_NEAR(r.amounts[1], 20, 1e-9);
}

TEST(FeeMin, SharedEdgeConstraintBindsAcrossPaths) {
  // Both paths share edge 0->1 (the Fig. 5a shape): joint use is capped.
  Graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {1, 3}});
  FeeSchedule fees(g);
  const Path p1{fwd(g, 0), fwd(g, 1), fwd(g, 2)};  // 0-1-2-3
  const Path p2{fwd(g, 0), fwd(g, 3)};             // 0-1-3
  const ProbedCapacities cap = probed(
      g, {{fwd(g, 0), 30}, {fwd(g, 1), 25}, {fwd(g, 2), 25}, {fwd(g, 3), 25}});
  const SplitResult ok = optimize_fee_split(g, {p1, p2}, 30, cap, fees);
  ASSERT_TRUE(ok.feasible);
  EXPECT_NEAR(ok.amounts[0] + ok.amounts[1], 30, 1e-6);
  const SplitResult no = optimize_fee_split(g, {p1, p2}, 31, cap, fees);
  EXPECT_FALSE(no.feasible);  // shared edge caps the joint flow at 30
}

TEST(FeeMin, EmptyPathsInfeasible) {
  Graph g = make_graph(2, {{0, 1}});
  FeeSchedule fees(g);
  const ProbedCapacities none = probed(g, {});
  EXPECT_FALSE(optimize_fee_split(g, {}, 10, none, fees).feasible);
  EXPECT_FALSE(sequential_split(g, {}, 10, none, fees).feasible);
}

TEST(FeeMin, SplitFeeMatchesSchedule) {
  TwoPathFixture f;
  const Amount fee = split_fee(f.fees, f.paths, {10, 20});
  EXPECT_NEAR(fee, 10 * 0.02 + 20 * 0.10, 1e-9);
}

// --- Missing-edge regression -----------------------------------------------------
//
// sequential_split is the LP-degenerate *fallback* inside route_elephant:
// a capacity matrix that does not cover the path set must come back as a
// clean infeasible result, never an exception that aborts a whole sweep.

TEST(FeeMin, SequentialSplitMissingEdgeIsInfeasibleNotThrow) {
  TwoPathFixture f;
  // Second edge of the cheap path unprobed.
  const ProbedCapacities holey = probed(
      f.g, {{fwd(f.g, 0), 60}, {fwd(f.g, 2), 60}, {fwd(f.g, 3), 60}});
  SplitResult r;
  EXPECT_NO_THROW(r = sequential_split(f.g, f.paths, 50, holey, f.fees));
  EXPECT_FALSE(r.feasible);

  ProbedCapacities cap;
  cap.reset(f.g.num_edges());
  cap.insert(fwd(f.g, 0), 60);  // cheap path only partially covered
  SplitWorkspace ws;
  EXPECT_NO_THROW(
      sequential_split_core(f.g, f.paths, 50, cap, f.fees, ws, r));
  EXPECT_FALSE(r.feasible);
}

TEST(FeeMin, SequentialSplitEmptyCapacityMatrixInfeasible) {
  TwoPathFixture f;
  const SplitResult r =
      sequential_split(f.g, f.paths, 50, probed(f.g, {}), f.fees);
  EXPECT_FALSE(r.feasible);
}

// --- Embedded legacy oracles -----------------------------------------------------
//
// The pre-rewrite dense solver and map-based splits, verbatim. They define
// the behavior the workspace rewrite must reproduce (exactly for the
// solver, at solution level for the splits).

namespace legacy {

/// The pre-rewrite capacity-matrix type.
using CapacityMap = std::unordered_map<EdgeId, Amount>;

constexpr double kEps = 1e-9;

class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), a_(rows, std::vector<double>(cols + 1, 0)),
        basis_(rows, 0) {}

  double& at(std::size_t r, std::size_t c) { return a_[r][c]; }
  double& rhs(std::size_t r) { return a_[r][cols_]; }
  std::size_t basis(std::size_t r) const { return basis_[r]; }
  void set_basis(std::size_t r, std::size_t var) { basis_[r] = var; }

  void pivot(std::size_t pr, std::size_t pc, std::vector<double>& z,
             double& z_value) {
    const double p = a_[pr][pc];
    for (double& v : a_[pr]) v /= p;
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      const double factor = a_[r][pc];
      if (std::abs(factor) < kEps) continue;
      for (std::size_t c = 0; c <= cols_; ++c) {
        a_[r][c] -= factor * a_[pr][c];
      }
      a_[r][pc] = 0;
    }
    const double zf = z[pc];
    if (std::abs(zf) > 0) {
      for (std::size_t c = 0; c < cols_; ++c) z[c] -= zf * a_[pr][c];
      z_value -= zf * a_[pr][cols_];
      z[pc] = 0;
    }
    basis_[pr] = pc;
  }

  bool iterate(std::vector<double>& z, double& z_value,
               const std::vector<char>& allowed) {
    while (true) {
      std::size_t entering = cols_;
      for (std::size_t c = 0; c < cols_; ++c) {
        if (allowed[c] && z[c] < -kEps) {
          entering = c;
          break;
        }
      }
      if (entering == cols_) return true;
      std::size_t leaving = rows_;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < rows_; ++r) {
        if (a_[r][entering] > kEps) {
          const double ratio = a_[r][cols_] / a_[r][entering];
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps &&
               (leaving == rows_ || basis_[r] < basis_[leaving]))) {
            best_ratio = ratio;
            leaving = r;
          }
        }
      }
      if (leaving == rows_) return false;
      pivot(leaving, entering, z, z_value);
    }
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::vector<double>> a_;
  std::vector<std::size_t> basis_;
};

LpSolution solve_lp(const LpProblem& problem) {
  const std::size_t n = problem.num_vars();
  const std::size_t m = problem.constraints.size();
  LpSolution solution;

  std::size_t num_slack = 0;
  for (const auto& con : problem.constraints) {
    if (con.rel != Relation::kEq) ++num_slack;
  }

  std::vector<double> sign(m, 1.0);
  std::vector<char> needs_artificial(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const auto& con = problem.constraints[i];
    Relation rel = con.rel;
    double rhs = con.rhs;
    if (rhs < 0) {
      sign[i] = -1.0;
      rhs = -rhs;
      if (rel == Relation::kLessEq) {
        rel = Relation::kGreaterEq;
      } else if (rel == Relation::kGreaterEq) {
        rel = Relation::kLessEq;
      }
    }
    needs_artificial[i] = (rel != Relation::kLessEq) ? 1 : 0;
  }
  std::size_t num_artificial = 0;
  for (std::size_t i = 0; i < m; ++i) num_artificial += needs_artificial[i];

  const std::size_t total = n + num_slack + num_artificial;
  Tableau t(m, total);

  std::size_t slack_col = n;
  std::size_t art_col = n + num_slack;
  std::vector<std::size_t> artificial_cols;
  for (std::size_t i = 0; i < m; ++i) {
    const auto& con = problem.constraints[i];
    for (std::size_t j = 0; j < con.coeffs.size(); ++j) {
      t.at(i, j) = sign[i] * con.coeffs[j];
    }
    t.rhs(i) = sign[i] * con.rhs;

    Relation rel = con.rel;
    if (sign[i] < 0) {
      if (rel == Relation::kLessEq) {
        rel = Relation::kGreaterEq;
      } else if (rel == Relation::kGreaterEq) {
        rel = Relation::kLessEq;
      }
    }
    if (rel == Relation::kLessEq) {
      t.at(i, slack_col) = 1.0;
      t.set_basis(i, slack_col);
      ++slack_col;
    } else if (rel == Relation::kGreaterEq) {
      t.at(i, slack_col) = -1.0;
      ++slack_col;
      t.at(i, art_col) = 1.0;
      t.set_basis(i, art_col);
      artificial_cols.push_back(art_col);
      ++art_col;
    } else {
      t.at(i, art_col) = 1.0;
      t.set_basis(i, art_col);
      artificial_cols.push_back(art_col);
      ++art_col;
    }
  }

  std::vector<char> allowed(total, 1);

  if (num_artificial > 0) {
    std::vector<double> z1(total, 0.0);
    double z1_value = 0.0;
    for (std::size_t c : artificial_cols) z1[c] = 1.0;
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t b = t.basis(r);
      const bool basic_artificial =
          std::find(artificial_cols.begin(), artificial_cols.end(), b) !=
          artificial_cols.end();
      if (basic_artificial) {
        for (std::size_t c = 0; c < total; ++c) z1[c] -= t.at(r, c);
        z1_value -= t.rhs(r);
      }
    }
    if (!t.iterate(z1, z1_value, allowed)) {
      solution.status = LpStatus::kInfeasible;
      return solution;
    }
    if (-z1_value > 1e-7) {
      solution.status = LpStatus::kInfeasible;
      return solution;
    }
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t b = t.basis(r);
      if (std::find(artificial_cols.begin(), artificial_cols.end(), b) ==
          artificial_cols.end()) {
        continue;
      }
      std::size_t pc = total;
      for (std::size_t c = 0; c < n + num_slack; ++c) {
        if (std::abs(t.at(r, c)) > kEps) {
          pc = c;
          break;
        }
      }
      if (pc != total) {
        double dummy = 0.0;
        std::vector<double> zdummy(total, 0.0);
        t.pivot(r, pc, zdummy, dummy);
      }
    }
    for (std::size_t c : artificial_cols) allowed[c] = 0;
  }

  std::vector<double> z2(total, 0.0);
  double z2_value = 0.0;
  for (std::size_t j = 0; j < n; ++j) z2[j] = problem.objective[j];
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t b = t.basis(r);
    if (b < total && std::abs(z2[b]) > 0) {
      const double factor = z2[b];
      for (std::size_t c = 0; c < total; ++c) z2[c] -= factor * t.at(r, c);
      z2_value -= factor * t.rhs(r);
      z2[b] = 0;
    }
  }
  if (!t.iterate(z2, z2_value, allowed)) {
    solution.status = LpStatus::kUnbounded;
    return solution;
  }

  solution.status = LpStatus::kOptimal;
  solution.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t b = t.basis(r);
    if (b < n) solution.x[b] = std::max(0.0, t.rhs(r));
  }
  double direct = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    direct += problem.objective[j] * solution.x[j];
  }
  solution.objective_value = direct;
  return solution;
}

double net_coeff(const Graph& g, const Path& p, EdgeId e) {
  const EdgeId rev = g.reverse(e);
  for (EdgeId pe : p) {
    if (pe == e) return 1.0;
    if (pe == rev) return -1.0;
  }
  return 0.0;
}

SplitResult optimize_fee_split(const Graph& g, const std::vector<Path>& paths,
                               Amount demand, const CapacityMap& cap,
                               const FeeSchedule& fees) {
  SplitResult result;
  if (paths.empty() || demand <= 0) return result;
  const double scale = demand;

  LpProblem lp;
  lp.objective.resize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    lp.objective[i] = fees.path_rate(paths[i]);
  }

  LpConstraint demand_con;
  demand_con.coeffs.assign(paths.size(), 1.0);
  demand_con.rel = Relation::kEq;
  demand_con.rhs = 1.0;
  lp.constraints.push_back(std::move(demand_con));

  for (const auto& [edge, capacity] : cap) {
    LpConstraint con;
    con.coeffs.assign(paths.size(), 0.0);
    bool touched = false;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const double c = net_coeff(g, paths[i], edge);
      con.coeffs[i] = c;
      touched = touched || c != 0.0;
    }
    if (!touched) continue;
    con.rel = Relation::kLessEq;
    con.rhs = capacity / scale;
    lp.constraints.push_back(std::move(con));
  }

  const LpSolution sol = legacy::solve_lp(lp);
  if (sol.status != LpStatus::kOptimal) return result;

  result.feasible = true;
  result.amounts.resize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    result.amounts[i] = sol.x[i] * scale;
  }
  result.total_fee = split_fee(fees, paths, result.amounts);
  return result;
}

SplitResult sequential_split(const Graph& g, const std::vector<Path>& paths,
                             Amount demand, const CapacityMap& cap,
                             const FeeSchedule& fees) {
  SplitResult result;
  if (paths.empty() || demand <= 0) return result;

  CapacityMap residual = cap;
  result.amounts.assign(paths.size(), 0);
  Amount remaining = demand;
  for (std::size_t i = 0; i < paths.size() && remaining > 1e-12; ++i) {
    Amount bottleneck = remaining;
    bool covered = true;
    for (EdgeId e : paths[i]) {
      const auto it = residual.find(e);
      if (it == residual.end()) {
        covered = false;  // legacy threw here; the oracle reports clean
        break;            // infeasibility like the rewrite under test
      }
      bottleneck = std::min(bottleneck, it->second);
    }
    if (!covered) return result;
    if (bottleneck <= 0) continue;
    result.amounts[i] = bottleneck;
    remaining -= bottleneck;
    for (EdgeId e : paths[i]) {
      residual[e] -= bottleneck;
      const auto rit = residual.find(g.reverse(e));
      if (rit != residual.end()) rit->second += bottleneck;
    }
  }
  if (remaining > 1e-9 * std::max<Amount>(1, demand)) {
    return result;
  }
  result.feasible = true;
  result.total_fee = split_fee(fees, paths, result.amounts);
  return result;
}

}  // namespace legacy

// --- Solver equivalence: random LPs vs the legacy dense solver -------------------

LpProblem random_lp(Rng& rng) {
  LpProblem lp;
  const std::size_t n = 1 + rng.next_below(5);
  const std::size_t m = 1 + rng.next_below(6);
  lp.objective.resize(n);
  for (auto& c : lp.objective) c = rng.uniform(-1.0, 2.0);
  for (std::size_t i = 0; i < m; ++i) {
    LpConstraint con;
    con.coeffs.resize(n);
    for (auto& a : con.coeffs) {
      a = rng.chance(0.3) ? 0.0 : rng.uniform(-1.0, 1.0);
    }
    const double pick = rng.uniform(0.0, 1.0);
    con.rel = pick < 0.6 ? Relation::kLessEq
                         : (pick < 0.8 ? Relation::kGreaterEq : Relation::kEq);
    con.rhs = rng.uniform(-2.0, 4.0);
    lp.constraints.push_back(std::move(con));
  }
  if (rng.chance(0.3) && !lp.constraints.empty()) {
    // Redundant duplicate row: exercises the degenerate-artificial
    // drive-out (including the all-zero-row case) in Phase 1.
    lp.constraints.push_back(lp.constraints[rng.next_below(
        lp.constraints.size())]);
  }
  return lp;
}

TEST(SimplexEquivalence, RandomLpsMatchLegacyDenseSolver) {
  Rng rng(1234);
  int optimal = 0, infeasible = 0, unbounded = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const LpProblem lp = random_lp(rng);
    const LpSolution got = solve_lp(lp);
    const LpSolution want = legacy::solve_lp(lp);
    ASSERT_EQ(got.status, want.status) << "trial " << trial;
    switch (got.status) {
      case LpStatus::kOptimal: ++optimal; break;
      case LpStatus::kInfeasible: ++infeasible; break;
      case LpStatus::kUnbounded: ++unbounded; break;
    }
    if (got.status != LpStatus::kOptimal) continue;
    // Identical pivot sequence => identical vertex, not merely equal
    // objective.
    EXPECT_NEAR(got.objective_value, want.objective_value, 1e-9)
        << "trial " << trial;
    ASSERT_EQ(got.x.size(), want.x.size());
    for (std::size_t j = 0; j < got.x.size(); ++j) {
      EXPECT_NEAR(got.x[j], want.x[j], 1e-9) << "trial " << trial;
    }
    // And the solution actually satisfies the problem.
    for (const auto& con : lp.constraints) {
      double lhs = 0;
      for (std::size_t j = 0; j < con.coeffs.size(); ++j) {
        lhs += con.coeffs[j] * got.x[j];
      }
      switch (con.rel) {
        case Relation::kLessEq: EXPECT_LE(lhs, con.rhs + 1e-6); break;
        case Relation::kGreaterEq: EXPECT_GE(lhs, con.rhs - 1e-6); break;
        case Relation::kEq: EXPECT_NEAR(lhs, con.rhs, 1e-6); break;
      }
    }
  }
  // The mix must actually exercise all three outcomes.
  EXPECT_GT(optimal, 50);
  EXPECT_GT(infeasible, 20);
  EXPECT_GT(unbounded, 5);
}

TEST(SimplexEquivalence, WorkspaceReuseMatchesFreshAcrossProblems) {
  // The legacy wrapper reuses one thread_local workspace; interleaving
  // problems of very different shapes must not leak state between solves.
  Rng rng(77);
  std::vector<LpProblem> lps;
  for (int i = 0; i < 12; ++i) lps.push_back(random_lp(rng));
  std::vector<LpSolution> first;
  for (const auto& lp : lps) first.push_back(solve_lp(lp));
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < lps.size(); ++i) {
      const LpSolution again = solve_lp(lps[i]);
      ASSERT_EQ(again.status, first[i].status);
      if (again.status == LpStatus::kOptimal) {
        EXPECT_EQ(again.x, first[i].x) << "solve must be deterministic";
      }
    }
  }
}

// --- Split equivalence on fig-scale probed instances -----------------------------

/// Checks every program-(1) constraint for a claimed split.
void expect_split_satisfies_program1(const Graph& g,
                                     const std::vector<Path>& paths,
                                     Amount demand,
                                     const ProbedCapacities& cap,
                                     const SplitResult& r) {
  ASSERT_EQ(r.amounts.size(), paths.size());
  Amount total = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_GE(r.amounts[i], -1e-6);
    total += r.amounts[i];
  }
  EXPECT_NEAR(total, demand, 1e-6 * std::max<Amount>(1, demand));
  for (const auto& [e, capacity] : cap.entries()) {
    double net = 0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      net += legacy::net_coeff(g, paths[i], e) * r.amounts[i];
    }
    EXPECT_LE(net, capacity + 1e-6 * std::max<Amount>(1, demand))
        << "edge " << e;
  }
}

TEST(SplitEquivalence, FigScaleProbesMatchLegacyAtSolutionLevel) {
  // Probe real elephant instances on the fig06/fig09 Ripple-like topology
  // and pin the rewritten splits against the legacy map-based oracles:
  // identical feasibility and total fee (within 1e-6), all constraints
  // satisfied. The selected vertex may legitimately differ (canonical
  // constraint order vs libstdc++ hash order), which is exactly the
  // portability property this suite documents.
  Rng trng(1);
  const Graph g = ripple_like(trng);
  Rng srng(2);
  NetworkState state(g);
  state.assign_lognormal_split(250, 1.0, srng);
  Rng frng(41);
  const FeeSchedule fees = FeeSchedule::paper_default(g, frng);

  Rng rng(4242);
  int feasible_checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    if (s == t) continue;
    const ElephantProbeResult probe =
        elephant_find_paths(g, s, t, 1e6, 20, state);
    if (probe.paths.empty() || probe.max_flow <= 0) continue;
    const Amount demand = 0.9 * probe.max_flow;

    const legacy::CapacityMap legacy_cap(probe.capacities.begin(),
                                         probe.capacities.end());
    const SplitResult lp_new =
        optimize_fee_split(g, probe.paths, demand, probe.capacities, fees);
    const SplitResult lp_old =
        legacy::optimize_fee_split(g, probe.paths, demand, legacy_cap, fees);
    ASSERT_EQ(lp_new.feasible, lp_old.feasible) << "trial " << trial;
    if (lp_new.feasible) {
      EXPECT_NEAR(lp_new.total_fee, lp_old.total_fee,
                  1e-6 * std::max<Amount>(1, lp_old.total_fee))
          << "trial " << trial;
      expect_split_satisfies_program1(g, probe.paths, demand,
                                      probe.capacities, lp_new);
      ++feasible_checked;
    }

    const SplitResult seq_new =
        sequential_split(g, probe.paths, demand, probe.capacities, fees);
    const SplitResult seq_old =
        legacy::sequential_split(g, probe.paths, demand, legacy_cap, fees);
    ASSERT_EQ(seq_new.feasible, seq_old.feasible) << "trial " << trial;
    if (seq_new.feasible) {
      // The sequential fill is order-deterministic in both versions:
      // bit-identical amounts, not merely equal fees.
      EXPECT_EQ(seq_new.amounts, seq_old.amounts) << "trial " << trial;
      EXPECT_EQ(seq_new.total_fee, seq_old.total_fee) << "trial " << trial;
    }
  }
  EXPECT_GT(feasible_checked, 10) << "fixture must exercise real splits";
}

TEST(SplitEquivalence, CoreAndConvenienceOverloadAgree) {
  // The ProbedCapacities convenience overload and an explicitly-owned
  // workspace must produce identical results (same canonical order).
  TwoPathFixture f;
  const SplitResult a = optimize_fee_split(f.g, f.paths, 100, f.cap, f.fees);
  SplitWorkspace ws;
  SplitResult b;
  optimize_fee_split_core(f.g, f.paths, 100, f.cap, f.fees, ws, b);
  ASSERT_TRUE(a.feasible);
  ASSERT_TRUE(b.feasible);
  EXPECT_EQ(a.amounts, b.amounts);
  EXPECT_EQ(a.total_fee, b.total_fee);
}

TEST(ProbedCapacitiesType, InsertionOrderAndLookup) {
  ProbedCapacities cap;
  cap.reset(8);
  EXPECT_TRUE(cap.empty());
  EXPECT_FALSE(cap.contains(3));
  cap.insert(5, 12.5);
  cap.insert(2, 7.0);
  cap.insert(0, 1.0);
  ASSERT_EQ(cap.size(), 3u);
  EXPECT_TRUE(cap.contains(5));
  EXPECT_FALSE(cap.contains(4));
  EXPECT_FALSE(cap.contains(7));
  EXPECT_DOUBLE_EQ(cap.at(2), 7.0);
  EXPECT_EQ(cap.index_of(0), 2u);
  const std::vector<std::pair<EdgeId, Amount>> want{{5, 12.5}, {2, 7.0},
                                                    {0, 1.0}};
  EXPECT_EQ(cap.entries(), want);
  // O(1) reset forgets everything and is reusable at a new size.
  cap.reset(4);
  EXPECT_TRUE(cap.empty());
  EXPECT_FALSE(cap.contains(5));  // out of the new key range
  EXPECT_FALSE(cap.contains(2));
  cap.insert(1, 3.0);
  EXPECT_EQ(cap.index_of(1), 0u);
}

}  // namespace
}  // namespace flash

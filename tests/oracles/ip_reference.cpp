// Reference Incremental Pruning: the enumerate-and-prune cross-sum backup
// and Lark's LP-domination pruning, the differential references for the
// library's breakpoint-merge backup and hull sweep
// (src/solvers/incremental_pruning.cpp).
#include <algorithm>
#include <cmath>
#include <utility>

#include "oracles.hpp"
#include "tolerance/util/ensure.hpp"

namespace tolerance::oracles {

using pomdp::NodeAction;
using pomdp::NodeState;
using solvers::AlphaVector;

namespace {

constexpr double kPruneEps = 1e-12;

double slope(const AlphaVector& a) { return a.v_compromised - a.v_healthy; }

/// Project the next-stage set through (action, observation), undiscounted:
///   g(s) = sum_{s' in {H,C}} f(s'|s,a) Z(o|s') alpha(s');
/// the crash branch contributes 0.
std::vector<AlphaVector> project(const pomdp::NodeModel& model,
                                 const pomdp::ObservationModel& obs,
                                 const std::vector<AlphaVector>& next,
                                 NodeAction a, int o) {
  const auto f = [&](NodeState from, NodeState to) {
    return model.transition(from, a, to);
  };
  const double z_h = obs.prob(o, false);
  const double z_c = obs.prob(o, true);
  std::vector<AlphaVector> out;
  for (const AlphaVector& alpha : next) {
    out.push_back(
        {f(NodeState::Healthy, NodeState::Healthy) * z_h * alpha.v_healthy +
             f(NodeState::Healthy, NodeState::Compromised) * z_c *
                 alpha.v_compromised,
         f(NodeState::Compromised, NodeState::Healthy) * z_h * alpha.v_healthy +
             f(NodeState::Compromised, NodeState::Compromised) * z_c *
                 alpha.v_compromised,
         a});
  }
  return out;
}

std::vector<AlphaVector> backup(const pomdp::NodeModel& model,
                                const pomdp::ObservationModel& obs,
                                const std::vector<AlphaVector>& next,
                                int max_alpha) {
  std::vector<AlphaVector> out;
  for (const NodeAction a : {NodeAction::Wait, NodeAction::Recover}) {
    std::vector<AlphaVector> acc{{model.cost(NodeState::Healthy, a),
                                  model.cost(NodeState::Compromised, a), a}};
    for (int o = 0; o < obs.num_observations(); ++o) {
      const auto gamma = solvers::prune(project(model, obs, next, a, o),
                                        kPruneEps, max_alpha);
      std::vector<AlphaVector> cross;
      for (const AlphaVector& u : acc) {
        for (const AlphaVector& v : gamma) {
          cross.push_back({u.v_healthy + v.v_healthy,
                           u.v_compromised + v.v_compromised, a});
        }
      }
      acc = solvers::prune(std::move(cross), kPruneEps, max_alpha);
    }
    out.insert(out.end(), acc.begin(), acc.end());
  }
  return solvers::prune(std::move(out), kPruneEps, max_alpha);
}

}  // namespace

std::vector<AlphaVector> prune_lp(std::vector<AlphaVector> alphas,
                                  double eps) {
  if (alphas.size() <= 1) return alphas;
  // The hull sweep's parallel-line dedup (slope descending, lowest intercept
  // first), so ties cannot keep both copies.
  std::sort(alphas.begin(), alphas.end(),
            [](const AlphaVector& x, const AlphaVector& y) {
              if (slope(x) != slope(y)) return slope(x) > slope(y);
              return x.v_healthy < y.v_healthy;
            });
  std::vector<AlphaVector> distinct;
  for (const AlphaVector& a : alphas) {
    if (distinct.empty() ||
        std::fabs(slope(distinct.back()) - slope(a)) > kPruneEps) {
      distinct.push_back(a);
    }
  }
  // Witness LP per candidate i over variables (b, d+, d-):
  //   maximize d   s.t.  b <= 1,  and for every j != i
  //   (s_i - s_j) b + d <= h_j - h_i            (d := d+ - d-)
  // i.e. alpha_i(b) + d <= alpha_j(b).  Keep i iff the optimal witness gap
  // d* exceeds eps: somewhere on [0, 1] the line sits strictly below every
  // other, exactly the sweep's survival criterion (lines touching the
  // envelope at a single point are dropped by both).
  const lp::SimplexSolver solver;
  std::vector<AlphaVector> kept;
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    lp::LinearProgram witness(3);
    witness.objective = {0.0, -1.0, 1.0};
    witness.add_constraint({{0, 1.0}}, lp::Relation::LessEq, 1.0);
    for (std::size_t j = 0; j < distinct.size(); ++j) {
      if (j == i) continue;
      witness.add_constraint(
          {{0, slope(distinct[i]) - slope(distinct[j])}, {1, 1.0}, {2, -1.0}},
          lp::Relation::LessEq,
          distinct[j].v_healthy - distinct[i].v_healthy);
    }
    const auto sol = solver.solve(witness);
    if (sol.status != lp::LpStatus::Optimal || -sol.objective > eps) {
      kept.push_back(distinct[i]);
    }
  }
  return kept;
}

solvers::IncrementalPruning::Result enumerate_prune_cycle(
    const pomdp::NodeModel& model, const pomdp::ObservationModel& obs,
    int delta_r, int max_alpha) {
  TOL_ENSURE(delta_r >= 1, "cycle solve needs DeltaR >= 1");
  solvers::IncrementalPruning::Result result;
  auto& v = result.value_functions;
  v.assign(static_cast<std::size_t>(delta_r), {});
  // Terminal stage: forced recovery, no continuation.
  v.back() = {{model.cost(NodeState::Healthy, NodeAction::Recover),
               model.cost(NodeState::Compromised, NodeAction::Recover),
               NodeAction::Recover}};
  for (int t = delta_r - 2; t >= 0; --t) {
    v[static_cast<std::size_t>(t)] =
        backup(model, obs, v[static_cast<std::size_t>(t + 1)], max_alpha);
    ++result.iterations;
  }
  result.average_cost =
      solvers::envelope_value(v[0], model.params().p_attack) / delta_r;
  return result;
}

}  // namespace tolerance::oracles

// Differential oracles: the textbook solver paths that the library's
// optimized ones replaced, kept only as references for the test suites and
// bench_solver_perf.  They are slow by design and not part of libtolerance.
//
//  * dense_simplex — a dense two-phase tableau simplex.  Exports its optimal
//    basis in the library's shape-stable SimplexBasis encoding, so a dense
//    solve can seed a warm-started SimplexSolver solve.
//  * prune_lp — LP-domination pruning (Lark's algorithm) on SimplexSolver.
//  * enumerate_prune_cycle — the DeltaR-cycle solve of
//    IncrementalPruning::solve_cycle with enumerate-and-prune cross-sums,
//    built only on the public NodeModel / ObservationModel / prune API.
#pragma once

#include <vector>

#include "tolerance/lp/simplex.hpp"
#include "tolerance/pomdp/node_model.hpp"
#include "tolerance/pomdp/observation_model.hpp"
#include "tolerance/solvers/incremental_pruning.hpp"

namespace tolerance::oracles {

/// Dense two-phase tableau simplex (Dantzig pricing, Bland's rule after
/// `bland_stall_threshold` consecutive degenerate pivots).  Always solves
/// from scratch; `eta_nnz` and `warm_start` stay at their defaults.
lp::LpSolution dense_simplex(const lp::LinearProgram& lp,
                             long bland_stall_threshold = 2000);

/// Keep an alpha vector iff a witness LP run against all the others finds a
/// belief where it is strictly (by more than eps) below their envelope.
/// Exact like the hull sweep in solvers::prune(); no bounded-error cap.
std::vector<solvers::AlphaVector> prune_lp(
    std::vector<solvers::AlphaVector> alphas, double eps = 1e-9);

/// IncrementalPruning::solve_cycle with each backup enumerating all |A|*|B|
/// cross-sums and re-pruning them through solvers::prune(.., max_alpha).
solvers::IncrementalPruning::Result enumerate_prune_cycle(
    const pomdp::NodeModel& model, const pomdp::ObservationModel& obs,
    int delta_r, int max_alpha = 64);

}  // namespace tolerance::oracles

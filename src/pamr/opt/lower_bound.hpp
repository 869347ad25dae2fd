// Diagonal-cut lower bound on the dynamic power of any Manhattan routing
// (the device behind the proofs of Theorems 1 and 2).
//
// Every direction-d communication crosses every diagonal cut between its
// source and sink diagonals exactly once, so the cut k of direction d must
// carry K(d,k) = Σ { δ_i : d_i = d, k_src(i) ≤ k < k_snk(i) } in total.
// With a convex dynamic power curve the cheapest conceivable arrangement
// spreads K(d,k) uniformly over the m(k) links of the cut, giving
//     P(d,k) ≥ m(k) · Pdyn(K(d,k) / m(k)).
// Summing cuts within one direction bounds that direction's traffic, and
// (by convexity, as in the proof of Theorem 2) the sum over the four
// directions bounds the whole routing's dynamic power under the
// *continuous* frequency model. Quantization and leakage only increase
// power, so the bound also holds for the discrete model's dynamic part.
//
// The same cuts also give an infeasibility certificate (certify_infeasible
// below): a cut whose traffic exceeds what its links can carry at capacity
// rules out every Manhattan routing before any heuristic runs.
#pragma once

#include "pamr/comm/communication.hpp"
#include "pamr/mesh/diagonal.hpp"
#include "pamr/power/power_model.hpp"

namespace pamr {

struct DiagonalBound {
  double total = 0.0;            ///< Σ over the four directions
  double per_direction[4] = {};  ///< indexed by Quadrant
};

/// K(d,k) for one direction: per-cut traffic totals (size p+q-2, cut k
/// separates diagonals k and k+1).
[[nodiscard]] std::vector<double> direction_cut_traffic(const Mesh& mesh,
                                                        const CommSet& comms,
                                                        Quadrant direction);

/// True only when no Manhattan routing of `comms` (single- or multi-path)
/// keeps every link within the model's feasibility limit
/// (PowerModel::limit(), the limit of PowerModel::feasible). It checks three
/// necessary conditions, each in O(nc·(p+q)), and reports a violation only
/// when PowerModel::proven_overload holds (past kCertificateMargin):
///   1. diagonal cuts: K(d,k) ≤ m(k)·cap for every direction d and cut k;
///   2. row and column cuts: the eastward and the westward traffic across
///      every column boundary ≤ p·cap, the southward and the northward
///      traffic across every row boundary ≤ q·cap;
///   3. forced loads: same-row and same-column communications have a single
///      Manhattan path, and their sum on any link ≤ cap.
/// False means "not proven infeasible", not "feasible". `comms` must pass
/// check_comm_set.
[[nodiscard]] bool certify_infeasible(const Mesh& mesh, const CommSet& comms,
                                      const PowerModel& model);

/// The bound described above. Uses the model's continuous dynamic curve
/// (P0, α, load_unit); p_leak and the frequency table are ignored.
[[nodiscard]] DiagonalBound diagonal_lower_bound(const Mesh& mesh, const CommSet& comms,
                                                 const PowerModel& model);

}  // namespace pamr

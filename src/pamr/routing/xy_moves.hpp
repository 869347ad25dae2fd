// Shared move machinery of the XYI local search (paper §5.4), used by both
// XYImproverRouter implementations — xy_improver.cpp's reference loop and
// xy_improver_incremental.cpp's index-driven loop. Candidate enumeration
// order, the block rotation that realizes a move, and the exact cost delta
// of a rewrite live here once, so the two modes agree bit for bit: same
// preferred-side-first candidate order, same strict-< tie-breaking (first
// candidate wins), same floating-point evaluation order.
//
// Two evaluation paths exist on purpose. The reference one (path_swap_delta
// over a materialized rotate_block) is the seed's literal arithmetic; the
// incremental one (best_candidate) walks only the rotated window and never
// allocates — the rotated run is the old run shifted by one unit step, so
// every changed link and its load term can be produced in the same
// ascending-k order path_swap_delta uses, term for term. The differential
// suite (tests/test_xy_improver.cpp) holds the two equal on every instance,
// which is why the reference must NOT share the windowed shortcut: it is
// the ground truth the shortcut is checked against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
#include <vector>

#include "pamr/mesh/mesh.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/router.hpp"
#include "pamr/util/assert.hpp"

namespace pamr::xyi {

/// Improvement threshold: a move is applied iff delta < -kImproveEps, so
/// zero-delta rewrites never cycle and the descent terminates.
inline constexpr double kImproveEps = 1e-12;

inline constexpr std::size_t kNoCrossing = static_cast<std::size_t>(-1);

/// A candidate block rotation of one path: steps [j, i] rotate so the step
/// at one end moves to the other (forward: step i to the front; backward:
/// step j to the back). `delta` is its exact penalized-cost change at the
/// loads it was evaluated under; +inf means "no candidate".
struct Candidate {
  double delta = std::numeric_limits<double>::infinity();
  std::uint32_t j = 0;
  std::uint32_t i = 0;
  bool forward = false;
};

/// The best candidate across all communications crossing the hot link
/// (reference loop) — materialized lazily by the caller.
struct Move {
  std::size_t comm = 0;
  std::vector<Coord> new_cores;
  double delta = std::numeric_limits<double>::infinity();
};

/// Rotates the step block [j, i] of `cores` so that the step at one end
/// moves to the other end (shifting the perpendicular run by one lane).
/// `forward` = false: step j moves after steps j+1..i (swap with earlier
/// perpendicular); `forward` = true: step i moves before steps j..i-1.
[[nodiscard]] std::vector<Coord> rotate_block(std::span<const Coord> cores,
                                              std::size_t j, std::size_t i, bool forward);

/// Cost delta of replacing the links of `before` with those of `after`
/// (identical prefixes/suffixes cancel exactly because their loads are
/// untouched; changed links of a monotone rewrite are disjoint).
[[nodiscard]] double path_swap_delta(const Mesh& mesh, std::span<const Coord> before,
                                     std::span<const Coord> after, double weight,
                                     const LinkLoads& loads, const LoadCost& cost);

/// If the path `cores` of communication `ci` crosses the hot link described
/// by `hot_info`, evaluates its (at most two) candidate rotations — the
/// paper's preferred side first: source side for a vertical hot link, sink
/// side for a horizontal one — and lowers `best` on strict improvement
/// (ties keep the earlier candidate). The reference evaluation: each
/// candidate is materialized via rotate_block and costed via
/// path_swap_delta, exactly as the seed did.
void consider_crossing(const Mesh& mesh, const LinkInfo& hot_info,
                       std::span<const Coord> cores, std::size_t ci, double weight,
                       const LinkLoads& loads, const LoadCost& cost, Move& best);

/// Index of the step of `cores` traversing the hot link, or kNoCrossing —
/// a monotone path crosses a given link at most once.
[[nodiscard]] std::size_t crossing_position(std::span<const Coord> cores,
                                            const LinkInfo& hot_info);

/// crossing_position for a path *known* to cross the hot link (e.g. taken
/// from a CrossingIndex member list), in O(1) instead of a path scan: every
/// XYI path is a monotone staircase (the initial XY path is, and
/// rotate_block only permutes its unit steps), so the step leaving a core
/// sits at that core's Manhattan depth from the source. The always-on
/// assert rejects a caller whose membership claim is stale.
[[nodiscard]] inline std::size_t known_crossing_position(
    std::span<const Coord> cores, const LinkInfo& hot_info) {
  const std::size_t pos =
      static_cast<std::size_t>(std::abs(hot_info.from.u - cores.front().u) +
                               std::abs(hot_info.from.v - cores.front().v));
  PAMR_ASSERT_MSG(pos + 1 < cores.size() && cores[pos] == hot_info.from &&
                      cores[pos + 1] == hot_info.to,
                  "path does not cross the hot link at its Manhattan depth");
  return pos;
}

/// Best candidate rotation (preferred-side-first, strict <) for the path
/// `cores` crossing the hot step at `pos`. Windowed evaluation: walks only
/// the rotated block, allocation-free, reproducing path_swap_delta's
/// floating-point accumulation term for term.
///
/// `cost_now` must hold, per link, exactly `cost(loads.load(link))` — the
/// caller maintains it under applied moves — so the unrotated side of each
/// delta term is an array read instead of a repeated cost evaluation; the
/// bits are the same double either way. `links` must hold the path's link
/// ids (links[k] joins cores[k] and cores[k+1], also caller-maintained) so
/// the removed side of each step is an array read instead of an adjacency
/// lookup.
[[nodiscard]] Candidate best_candidate(const Mesh& mesh, std::span<const Coord> cores,
                                       std::span<const LinkId> links, std::size_t pos,
                                       bool hot_vertical, double weight,
                                       const LinkLoads& loads, const LoadCost& cost,
                                       std::span<const double> cost_now);

/// The (at most two) candidate rotations of a path crossing the hot step
/// at `pos`, in evaluation order — the paper's preferred side first, which
/// is the order the strict-< tie-break depends on. A pure function of the
/// path shape: cached specs stay valid while the path is unrewritten.
struct CandidateSpecs {
  std::uint8_t count = 0;
  std::uint32_t j[2] = {0, 0};
  std::uint32_t i[2] = {0, 0};
  bool forward[2] = {false, false};
};
[[nodiscard]] CandidateSpecs candidate_specs(std::span<const Coord> cores,
                                             std::size_t pos, bool hot_vertical);

/// Evaluates ONE candidate rotation (a CandidateSpecs entry) under the
/// contracts of best_candidate; returns it with its exact delta. Callers
/// that cache per-candidate results recompute each rotation independently
/// — a load change near one side of the crossing leaves the other side's
/// cached delta exact.
[[nodiscard]] Candidate eval_candidate(const Mesh& mesh, std::span<const Coord> cores,
                                       std::span<const LinkId> links, std::uint32_t j,
                                       std::uint32_t i, bool forward, double weight,
                                       const LinkLoads& loads, const LoadCost& cost,
                                       std::span<const double> cost_now);

/// Writes the rewritten core sequence of a finite candidate into `out`
/// (same length as `cores`, no overlap).
void materialize(std::span<const Coord> cores, const Candidate& cand,
                 std::span<Coord> out);

/// Safety cap on applied moves, scaled with problem size (links × nc) and
/// floored at the seed's fixed 100000 so small instances keep the old
/// headroom. Hitting it means the descent was truncated — callers must
/// report that (RouteResult::local_search), never swallow it.
[[nodiscard]] std::size_t move_cap(const Mesh& mesh, std::size_t num_comms);

/// Stamps RouteResult::local_search with (moves, converged) and logs a
/// warning when the cap truncated the descent — shared by both modes so a
/// capped run never returns silently.
void finish_search_stats(RouteResult& result, const Mesh& mesh, std::size_t num_comms,
                         std::size_t moves, std::size_t cap);

}  // namespace pamr::xyi

// Move machinery of the XYI local search (paper §5.4), driven by
// xy_improver.cpp: the candidate rotations of a path crossing a hot link,
// in the paper's preferred-side-first order with strict-< tie-breaking
// (first candidate wins), their exact cost deltas, and the rewrite that
// applies one.
//
// The evaluation is windowed: it walks only the rotated block and never
// allocates — the rotated run is the old run shifted by one unit step, so
// every changed link and its load term is produced in the ascending-step
// order of the seed's arithmetic, which materialized each rotation and
// summed cost deltas over every changed link. The differential suite
// (tests/test_xy_improver.cpp) holds the two equal on every instance
// against the seed loop in tests/seed_routers.hpp, which therefore must
// NOT share this code: it is the ground truth the shortcut is checked
// against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>

#include "pamr/mesh/mesh.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/router.hpp"
#include "pamr/util/assert.hpp"

namespace pamr::xyi {

/// Improvement threshold: a move is applied iff delta < -kImproveEps, so
/// zero-delta rewrites never cycle and the descent terminates.
inline constexpr double kImproveEps = 1e-12;

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

/// The read window of one best_candidate evaluation, in the path's step
/// indices: the hot step `pos` and the nearest perpendicular steps around
/// it, `prev - 1` (the backward candidate's swap partner, when `has_prev`)
/// and `next + 1` (the forward one's, when `has_next`). `plus` is the
/// direction of the path's perpendicular steps — toward +u or +v — which a
/// monotone staircase shares among all of them. With the path's link ids
/// and loads, it determines exactly which loads the evaluation read (see
/// crossing_index.hpp).
struct Window {
  std::uint32_t pos = 0;
  std::uint32_t prev = 0;
  std::uint32_t next = 0;
  bool has_prev = false;
  bool has_next = false;
  bool plus = false;
};

/// Index of the step of `cores` traversing the hot link, for a path *known*
/// to cross it (e.g. taken from a CrossingIndex member list), in O(1)
/// instead of a path scan: every XYI path is a monotone staircase (the
/// initial XY path is, and a rotation only permutes its unit steps), so
/// the step leaving a core sits at that core's Manhattan depth from the
/// source. The always-on assert rejects a caller whose membership claim is
/// stale.
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
/// the rotated block, allocation-free, reproducing the seed's materialized
/// evaluation's floating-point accumulation term for term.
///
/// `cost_now` must hold, per link, exactly `cost(loads.load(link))` — the
/// caller maintains it under applied moves — so the unrotated side of each
/// delta term is an array read instead of a repeated cost evaluation; the
/// bits are the same double either way. `links` must hold the path's link
/// ids (links[k] joins cores[k] and cores[k+1], also caller-maintained) so
/// the removed side of each step is an array read instead of an adjacency
/// lookup. The evaluation's read window is written to `window`.
[[nodiscard]] Candidate best_candidate(const Mesh& mesh, std::span<const Coord> cores,
                                       std::span<const LinkId> links, std::size_t pos,
                                       bool hot_vertical, double weight,
                                       const LinkLoads& loads, const LoadCost& cost,
                                       std::span<const double> cost_now, Window& window);

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
/// warning when the cap truncated the descent, so a capped run never
/// returns silently.
void finish_search_stats(RouteResult& result, const Mesh& mesh, std::size_t num_comms,
                         std::size_t moves, std::size_t cap);

}  // namespace pamr::xyi

#include "pamr/routing/xy_moves.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "pamr/util/assert.hpp"
#include "pamr/util/log.hpp"

namespace pamr::xyi {

namespace {

bool step_is_vertical(std::span<const Coord> cores, std::size_t k) {
  return cores[k].v == cores[k + 1].v;
}

/// The nearest perpendicular step on each side of the hot step `i`: the
/// swap partners of the two candidate rotations.
Window candidate_bounds(std::span<const Coord> cores, std::size_t i, bool hot_vertical) {
  Window window;
  window.pos = static_cast<std::uint32_t>(i);
  std::size_t prev = i;
  while (prev > 0 && step_is_vertical(cores, prev - 1) == hot_vertical) --prev;
  window.prev = static_cast<std::uint32_t>(prev);
  window.has_prev = prev > 0 && step_is_vertical(cores, prev - 1) != hot_vertical;
  std::size_t next = i;
  while (next + 2 < cores.size() && step_is_vertical(cores, next + 1) == hot_vertical) {
    ++next;
  }
  window.next = static_cast<std::uint32_t>(next);
  window.has_next =
      next + 2 < cores.size() && step_is_vertical(cores, next + 1) != hot_vertical;
  // A perpendicular step is a unit move along one axis: its coordinate
  // deltas sum to +1 or -1.
  const std::size_t perpendicular = window.has_prev ? prev - 1 : next + 1;
  if (window.has_prev || window.has_next) {
    window.plus = cores[perpendicular + 1].u - cores[perpendicular].u +
                      cores[perpendicular + 1].v - cores[perpendicular].v > 0;
  }
  return window;
}

/// Windowed evaluation of one candidate rotation: the rotated run is the
/// old run shifted by one unit step, so after[k] = before[k-1] + Δi
/// (forward) or before[k+1] - Δj (backward) for k in (j, i+1) — every
/// changed link is produced without materializing the candidate, and the
/// load terms accumulate in the seed's exact ascending-k order.
///
/// Per term, cost(load) of the *unrotated* side comes from `cost_now`
/// (maintained by the caller as exactly that value), and the links resolve
/// through the unchecked lookup — every window core of a monotone staircase
/// permutation stays inside the source/sink rectangle, so the full
/// adjacency checks can never fire. Neither shortcut changes a bit of the
/// accumulated delta.
double candidate_delta(const Mesh& mesh, std::span<const Coord> cores,
                       std::span<const LinkId> links, std::size_t j, std::size_t i,
                       bool forward, double weight, const LinkLoads& loads,
                       const LoadCost& cost, std::span<const double> cost_now) {
  const Coord dj{cores[j + 1].u - cores[j].u, cores[j + 1].v - cores[j].v};
  const Coord di{cores[i + 1].u - cores[i].u, cores[i + 1].v - cores[i].v};
  // Indexing the dense value span directly reads each changed link's load
  // once instead of four bounds-checked accessor calls per step.
  const std::span<const double> load_values = loads.values();
  double delta = 0.0;
  Coord after_k = cores[j];
  for (std::size_t k = j; k <= i; ++k) {
    const Coord after_k1 =
        k == i ? cores[i + 1]
               : (forward ? Coord{cores[k].u + di.u, cores[k].v + di.v}
                          : Coord{cores[k + 2].u - dj.u, cores[k + 2].v - dj.v});
    const LinkId removed = links[k];
    const LinkId added = mesh.link_between_unchecked(after_k, after_k1);
    if (removed != added) {
      const double removed_load = load_values[static_cast<std::size_t>(removed)];
      const double added_load = load_values[static_cast<std::size_t>(added)];
      delta += cost(removed_load - weight) - cost_now[static_cast<std::size_t>(removed)];
      delta += cost(added_load + weight) - cost_now[static_cast<std::size_t>(added)];
    }
    after_k = after_k1;
  }
  return delta;
}

}  // namespace

Candidate best_candidate(const Mesh& mesh, std::span<const Coord> cores,
                         std::span<const LinkId> links, std::size_t pos,
                         bool hot_vertical, double weight, const LinkLoads& loads,
                         const LoadCost& cost, std::span<const double> cost_now,
                         Window& window) {
  window = candidate_bounds(cores, pos, hot_vertical);
  Candidate best;
  const auto consider = [&](std::size_t j, std::size_t i, bool forward) {
    const double delta =
        candidate_delta(mesh, cores, links, j, i, forward, weight, loads, cost, cost_now);
    if (delta < best.delta) {
      best = Candidate{delta, static_cast<std::uint32_t>(j), static_cast<std::uint32_t>(i),
                       forward};
    }
  };
  // Swapping with a preceding perpendicular step moves it to the end of the
  // block (forward=false) so the whole run shifts one lane toward the
  // source; a following step moves to the front (forward=true). The other
  // direction would recreate the hot link. Paper's preferred side first:
  // source side for vertical hot links, sink side for horizontal ones
  // (ties keep the first candidate).
  if (hot_vertical) {
    if (window.has_prev) consider(window.prev - 1, pos, /*forward=*/false);
    if (window.has_next) consider(pos, window.next + 1, /*forward=*/true);
  } else {
    if (window.has_next) consider(pos, window.next + 1, /*forward=*/true);
    if (window.has_prev) consider(window.prev - 1, pos, /*forward=*/false);
  }
  return best;
}

void materialize(std::span<const Coord> cores, const Candidate& cand,
                 std::span<Coord> out) {
  PAMR_ASSERT(cand.delta < std::numeric_limits<double>::infinity());
  PAMR_ASSERT(out.size() == cores.size());
  // The prefix through core j, the rotated block's steps, then the
  // suffix.
  const std::size_t j = cand.j;
  const std::size_t i = cand.i;
  std::copy(cores.begin(), cores.begin() + static_cast<std::ptrdiff_t>(j) + 1,
            out.begin());
  std::size_t at = j;
  auto apply_step = [&](std::size_t k) {
    const Coord delta{cores[k + 1].u - cores[k].u, cores[k + 1].v - cores[k].v};
    out[at + 1] = Coord{out[at].u + delta.u, out[at].v + delta.v};
    ++at;
  };
  if (cand.forward) {
    apply_step(i);
    for (std::size_t k = j; k < i; ++k) apply_step(k);
  } else {
    for (std::size_t k = j + 1; k <= i; ++k) apply_step(k);
    apply_step(j);
  }
  std::copy(cores.begin() + static_cast<std::ptrdiff_t>(i) + 2, cores.end(),
            out.begin() + static_cast<std::ptrdiff_t>(i) + 2);
}

std::size_t move_cap(const Mesh& mesh, std::size_t num_comms) {
  const auto links = static_cast<std::size_t>(mesh.num_links());
  return std::max<std::size_t>(100000, links * std::max<std::size_t>(num_comms, 1));
}

void finish_search_stats(RouteResult& result, const Mesh& mesh, std::size_t num_comms,
                         std::size_t moves, std::size_t cap) {
  result.local_search.moves = moves;
  result.local_search.converged = moves < cap;
  if (!result.local_search.converged) {
    PAMR_LOG_WARN("XYI move cap " + std::to_string(cap) + " reached on " +
                  std::to_string(mesh.p()) + "x" + std::to_string(mesh.q()) +
                  " with " + std::to_string(num_comms) +
                  " communications — descent truncated, routing may be suboptimal");
  }
}

}  // namespace pamr::xyi

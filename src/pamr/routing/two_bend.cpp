// TB — two-bend (paper §5.3).
//
// "We authorize at most two bends for the routing of a given communication.
//  … For each communication γ_i, we try all possible routings (there are at
//  most |usrc−usnk| + |vsrc−vsnk| different two-bend routings), and we keep
//  the best one (in terms of power consumption)."
//
// The ≤2-bend Manhattan paths from src to snk are exactly:
//   * H-V-H: horizontal to column m, vertical to the sink row, horizontal to
//     the sink — one per column m of the rectangle (m = v_snk is the XY
//     path, m = v_src the YX-with-trailing-horizontal = VH path);
//   * V-H-V with an interior turning row — (Δu − 1) more.
// Total Δv + 1 + Δu − 1 = Δu + Δv, matching the paper's count.
//
// Overload witness (RouteGoal::kVerdict): as in SG, `loads` holds only
// committed paths, so a link whose load passes PowerModel::proven_overload
// after a commit proves the routing invalid and the call stops.
#include <limits>

#include "pamr/mesh/rectangle.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/routing/workspace.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

namespace {

/// Calls f(link) for each link of a ≤2-bend staircase from src to snk, in
/// path order. horizontal_first: H to column `turn`, V to snk.u, H to
/// snk.v. !horizontal_first: V to row `turn`, H to snk.v, V to snk.u.
template <class F>
void for_each_staircase_link(const Mesh& mesh, Coord src, Coord snk,
                             bool horizontal_first, std::int32_t turn, F&& f) {
  Coord at = src;
  auto advance_v = [&](std::int32_t target) {
    const std::int32_t s = sign_of(target - at.v);
    while (at.v != target) {
      const Coord to{at.u, at.v + s};
      f(mesh.link_between(at, to));
      at = to;
    }
  };
  auto advance_u = [&](std::int32_t target) {
    const std::int32_t s = sign_of(target - at.u);
    while (at.u != target) {
      const Coord to{at.u + s, at.v};
      f(mesh.link_between(at, to));
      at = to;
    }
  };
  if (horizontal_first) {
    advance_v(turn);
    advance_u(snk.u);
    advance_v(snk.v);
  } else {
    advance_u(turn);
    advance_v(snk.v);
    advance_u(snk.u);
  }
}

/// Calls f(horizontal_first, turn) for every distinct ≤2-bend Manhattan
/// path, XY first (the deterministic tie winner). A straight line has one:
/// the XY path, which is the horizontal-first staircase turning at snk.v.
template <class F>
void for_each_two_bend_path(Coord src, Coord snk, F&& f) {
  if (src.u == snk.u || src.v == snk.v) {
    f(true, snk.v);
    return;
  }
  const std::int32_t sv = sign_of(snk.v - src.v);
  // H-V-H family: turning column from v_snk (XY) back to v_src (VH).
  for (std::int32_t m = snk.v; m != src.v - sv; m -= sv) f(true, m);
  // V-H-V family, interior turning rows only (endpoints duplicate XY / VH).
  const std::int32_t su = sign_of(snk.u - src.u);
  for (std::int32_t r = src.u + su; r != snk.u; r += su) f(false, r);
}

}  // namespace

RouteResult TwoBendRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                      const PowerModel& model, RouteGoal goal,
                                      RouteWorkspace& workspace) const {
  const WallTimer timer;
  const LoadCost cost(model, mesh.num_links());
  const bool verdict = goal == RouteGoal::kVerdict;
  const double limit = model.limit();
  LinkLoads& loads = workspace.loads;
  loads.reset(mesh.num_links());
  PathTable& paths = workspace.paths;
  paths.reset(comms);

  order_by_decreasing_weight(comms, workspace.order);
  for (const std::size_t index : workspace.order) {
    const Communication& comm = comms[index];
    // Every candidate is costed by walking its links in path order, the
    // order the delta sum accumulates in; strict < keeps the first best.
    bool best_horizontal_first = true;
    std::int32_t best_turn = 0;
    double best_delta = std::numeric_limits<double>::infinity();
    bool found = false;
    for_each_two_bend_path(comm.src, comm.snk, [&](bool horizontal_first,
                                                   std::int32_t turn) {
      double delta = 0.0;
      for_each_staircase_link(mesh, comm.src, comm.snk, horizontal_first, turn,
                              [&](LinkId link) {
                                delta += cost.delta(loads.load(link),
                                                    loads.load(link) + comm.weight);
                              });
      if (delta < best_delta) {
        best_delta = delta;
        best_horizontal_first = horizontal_first;
        best_turn = turn;
        found = true;
      }
    });
    PAMR_ASSERT(found);
    const std::span<LinkId> path = paths.path(index);
    std::size_t hop = 0;
    for_each_staircase_link(mesh, comm.src, comm.snk, best_horizontal_first, best_turn,
                            [&](LinkId link) { path[hop++] = link; });
    PAMR_ASSERT(hop == path.size());
    for (const LinkId link : path) loads.add(link, comm.weight);
    if (verdict) {
      for (const LinkId link : path) {
        if (PowerModel::proven_overload(loads.load(link), limit)) {
          return abandon(timer.elapsed_ms());
        }
      }
    }
  }

  return finish(mesh, comms, model, workspace, timer.elapsed_ms());
}

}  // namespace pamr

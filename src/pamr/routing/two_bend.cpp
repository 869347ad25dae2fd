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
#include "pamr/util/assert.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

namespace {

Path staircase_path(const Mesh& mesh, Coord src, Coord snk, bool horizontal_first,
                    std::int32_t turn) {
  // horizontal_first: H to column `turn`, V to snk.u, H to snk.v.
  // !horizontal_first: V to row `turn`, H to snk.v, V to snk.u.
  std::vector<Coord> cores{src};
  Coord at = src;
  auto advance_v = [&](std::int32_t target) {
    const std::int32_t s = sign_of(target - at.v);
    while (at.v != target) {
      at.v += s;
      cores.push_back(at);
    }
  };
  auto advance_u = [&](std::int32_t target) {
    const std::int32_t s = sign_of(target - at.u);
    while (at.u != target) {
      at.u += s;
      cores.push_back(at);
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
  return path_from_cores(mesh, cores);
}

/// All distinct ≤2-bend Manhattan paths, XY first (deterministic tie winner).
std::vector<Path> two_bend_paths(const Mesh& mesh, Coord src, Coord snk) {
  std::vector<Path> paths;
  if (src == snk) {
    paths.push_back(Path{src, snk, {}});
    return paths;
  }
  if (src.u == snk.u || src.v == snk.v) {
    paths.push_back(xy_path(mesh, src, snk));  // straight line
    return paths;
  }
  const std::int32_t sv = sign_of(snk.v - src.v);
  // H-V-H family: turning column from v_snk (XY) back to v_src (VH).
  for (std::int32_t m = snk.v; m != src.v - sv; m -= sv) {
    paths.push_back(staircase_path(mesh, src, snk, /*horizontal_first=*/true, m));
  }
  // V-H-V family, interior turning rows only (endpoints duplicate XY / VH).
  const std::int32_t su = sign_of(snk.u - src.u);
  for (std::int32_t r = src.u + su; r != snk.u; r += su) {
    paths.push_back(staircase_path(mesh, src, snk, /*horizontal_first=*/false, r));
  }
  return paths;
}

}  // namespace

RouteResult TwoBendRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                      const PowerModel& model, RouteGoal goal) const {
  const WallTimer timer;
  const LoadCost cost(model, mesh.num_links());
  const bool verdict = goal == RouteGoal::kVerdict;
  const double limit = model.limit();
  LinkLoads loads(mesh);
  std::vector<Path> paths(comms.size());

  for (const std::size_t index : order_by_decreasing_weight(comms)) {
    const Communication& comm = comms[index];
    const auto candidates = two_bend_paths(mesh, comm.src, comm.snk);
    PAMR_ASSERT(!candidates.empty());
    const Path* best = nullptr;
    double best_delta = std::numeric_limits<double>::infinity();
    for (const Path& candidate : candidates) {
      double delta = 0.0;
      for (const LinkId link : candidate.links) {
        delta += cost.delta(loads.load(link), loads.load(link) + comm.weight);
      }
      if (delta < best_delta) {
        best_delta = delta;
        best = &candidate;
      }
    }
    PAMR_ASSERT(best != nullptr);
    loads.add_path(*best, comm.weight);
    if (verdict) {
      for (const LinkId link : best->links) {
        if (PowerModel::proven_overload(loads.load(link), limit)) {
          return abandon(timer.elapsed_ms());
        }
      }
    }
    paths[index] = *best;
  }

  return finish(mesh, comms, model, make_single_path_routing(comms, std::move(paths)),
                timer.elapsed_ms());
}

}  // namespace pamr

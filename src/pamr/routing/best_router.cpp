// BEST (paper §6): "the best heuristic among all six ones on the given
// problem instance". Runs XY, SG, IG, TB, XYI and PR and keeps the valid
// result with the lowest power. The experiment harness computes BEST from
// per-heuristic results directly (to avoid routing everything twice); this
// router exists for the public API and the examples.
#include "pamr/routing/routers.hpp"
#include "pamr/routing/workspace.hpp"
#include "pamr/util/timer.hpp"

#include <utility>

namespace pamr {

namespace {

/// The one BEST loop, on the Mesh and on every other topology alike: each
/// base policy through its shared router's front door.
RouteResult best_of(const topo::Topology& topology, const CommSet& comms,
                    const PowerModel& model, RouteWorkspace& workspace) {
  const WallTimer timer;
  RouteResult best;
  for (const RouterKind kind : all_base_routers()) {
    RouteResult result =
        shared_router(kind).route(topology, comms, model, RouteGoal::kRouting, workspace);
    if (!result.valid) {
      workspace.recycle(result);
      continue;
    }
    if (!best.valid || result.power < best.power) std::swap(best, result);
    workspace.recycle(result);
  }
  best.elapsed_ms = timer.elapsed_ms();
  return best;
}

}  // namespace

RouteResult BestRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                   const PowerModel& model, RouteGoal /*goal*/,
                                   RouteWorkspace& workspace) const {
  return best_of(mesh, comms, model, workspace);
}

RouteResult BestRouter::route_analogue(const topo::Topology& topology,
                                       const CommSet& comms, const PowerModel& model,
                                       RouteWorkspace& workspace) const {
  return best_of(topology, comms, model, workspace);
}

}  // namespace pamr

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

RouteResult BestRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                   const PowerModel& model, RouteGoal /*goal*/,
                                   RouteWorkspace& workspace) const {
  const WallTimer timer;
  RouteResult best;
  for (const RouterKind kind : all_base_routers()) {
    RouteResult result =
        shared_router(kind).route(mesh, comms, model, RouteGoal::kRouting, workspace);
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

}  // namespace pamr

// XY routing (paper §1, §3.5): every communication goes horizontally first,
// then vertically. Deterministic, oblivious, and the baseline every other
// policy is measured against.
#include "pamr/routing/routers.hpp"
#include "pamr/routing/workspace.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

RouteResult XYRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                 const PowerModel& model, RouteGoal /*goal*/,
                                 RouteWorkspace& workspace) const {
  const WallTimer timer;
  PathTable& paths = workspace.paths;
  paths.reset(comms);
  for (std::size_t i = 0; i < comms.size(); ++i) {
    write_xy_path(mesh, comms[i].src, comms[i].snk, paths.path(i));
  }
  return finish(mesh, comms, model, workspace, timer.elapsed_ms());
}

}  // namespace pamr

// SG — simple greedy (paper §5.1).
//
// "We route communications one by one, and for each communication, we build
//  the path from the source core to the destination core hop by hop, the
//  next used link being the least loaded link among the one or two possible
//  next links. If there is a tie, we choose the link that gets closer to
//  the diagonal, from the source core to the sink core."
//
// Communications are processed by decreasing weight (§5 preamble). The
// "diagonal" tie-break compares the (unnormalized) distance of the candidate
// next core to the straight src→snk segment via the cross product; a final
// tie (symmetric geometry) prefers the vertical step, which keeps the
// policy deterministic.
//
// Overload witness (RouteGoal::kVerdict): `loads` holds only committed
// paths, and a committed weight stays on its link in the final routing, so
// a link whose load passes PowerModel::proven_overload proves the routing
// invalid; the call stops there.
#include "pamr/mesh/rectangle.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/routing/workspace.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/timer.hpp"

#include <cstdlib>

namespace pamr {

namespace {

/// |cross((snk - src), (c - src))| — proportional to the distance of core
/// `c` to the src→snk line.
std::int64_t diagonal_deviation(Coord src, Coord snk, Coord c) noexcept {
  const std::int64_t du = snk.u - src.u;
  const std::int64_t dv = snk.v - src.v;
  const std::int64_t cu = c.u - src.u;
  const std::int64_t cv = c.v - src.v;
  return std::llabs(cu * dv - cv * du);
}

}  // namespace

RouteResult SimpleGreedyRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                           const PowerModel& model, RouteGoal goal,
                                           RouteWorkspace& workspace) const {
  // SG looks only at loads, not at powers; the model only bounds a witness.
  const WallTimer timer;
  const bool verdict = goal == RouteGoal::kVerdict;
  const double limit = model.limit();
  LinkLoads& loads = workspace.loads;
  loads.reset(mesh.num_links());
  PathTable& paths = workspace.paths;
  paths.reset(comms);

  order_by_decreasing_weight(comms, workspace.order);
  for (const std::size_t index : workspace.order) {
    const Communication& comm = comms[index];
    const CommRect rect(mesh, comm.src, comm.snk);
    const std::span<LinkId> path = paths.path(index);
    std::size_t hop = 0;
    Coord at = comm.src;
    while (at != comm.snk) {
      const auto steps = rect.next_steps(at);
      PAMR_ASSERT(!steps.empty());
      const CommRect::Step* chosen = &steps.front();
      if (steps.size() == 2) {
        const double load0 = loads.load(steps[0].link);
        const double load1 = loads.load(steps[1].link);
        if (load1 < load0) {
          chosen = &steps[1];
        } else if (load1 == load0) {
          // Tie: pick the step whose endpoint hugs the src→snk segment.
          // next_steps lists the vertical step first, so the final
          // (geometric) tie resolves to the vertical link.
          const auto dev0 = diagonal_deviation(comm.src, comm.snk, steps[0].to);
          const auto dev1 = diagonal_deviation(comm.src, comm.snk, steps[1].to);
          if (dev1 < dev0) chosen = &steps[1];
        }
      }
      loads.add(chosen->link, comm.weight);
      if (verdict && PowerModel::proven_overload(loads.load(chosen->link), limit)) {
        return abandon(timer.elapsed_ms());
      }
      path[hop++] = chosen->link;
      at = chosen->to;
    }
  }

  return finish(mesh, comms, model, workspace, timer.elapsed_ms());
}

}  // namespace pamr

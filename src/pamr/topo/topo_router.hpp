// Routing policies over an arbitrary Topology. route_on is the library's one
// routing dispatcher: exp::run_instance routes every instance through it,
// whatever the topology.
//
// The §5 heuristics were written against the rectangular mesh and its
// Manhattan-rectangle geometry; this layer gives every RouterKind a meaning
// on any Topology:
//
//  * rect — forwarded, goal and workspace included, to the shared original
//    routers (shared_router) on Topology::as_mesh(), the Mesh itself, so
//    rectangular results are those of routing the Mesh directly.
//  * torus/diag — deterministic topology-generic analogues built from the
//    Topology primitives (next_steps / canonical_path / distance), with
//    every tie-break pinned: XY routes canonically; SG walks hop-by-hop onto
//    the least-loaded next step; IG walks onto the cheapest LoadCost delta;
//    TB picks the cheapest path among the ≤2-direction-change enumeration;
//    XYI starts from the canonical routing and re-picks strictly improving
//    ≤2-change paths per communication; PR unloads the most-loaded link by
//    rerouting its heaviest crossing communication; BEST keeps the valid
//    minimum-power result of the six. They ignore the goal (they always
//    return the full routing) and the workspace, and each call is timed in
//    its policy's phase.route.<policy> timer, like the rect routers.
#pragma once

#include <vector>

#include "pamr/comm/communication.hpp"
#include "pamr/power/power_model.hpp"
#include "pamr/routing/router.hpp"
#include "pamr/topo/topology.hpp"

namespace pamr {
namespace topo {

/// Shortest src→snk paths with at most two direction changes (indices into
/// the topology's direction table compared hop to hop), enumerated by DFS
/// over next_steps in their pinned order — the canonical path always comes
/// first — and truncated deterministically at an enumeration cap (see
/// kMaxTwoChangePaths in the .cpp). The rect instance of "all Manhattan
/// paths with at most two bends" (§5.3), generalised.
[[nodiscard]] std::vector<Path> two_change_paths(const Topology& topology,
                                                 Coord src, Coord snk);

/// Routes `comms` on `topology` with the policy analogue of `kind`.
/// Validates the communication set first (throws std::logic_error on
/// malformed input); a deterministic function of its arguments. For the
/// rectangular topology this is exactly shared_router(kind).route on the
/// Mesh. This form builds a call-local RouteWorkspace.
[[nodiscard]] RouteResult route_on(const Topology& topology, RouterKind kind,
                                   const CommSet& comms, const PowerModel& model,
                                   RouteGoal goal = RouteGoal::kRouting);

/// The same on a caller-owned workspace (routing/workspace.hpp), which the
/// rect routers reuse; the result is bit-identical to the form above.
[[nodiscard]] RouteResult route_on(const Topology& topology, RouterKind kind,
                                   const CommSet& comms, const PowerModel& model,
                                   RouteGoal goal, RouteWorkspace& workspace);

}  // namespace topo
}  // namespace pamr

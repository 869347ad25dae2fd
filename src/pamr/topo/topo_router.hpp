// The policy analogues: what each RouterKind does on a topology other than
// the Mesh. Router::route (routing/router.hpp) is the one routing entry; on
// the Mesh it runs the original §5 policies, and elsewhere the portfolio
// routers run analogue_routing through their default route_analogue.
//
// The §5 heuristics were written against the rectangular mesh and its
// Manhattan-rectangle geometry; the analogues are deterministic,
// topology-generic versions built from the Topology primitives
// (next_steps / canonical_path / distance), with every tie-break pinned: XY
// routes canonically; SG walks hop-by-hop onto the least-loaded next step;
// IG walks onto the cheapest LoadCost delta; TB picks the cheapest path
// among the ≤2-direction-change enumeration; XYI starts from the canonical
// routing and re-picks strictly improving ≤2-change paths per
// communication; PR unloads the most-loaded link by rerouting its heaviest
// crossing communication. BEST runs its one loop over the six on any
// topology. The analogues ignore the goal (they always return the full
// routing) and build in their own buffers; Router::route times each call in
// its policy's phase.route.<policy> timer, as on the Mesh.
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

/// The routing `kind`'s analogue builds for `comms` on `topology`, where
/// `kind` is one of the six base policies (CHECKed) and `comms` has passed
/// check_comm_set. XYI and PR record their moves in `stats`. A
/// deterministic function of its arguments; on the Mesh it gives the
/// analogue, not the §5 policy.
[[nodiscard]] Routing analogue_routing(const Topology& topology, RouterKind kind,
                                       const CommSet& comms, const PowerModel& model,
                                       LocalSearchStats& stats);

}  // namespace topo
}  // namespace pamr

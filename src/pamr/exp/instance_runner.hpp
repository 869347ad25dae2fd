// Runs the six base policies on one instance and folds the outcome into the
// campaign's scalar samples. One runner serves every topology: each policy
// call goes through shared_router(kind).route, the library's one routing
// entry.
// The routers are stateless and shared by every thread; per-call scratch
// lives in a RouteWorkspace, one per thread (the campaign calls the runner
// from every pool worker).
//
// Three steps apply only on the rectangular topology, the Mesh
// (topology.as_mesh() non-null): the certificate, verdict-only routing and
// the simulation probe. Every call asks for RouteGoal::kVerdict, which the
// torus and diag analogues ignore: they route every instance in full.
//
// Certify, then route. On the mesh the runner first asks certify_infeasible
// (opt/lower_bound.hpp) whether the instance can be routed at all. When a
// certificate holds, every policy is bound to fail, so no router runs: the
// six samples are recorded as failures (valid=false, power 0, elapsed 0)
// and the route.certified_infeasible counter counts the instance. The
// result bytes equal those of routing it, wall-clock field aside. An
// instance is certified when it violates one of three conditions, each
// necessary for any Manhattan routing (single-path ones in particular)
// that keeps every link load within the model's feasibility limit cap:
//   1. Diagonal cuts. A direction-d path advances one diagonal per hop, so
//      it crosses the cut between diagonals k and k+1 on exactly one of
//      that cut's m(k) direction-d links: K(d,k) ≤ m(k)·cap.
//   2. Row and column cuts. A path is monotone in each coordinate, so an
//      eastbound communication crosses every column boundary between its
//      endpoints on one of the p east links there: the eastward traffic
//      across a column boundary is ≤ p·cap, and likewise westward; the
//      southward and northward traffic across a row boundary is ≤ q·cap.
//   3. Forced loads. A same-row or same-column communication has exactly
//      one Manhattan path, so its weight lands on those links in every
//      routing: the sum of forced loads on any link is ≤ cap.
// A sum counts as a violation only past a relative margin that dominates
// floating-point summation error, so no certified instance is routable.
// Other topologies are not gated: a torus wraparound link lets a path go
// round a cut instead of across it, and a diagonal link crosses a row and
// a column boundary in one hop, so none of the three counts bounds those
// routings.
//
// Verdicts only. The campaign keeps a policy's valid flag and powers, never
// its routing (except BEST's, for the simulation probe, and a valid routing
// always comes back). So the runner routes with RouteGoal::kVerdict: on
// the mesh SG, TB, IG and PR stop as soon as they hold an overload witness,
// a link load that proves their final routing invalid, and the sample
// records the same failure the full routing would have. route.abandoned
// counts those calls.
//
// With a sim::SimConfig the runner additionally drives the cycle-level NoC
// simulator on the instance's BEST routing (open-loop injection: the
// Injector offers each subflow weight/flit_mbps flits per cycle, so a
// layer's intensity envelope — which scaled the drawn weights — directly
// scales the injection rates) and folds latency / delivery / throughput
// into the sample next to power.
#pragma once

#include "pamr/comm/communication.hpp"
#include "pamr/exp/metrics.hpp"
#include "pamr/power/power_model.hpp"
#include "pamr/routing/workspace.hpp"
#include "pamr/sim/simulator.hpp"
#include "pamr/topo/topology.hpp"

namespace pamr {
namespace exp {

/// `sim_config`, when non-null, requests the simulation probe; it needs the
/// rectangular topology (CHECKed; ScenarioSpec rejects sim=on elsewhere at
/// parse time) and runs iff some policy produced a valid routing (the probe
/// needs a routing to program — the per-point sim stats' count() reveals
/// how many instances qualified). Every policy call reuses `workspace`
/// (routing/workspace.hpp). Deterministic in all arguments, including
/// sim_config->seed; the workspace's history changes no bit of the sample.
[[nodiscard]] InstanceSample run_instance(const topo::Topology& topology,
                                          const CommSet& comms,
                                          const PowerModel& model,
                                          const sim::SimConfig* sim_config,
                                          RouteWorkspace& workspace);

}  // namespace exp
}  // namespace pamr

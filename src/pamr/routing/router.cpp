#include "pamr/routing/router.hpp"

#include <array>
#include <cstdint>
#include <utility>

#include "pamr/obs/obs.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/routing/workspace.hpp"
#include "pamr/topo/topo_router.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {
namespace {

// The phase.route.* timers sit in RouterKind order, BEST last, so a
// router's timer is its kind's offset from phase.route.XY.
static_assert(static_cast<std::uint32_t>(obs::Metric::kPhaseRouteBest) -
                  static_cast<std::uint32_t>(obs::Metric::kPhaseRouteXy) ==
              static_cast<std::uint32_t>(RouterKind::kBest));
static_assert(static_cast<std::size_t>(RouterKind::kBest) == kNumBaseRouters);

obs::Metric phase_of(RouterKind kind) noexcept {
  return static_cast<obs::Metric>(static_cast<std::uint32_t>(obs::Metric::kPhaseRouteXy) +
                                  static_cast<std::uint32_t>(kind));
}

}  // namespace

const char* to_cstring(RouterKind kind) noexcept {
  switch (kind) {
    case RouterKind::kXY: return "XY";
    case RouterKind::kSG: return "SG";
    case RouterKind::kIG: return "IG";
    case RouterKind::kTB: return "TB";
    case RouterKind::kXYI: return "XYI";
    case RouterKind::kPR: return "PR";
    case RouterKind::kBest: return "BEST";
  }
  return "?";
}

std::vector<RouterKind> all_base_routers() {
  return {RouterKind::kXY, RouterKind::kSG,  RouterKind::kIG,
          RouterKind::kTB, RouterKind::kXYI, RouterKind::kPR};
}

RouteResult Router::route(const topo::Topology& topology, const CommSet& comms,
                          const PowerModel& model, RouteGoal goal) const {
  RouteWorkspace workspace;
  return route(topology, comms, model, goal, workspace);
}

RouteResult Router::route(const topo::Topology& topology, const CommSet& comms,
                          const PowerModel& model, RouteGoal goal,
                          RouteWorkspace& workspace) const {
  check_comm_set(topology, comms);
  obs::bump(obs::Metric::kRouteCalls);
  const obs::PhaseScope phase(phase_of(kind_));
  const Mesh* mesh = topology.as_mesh();
  if (mesh == nullptr) return route_analogue(topology, comms, model, workspace);
  RouteResult result = route_impl(*mesh, comms, model, goal, workspace);
#if PAMR_CHECK_LEVEL >= 2
  if (goal == RouteGoal::kVerdict && !result.routing.has_value()) {
    // The witness must not lie: the full routing is invalid as well. Muted,
    // so the re-run leaves the deterministic counters as they were.
    const obs::MuteScope mute;
    RouteResult full = route_impl(*mesh, comms, model, RouteGoal::kRouting, workspace);
    PAMR_INVARIANT("route-abandon", !full.valid,
                   "an abandoned route call's full routing is valid");
    workspace.recycle(full);
  }
#endif
  return result;
}

RouteResult Router::route_analogue(const topo::Topology& topology, const CommSet& comms,
                                   const PowerModel& model,
                                   RouteWorkspace& workspace) const {
  const WallTimer timer;
  LocalSearchStats stats;
  Routing routing = topo::analogue_routing(topology, kind_, comms, model, stats);
  RouteResult result =
      finish(topology, comms, model, std::move(routing), timer.elapsed_ms(), workspace);
  result.local_search = stats;
  return result;
}

RouteResult Router::finish(const topo::Topology& topology, const CommSet& comms,
                           const PowerModel& model, Routing routing, double elapsed_ms,
                           RouteWorkspace& workspace) {
  // All §5 heuristics and their analogues are single-path.
  RouteResult result;
  result.elapsed_ms = elapsed_ms;
  if (const auto breakdown =
          price_routing(topology, comms, routing, model, workspace.final_loads);
      breakdown.has_value()) {
    result.valid = true;
    result.power = breakdown->total;
    result.breakdown = *breakdown;
  }
  result.routing = std::move(routing);
  return result;
}

RouteResult Router::finish(const topo::Topology& topology, const CommSet& comms,
                           const PowerModel& model, RouteWorkspace& workspace,
                           double elapsed_ms) {
  return finish(topology, comms, model, workspace.single_path_routing(comms), elapsed_ms,
                workspace);
}

RouteResult Router::abandon(double elapsed_ms) noexcept {
  obs::bump(obs::Metric::kRouteAbandoned);
  RouteResult result;
  result.elapsed_ms = elapsed_ms;
  return result;
}

std::unique_ptr<Router> make_router(RouterKind kind) {
  switch (kind) {
    case RouterKind::kXY: return std::make_unique<XYRouter>();
    case RouterKind::kSG: return std::make_unique<SimpleGreedyRouter>();
    case RouterKind::kIG: return std::make_unique<ImprovedGreedyRouter>();
    case RouterKind::kTB: return std::make_unique<TwoBendRouter>();
    case RouterKind::kXYI: return std::make_unique<XYImproverRouter>();
    case RouterKind::kPR: return std::make_unique<PathRemoverRouter>();
    case RouterKind::kBest: return std::make_unique<BestRouter>();
  }
  PAMR_CHECK(false, "unknown router kind");
  return nullptr;  // unreachable
}

const Router& shared_router(RouterKind kind) {
  static const auto routers = [] {
    std::array<std::unique_ptr<Router>, kNumBaseRouters + 1> made;
    for (std::size_t k = 0; k < made.size(); ++k) {
      made[k] = make_router(static_cast<RouterKind>(k));
    }
    return made;
  }();
  const auto index = static_cast<std::size_t>(kind);
  PAMR_CHECK(index < routers.size(), "unknown router kind");
  return *routers[index];
}

}  // namespace pamr

#include "pamr/routing/router.hpp"

#include <array>

#include "pamr/obs/obs.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/routing/workspace.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

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

RouteResult Router::route(const Mesh& mesh, const CommSet& comms,
                          const PowerModel& model, RouteGoal goal) const {
  RouteWorkspace workspace;
  return route(mesh, comms, model, goal, workspace);
}

RouteResult Router::route(const Mesh& mesh, const CommSet& comms,
                          const PowerModel& model, RouteGoal goal,
                          RouteWorkspace& workspace) const {
  check_comm_set(mesh, comms);
  obs::bump(obs::Metric::kRouteCalls);
  const obs::PhaseScope phase(obs::route_phase(name()));
  RouteResult result = route_impl(mesh, comms, model, goal, workspace);
#if PAMR_CHECK_LEVEL >= 2
  if (goal == RouteGoal::kVerdict && !result.routing.has_value()) {
    // The witness must not lie: the full routing is invalid as well. Muted,
    // so the re-run leaves the deterministic counters as they were.
    const obs::MuteScope mute;
    RouteResult full = route_impl(mesh, comms, model, RouteGoal::kRouting, workspace);
    PAMR_INVARIANT("route-abandon", !full.valid,
                   "an abandoned route call's full routing is valid");
    workspace.recycle(full);
  }
#endif
  return result;
}

namespace {

/// finish()'s verdict on a structurally checked routing, priced on `loads`.
void price(const Mesh& mesh, const CommSet& comms, const PowerModel& model,
           const Routing& routing, LinkLoads& loads, RouteResult& result) {
  // All §5 heuristics are single-path; multi-path callers go through the
  // opt/ layer which validates with its own s. Structure must always hold —
  // a structurally broken routing is a bug, not a "failure".
  const ValidationResult structure = validate_structure(mesh, comms, routing, 1);
  PAMR_ASSERT_MSG(structure.ok, structure.error.c_str());

  loads.reset(mesh.num_links());
  loads.add_routing(routing);
  if (const auto breakdown = model.breakdown(loads.values()); breakdown.has_value()) {
    result.valid = true;
    result.power = breakdown->total;
    result.breakdown = *breakdown;
  }
}

}  // namespace

RouteResult Router::finish(const Mesh& mesh, const CommSet& comms,
                           const PowerModel& model, Routing routing,
                           double elapsed_ms) {
  RouteResult result;
  result.elapsed_ms = elapsed_ms;
  LinkLoads loads;
  price(mesh, comms, model, routing, loads, result);
  result.routing = std::move(routing);
  return result;
}

RouteResult Router::finish(const Mesh& mesh, const CommSet& comms,
                           const PowerModel& model, RouteWorkspace& workspace,
                           double elapsed_ms) {
  RouteResult result;
  result.elapsed_ms = elapsed_ms;
  result.routing = workspace.single_path_routing(comms);
  price(mesh, comms, model, *result.routing, workspace.final_loads, result);
  return result;
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

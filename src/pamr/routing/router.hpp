// Router interface and registry for the paper's routing policies (§5/§6):
// XY, SG (simple greedy), IG (improved greedy), TB (two-bend), XYI (XY
// improver), PR (path remover), and the BEST meta-heuristic.
//
// By default a router always *constructs* a routing; the RouteResult
// records whether that routing is valid under the model (the paper's
// "failure" outcome is an infeasible or absent routing). Power figures are
// only present for valid results. A caller that needs only the verdict asks
// for RouteGoal::kVerdict, which lets a policy stop as soon as its routing
// is provably invalid (see RouteGoal).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pamr/comm/communication.hpp"
#include "pamr/mesh/mesh.hpp"
#include "pamr/power/power_model.hpp"
#include "pamr/routing/routing.hpp"
#include "pamr/routing/validate.hpp"

namespace pamr {

enum class RouterKind : std::uint8_t { kXY = 0, kSG, kIG, kTB, kXYI, kPR, kBest };

inline constexpr std::size_t kNumBaseRouters = 6;  // all but kBest

[[nodiscard]] const char* to_cstring(RouterKind kind) noexcept;

/// The six concrete policies, in the paper's presentation order.
[[nodiscard]] std::vector<RouterKind> all_base_routers();

/// Diagnostics of a move-based local search (XYI today; policies without
/// one keep the defaults). `converged == false` means the safety cap
/// truncated the descent — the routing is still structurally valid but may
/// be quietly worse than the fixed point, so callers must not read a capped
/// run as a converged one.
struct LocalSearchStats {
  std::size_t moves = 0;  ///< improving moves applied
  bool converged = true;  ///< false iff the move cap truncated the descent
};

/// What a caller needs from one Router::route call.
///
///   kRouting  the constructed routing, valid or not (the default). Callers
///             that read an overloaded routing — map::placement's penalized
///             score, the examples, the differential suites — need this.
///   kVerdict  only valid, power and breakdown (exp::run_instance). SG, TB,
///             IG and PR (Mode::kIncremental) then stop as soon as they hold
///             an *overload witness*: a link whose load is bound to reach
///             the final routing and already passes
///             PowerModel::proven_overload(load, model.limit()). Such a call
///             is *abandoned*: it returns valid=false with no routing and
///             bumps route.abandoned. The witness load only grows and
///             the margin covers summation order, so the full routing would
///             have been invalid too. A call that is not abandoned returns
///             exactly the kRouting result, routing included, bit for bit.
///             The other policies ignore the goal.
enum class RouteGoal : std::uint8_t { kRouting, kVerdict };

struct RouteResult {
  std::optional<Routing> routing;  ///< constructed routing (may be invalid;
                                   ///< absent when a kVerdict call abandoned)
  bool valid = false;              ///< feasibility under the model
  double power = 0.0;              ///< total power, defined iff valid
  PowerBreakdown breakdown;        ///< static/dynamic split, defined iff valid
  double elapsed_ms = 0.0;         ///< wall-clock construction time
  LocalSearchStats local_search;   ///< local-search diagnostics (XYI)

  /// The paper's plotted metric: 1/P for a valid routing, 0 on failure.
  [[nodiscard]] double inverse_power() const noexcept {
    return valid && power > 0.0 ? 1.0 / power : 0.0;
  }
};

class RouteWorkspace;  // routing/workspace.hpp

class Router {
 public:
  virtual ~Router() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Builds a routing for `comms` on `mesh` under `model`. Validates the
  /// communication set first (check_comm_set): malformed user input —
  /// non-finite or non-positive weights, out-of-bounds or coincident
  /// endpoints — throws std::logic_error before any heuristic work, for
  /// every policy. Implementations must be deterministic functions of
  /// their arguments. `goal` is the per-call contract of RouteGoal; at
  /// PAMR_CHECK_LEVEL >= 2 every abandoned call re-runs the full routing
  /// (with telemetry muted) and asserts that it is invalid.
  ///
  /// This form builds a call-local RouteWorkspace for the call.
  [[nodiscard]] RouteResult route(const Mesh& mesh, const CommSet& comms,
                                  const PowerModel& model,
                                  RouteGoal goal = RouteGoal::kRouting) const;

  /// The same call on a caller-owned workspace, whose buffers it reuses
  /// (see routing/workspace.hpp). The result is bit-identical to the form
  /// above; hand its routing back with RouteWorkspace::recycle when done.
  [[nodiscard]] RouteResult route(const Mesh& mesh, const CommSet& comms,
                                  const PowerModel& model, RouteGoal goal,
                                  RouteWorkspace& workspace) const;

 protected:
  /// Policy body; `comms` has already passed check_comm_set. Policies
  /// without per-call scratch ignore `workspace`.
  [[nodiscard]] virtual RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                               const PowerModel& model, RouteGoal goal,
                                               RouteWorkspace& workspace) const = 0;

  /// Shared epilogue: validates, evaluates power and stamps the result.
  [[nodiscard]] static RouteResult finish(const Mesh& mesh, const CommSet& comms,
                                          const PowerModel& model, Routing routing,
                                          double elapsed_ms);

  /// finish() of the single-path routing held in workspace.paths, built in
  /// recycled storage and priced on workspace.final_loads.
  [[nodiscard]] static RouteResult finish(const Mesh& mesh, const CommSet& comms,
                                          const PowerModel& model,
                                          RouteWorkspace& workspace, double elapsed_ms);

  /// The result of an abandoned kVerdict call (invalid, no routing); bumps
  /// route.abandoned.
  [[nodiscard]] static RouteResult abandon(double elapsed_ms) noexcept;
};

[[nodiscard]] std::unique_ptr<Router> make_router(RouterKind kind);

}  // namespace pamr

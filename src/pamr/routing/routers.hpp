// Concrete router classes (paper §5). Each lives in its own translation
// unit; the algorithmic interpretation choices are documented there and
// summarized in DESIGN.md §3.
#pragma once

#include <cstdint>
#include <functional>

#include "pamr/routing/router.hpp"

namespace pamr {

/// XY routing (§1): horizontal first, then vertical. The baseline.
class XYRouter final : public Router {
 public:
  XYRouter() noexcept : Router(RouterKind::kXY) {}

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal goal,
                                       RouteWorkspace& workspace) const override;
};

/// SG — simple greedy (§5.1): communications by decreasing weight, path
/// built hop by hop onto the least-loaded feasible next link, ties broken
/// toward the source–sink diagonal.
class SimpleGreedyRouter final : public Router {
 public:
  SimpleGreedyRouter() noexcept : Router(RouterKind::kSG) {}

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal goal,
                                       RouteWorkspace& workspace) const override;
};

/// IG — improved greedy (§5.2): virtual diagonal-spread pre-routing, then
/// per-communication commitment guided by a per-cut lower bound, evaluated
/// from a per-communication cut cache (see improved_greedy.cpp). The seed's
/// full-rescan loop is the test oracle in tests/seed_routers.hpp.
class ImprovedGreedyRouter final : public Router {
 public:
  ImprovedGreedyRouter() noexcept : Router(RouterKind::kIG) {}

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal goal,
                                       RouteWorkspace& workspace) const override;
};

/// TB — two-bend (§5.3): evaluates every Manhattan path with at most two
/// bends (|Δu| + |Δv| of them) and keeps the cheapest.
class TwoBendRouter final : public Router {
 public:
  TwoBendRouter() noexcept : Router(RouterKind::kTB) {}

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal goal,
                                       RouteWorkspace& workspace) const override;
};

/// Test/diagnostic hook for XYImproverRouter: while attached, the router
/// appends the penalized LoadCost total after every applied move, so tests
/// can assert the descent is strictly decreasing. The measurement is
/// O(links) per move — leave unset outside tests.
struct XyiTrace {
  std::vector<double> penalized_totals;
};

/// XYI — XY improver (§5.4): local search from the XY routing, unloading
/// the most-loaded links via elementary staircase detours. The descent runs
/// on a CrossingIndex and a LoadOrder (see xy_improver.cpp); the seed's
/// sort-and-rescan loop is the test oracle in tests/seed_routers.hpp.
class XYImproverRouter final : public Router {
 public:
  XYImproverRouter() noexcept : Router(RouterKind::kXYI) {}

  void set_trace(XyiTrace* trace) noexcept { trace_ = trace; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal goal,
                                       RouteWorkspace& workspace) const override;

 private:
  XyiTrace* trace_ = nullptr;
};

/// Test/diagnostic hook for PathRemoverRouter: while attached, the router
/// appends one record per removal, taken after its re-spread, so tests can
/// pin the one-pass re-spread against the seed's two passes at every step.
/// The record copies every link's load — leave it unset outside tests.
struct PrTrace {
  struct Removal {
    std::size_t comm;                      ///< the communication that lost a link
    std::int32_t depth;                    ///< the removed link's cut
    std::vector<std::uint32_t> cut_sizes;  ///< that communication's cuts, after
    std::vector<double> loads;             ///< every link's virtual load, after
  };
  std::vector<Removal> removals;
};

/// PR — path remover (§5.5): starts from the all-paths virtual spread and
/// deletes links from the most-loaded ones until each communication keeps a
/// single path. The removal loop runs on a LoadIndex (see path_remover.cpp);
/// the seed's sort-and-rescan loop is the test oracle in
/// tests/seed_routers.hpp.
class PathRemoverRouter final : public Router {
 public:
  PathRemoverRouter() noexcept : Router(RouterKind::kPR) {}

  void set_trace(PrTrace* trace) noexcept { trace_ = trace; }

  /// The removal step alone, for the prune tests: builds `comm`'s full DAG
  /// in `workspace.pr` and removes each link next() names (its cut must
  /// keep ≥ 2 links) until it names kInvalidLink.
  static void remove_links(const Mesh& mesh, const Communication& comm,
                           RouteWorkspace& workspace, const std::function<LinkId()>& next);

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal goal,
                                       RouteWorkspace& workspace) const override;

 private:
  PrTrace* trace_ = nullptr;
};

/// BEST (§6): runs all six base policies on the same topology and returns
/// the valid result with the lowest power (elapsed time is the sum over all
/// of them).
class BestRouter final : public Router {
 public:
  BestRouter() noexcept : Router(RouterKind::kBest) {}

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal goal,
                                       RouteWorkspace& workspace) const override;
  [[nodiscard]] RouteResult route_analogue(const topo::Topology& topology,
                                           const CommSet& comms, const PowerModel& model,
                                           RouteWorkspace& workspace) const override;
};

}  // namespace pamr

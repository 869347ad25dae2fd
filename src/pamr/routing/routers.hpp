// Concrete router classes (paper §5). Each lives in its own translation
// unit; the algorithmic interpretation choices are documented there and
// summarized in DESIGN.md §3.
#pragma once

#include <cstdint>

#include "pamr/routing/router.hpp"

namespace pamr {

/// XY routing (§1): horizontal first, then vertical. The baseline.
class XYRouter final : public Router {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "XY"; }

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
  [[nodiscard]] const char* name() const noexcept override { return "SG"; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal goal,
                                       RouteWorkspace& workspace) const override;
};

/// IG — improved greedy (§5.2): virtual diagonal-spread pre-routing, then
/// per-communication commitment guided by a per-cut lower bound.
class ImprovedGreedyRouter final : public Router {
 public:
  /// Implementation selector, mirroring PathRemoverRouter. kIncremental
  /// (default) evaluates the per-cut lower bound from a per-communication
  /// cut cache: every cut link's cost at (load + δ_i) is computed once
  /// after the communication's virtual spread is removed, and each bound is
  /// a sum of windowed minima over those cached values — loads at depths
  /// not yet committed never change during the descent, so a hit is exact.
  /// kReference is the seed's loop — a full rescan of every sub-rectangle
  /// cut per candidate per hop — kept for differential testing. Both
  /// produce bit-identical routings (same min chains, same ascending-depth
  /// summation order, same strict-< vertical-first tie-break).
  enum class Mode : std::uint8_t { kIncremental, kReference };

  explicit ImprovedGreedyRouter(Mode mode = Mode::kIncremental) noexcept
      : mode_(mode) {}

  [[nodiscard]] const char* name() const noexcept override { return "IG"; }
  [[nodiscard]] Mode mode() const noexcept { return mode_; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal goal,
                                       RouteWorkspace& workspace) const override;

 private:
  [[nodiscard]] RouteResult route_incremental(const Mesh& mesh, const CommSet& comms,
                                              const PowerModel& model, RouteGoal goal,
                                              RouteWorkspace& workspace) const;
  [[nodiscard]] RouteResult route_reference(const Mesh& mesh, const CommSet& comms,
                                            const PowerModel& model) const;

  Mode mode_;
};

/// TB — two-bend (§5.3): evaluates every Manhattan path with at most two
/// bends (|Δu| + |Δv| of them) and keeps the cheapest.
class TwoBendRouter final : public Router {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "TB"; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal goal,
                                       RouteWorkspace& workspace) const override;
};

/// Test/diagnostic hook for XYImproverRouter: while attached, both modes
/// append the penalized LoadCost total after every applied move, so tests
/// can assert the descent is strictly decreasing. The measurement is
/// O(links) per move — leave unset outside tests.
struct XyiTrace {
  std::vector<double> penalized_totals;
};

/// XYI — XY improver (§5.4): local search from the XY routing, unloading
/// the most-loaded links via elementary staircase detours.
class XYImproverRouter final : public Router {
 public:
  /// Implementation selector, mirroring PathRemoverRouter. kIncremental
  /// (default) drives the descent through a CrossingIndex (link→crossing
  /// communications, per-core dirty stamping, no-improving-move
  /// memoization) plus a LoadIndex (hot-link heap re-keyed per move, read
  /// in order through a LoadIndex::Walk);
  /// kReference is the seed's loop — a full stable_sort of every mesh link
  /// and an every-communication rescan per move — kept for differential
  /// testing. Both produce bit-identical routings, including the
  /// stable-sort tie-break order and the paper's preferred-side-first move
  /// priority (see xy_moves.hpp and crossing_index.hpp).
  enum class Mode : std::uint8_t { kIncremental, kReference };

  explicit XYImproverRouter(Mode mode = Mode::kIncremental) noexcept : mode_(mode) {}

  [[nodiscard]] const char* name() const noexcept override { return "XYI"; }
  [[nodiscard]] Mode mode() const noexcept { return mode_; }

  void set_trace(XyiTrace* trace) noexcept { trace_ = trace; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal goal,
                                       RouteWorkspace& workspace) const override;

 private:
  [[nodiscard]] RouteResult route_incremental(const Mesh& mesh, const CommSet& comms,
                                              const PowerModel& model,
                                              RouteWorkspace& workspace) const;
  [[nodiscard]] RouteResult route_reference(const Mesh& mesh, const CommSet& comms,
                                            const PowerModel& model) const;

  Mode mode_;
  XyiTrace* trace_ = nullptr;
};

/// PR — path remover (§5.5): starts from the all-paths virtual spread and
/// deletes links from the most-loaded ones until each communication keeps a
/// single path.
class PathRemoverRouter final : public Router {
 public:
  /// Implementation selector. kIncremental drives the removal loop through
  /// the LoadIndex (hot-link heap re-keyed per removal + per-link
  /// membership lists) and is the default; kReference is the seed's loop — a full
  /// stable_sort of every mesh link and a rescan of every communication
  /// per removal — kept for differential testing. Both produce
  /// bit-identical routings: most-loaded link first with the seed's
  /// stable-history tie-break (see load_index.hpp), heaviest communication
  /// first with ties by original index.
  enum class Mode : std::uint8_t { kIncremental, kReference };

  explicit PathRemoverRouter(Mode mode = Mode::kIncremental) noexcept
      : mode_(mode) {}

  [[nodiscard]] const char* name() const noexcept override { return "PR"; }
  [[nodiscard]] Mode mode() const noexcept { return mode_; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal goal,
                                       RouteWorkspace& workspace) const override;

 private:
  [[nodiscard]] RouteResult route_incremental(const Mesh& mesh, const CommSet& comms,
                                              const PowerModel& model, RouteGoal goal,
                                              RouteWorkspace& workspace) const;
  [[nodiscard]] RouteResult route_reference(const Mesh& mesh, const CommSet& comms,
                                            const PowerModel& model,
                                            RouteWorkspace& workspace) const;

  Mode mode_;
};

/// BEST (§6): runs all six base policies and returns the valid result with
/// the lowest power (elapsed time is the sum over all of them).
class BestRouter final : public Router {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "BEST"; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal goal,
                                       RouteWorkspace& workspace) const override;
};

}  // namespace pamr

// Reusable buffers of the routing layer.
//
// A route call of SG, IG, TB, XYI or PR needs per-call scratch: working
// loads, per-communication rectangles and cuts, member lists, the
// LoadIndex heap, the LoadOrder array, the finished paths. A
// RouteWorkspace owns all of it, so a caller that routes many instances —
// the campaign runs six policies on every instance — allocates only while
// the buffers grow to the largest instance seen, and nothing once they
// have.
//
// Ownership. One workspace serves one route call at a time.
// scenario::run_unit_instances keeps one per thread (thread_local) for
// the thread's lifetime and passes it through exp::run_instance to every
// router; tests may own one directly. Router::route without a workspace
// builds a call-local one and runs the same code, so the two entry points
// cannot drift apart.
//
// Reset. Each policy re-initializes every buffer it reads at the start of
// its call (sizes assigned, contents refilled), so a workspace carries
// capacity, never values, from one call to the next: routing an instance
// on a used workspace gives the bits a fresh one gives
// (tests/test_route_workspace.cpp pins this for every policy and goal).
// Finished routings go back through recycle(), which lets the next result
// reuse their per-communication vectors.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pamr/comm/communication.hpp"
#include "pamr/mesh/rectangle.hpp"
#include "pamr/routing/crossing_index.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/load_index.hpp"
#include "pamr/routing/router.hpp"
#include "pamr/routing/routing.hpp"

namespace pamr {

/// One Manhattan path per communication in one flat link array: path i
/// holds its |Δu|+|Δv| links at [offset(i), offset(i + 1)).
class PathTable {
 public:
  /// Sizes the table for `comms` (link contents are left to the caller).
  void reset(const CommSet& comms);

  [[nodiscard]] std::size_t size() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::uint32_t offset(std::size_t i) const { return offsets_[i]; }
  [[nodiscard]] std::span<LinkId> path(std::size_t i) {
    return {links_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  [[nodiscard]] std::span<const LinkId> path(std::size_t i) const {
    return {links_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<LinkId> links_;
};

class RouteWorkspace {
 public:
  RouteWorkspace() = default;
  // Scratch of one thread's route calls: copying it would only duplicate
  // buffers, so no copy is made by accident.
  RouteWorkspace(const RouteWorkspace&) = delete;
  RouteWorkspace& operator=(const RouteWorkspace&) = delete;

  /// Takes the routing out of `result` (if it holds one) so its storage
  /// serves a later result.
  void recycle(RouteResult& result);
  void recycle(Routing&& routing);

  /// The single-path routing of `comms` whose path i is paths.path(i),
  /// built in recycled storage when there is some. Equal to
  /// make_single_path_routing of the same paths.
  [[nodiscard]] Routing single_path_routing(const CommSet& comms);

  // -- Shared by the policies --------------------------------------------
  std::vector<std::size_t> order;  ///< communications by decreasing weight
  LinkLoads loads;                 ///< the policy's working loads
  LinkLoads final_loads;           ///< Router::finish's loads of the result
  PathTable paths;                 ///< the finished path of each communication

  // -- IG (improved_greedy.cpp) ------------------------------------------
  struct ImprovedGreedy {
    std::vector<CommRect> rects;
    std::vector<double> committed;  ///< committed load per link (witness)
    // The per-communication cut cache, see CutCache.
    std::vector<double> cut_costs;
    std::vector<LinkId> cut_links;
    std::vector<std::int32_t> cell_start;
    std::vector<std::int32_t> depth_base;
    std::vector<std::int32_t> slot_of_link;
  } ig;

  // -- XYI (xy_improver.cpp) ---------------------------------------------
  struct XyImprover {
    /// Visited cores per communication, flat: communication i's cores sit
    /// at [paths.offset(i) + i, paths.offset(i + 1) + i + 1).
    std::vector<Coord> cores;
    std::vector<Coord> old_cores;  ///< the rewritten path's previous cores
    std::vector<double> cost_now;  ///< cost(load) per link
    LoadOrder order;
    CrossingIndex crossings;
    TouchLog log;
    std::vector<LinkId> changed;
  } xyi;

  // -- PR (path_remover.cpp) ---------------------------------------------
  struct PathRemover {
    std::vector<CommRect> rects;
    std::vector<char> allowed;             ///< comm-major, one flag per link
    std::vector<LinkId> cut_links;         ///< comm-major, then depth-major
    std::vector<std::uint32_t> cut_begin;  ///< per (comm, depth): first slot
    std::vector<std::uint32_t> cut_size;   ///< per (comm, depth): live links
    std::vector<std::uint32_t> depth_base; ///< per comm: its depth-0 entry
    std::vector<char> in_degree;           ///< comm-major, live in-links per core
    std::vector<char> out_degree;          ///< comm-major, live out-links per core
    std::vector<Coord> dead;               ///< the prune cascade's stack of cells
    std::vector<double> forced;            ///< forced load per link (witness)
    std::vector<std::uint32_t> old_size;   ///< per depth: re-spread's old cut sizes
    LoadIndex index;
    std::vector<LinkId> changed;
    std::vector<LinkId> singled;
  } pr;

 private:
  std::vector<Routing> spare_routings_;
};

}  // namespace pamr

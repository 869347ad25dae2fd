// Routing validator — the referee for every heuristic, solver and test.
//
// A routing is valid (paper §3.4) iff:
//   * it has one entry per communication,
//   * each communication is split into 1..s flows of positive weight whose
//     weights sum to δ_i,
//   * every flow's path is a shortest path of the topology from the
//     communication's source to its sink (a Manhattan path on the mesh),
//   * no link's accumulated load exceeds the model capacity.
//
// The checks take any topology; each asks Topology::is_shortest once per
// flow path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "pamr/comm/communication.hpp"
#include "pamr/power/power_model.hpp"
#include "pamr/routing/routing.hpp"
#include "pamr/topo/topology.hpp"

namespace pamr {

class LinkLoads;

struct ValidationResult {
  bool ok = false;
  std::string error;  ///< empty iff ok

  explicit operator bool() const noexcept { return ok; }
};

/// `max_paths` is the routing rule's s (1 for XY/1-MP); pass 0 for
/// unbounded (max-MP).
[[nodiscard]] ValidationResult validate_routing(const topo::Topology& topology,
                                                const CommSet& comms,
                                                const Routing& routing,
                                                const PowerModel& model,
                                                std::size_t max_paths = 1);

/// Structure-only variant: one entry per communication, 1..max_paths flows
/// of positive weight summing to δ_i, every flow a shortest path, but no
/// bandwidth check (used while reasoning about intentionally infeasible
/// routings).
[[nodiscard]] ValidationResult validate_structure(const topo::Topology& topology,
                                                  const CommSet& comms,
                                                  const Routing& routing,
                                                  std::size_t max_paths = 1);

/// The one pricing body (Router::finish, route_split, solve_exact_1mp):
/// asserts validate_structure, sums the link loads into `loads` (reset
/// first) and prices them; nullopt when a link is overloaded.
[[nodiscard]] std::optional<PowerBreakdown> price_routing(
    const topo::Topology& topology, const CommSet& comms, const Routing& routing,
    const PowerModel& model, LinkLoads& loads, std::size_t max_paths = 1);

/// Input validation for the public routing boundary (Router::route, on
/// every topology): every communication must have in-bounds endpoints,
/// distinct src and snk, and a finite, strictly positive weight. Throws
/// std::logic_error (via PAMR_CHECK) naming the offending communication;
/// does nothing on a valid set. An empty CommSet is valid.
void check_comm_set(const topo::Topology& topology, const CommSet& comms);

}  // namespace pamr

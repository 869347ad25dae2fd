// Routing validator — the referee for every heuristic, solver and test.
//
// A routing is valid (paper §3.4) iff:
//   * it has one entry per communication,
//   * each communication is split into 1..s flows of positive weight whose
//     weights sum to δ_i,
//   * every flow's path is a Manhattan path from the communication's source
//     to its sink,
//   * no link's accumulated load exceeds the model capacity.
//
// Each check has one body, over a RoutingNetwork: the Mesh overloads below
// test paths with is_manhattan, and topo/validate.hpp's Topology overloads
// with the topology's own shortest-path test.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "pamr/comm/communication.hpp"
#include "pamr/mesh/mesh.hpp"
#include "pamr/power/power_model.hpp"
#include "pamr/routing/routing.hpp"

namespace pamr {

struct ValidationResult {
  bool ok = false;
  std::string error;  ///< empty iff ok

  explicit operator bool() const noexcept { return ok; }
};

/// What the checks read from the network a routing lives on. The callables
/// borrow the network, which must outlive the view.
struct RoutingNetwork {
  const char* name = "";  ///< "mesh", "torus", ... in error messages
  std::int32_t num_links = 0;
  std::function<bool(Coord)> contains;
  /// True iff the path is a connected shortest path from its src to its snk.
  std::function<bool(const Path&)> is_shortest;
  std::function<std::string(LinkId)> describe_link;
};

[[nodiscard]] ValidationResult validate_structure(const RoutingNetwork& network,
                                                  const CommSet& comms,
                                                  const Routing& routing,
                                                  std::size_t max_paths);
[[nodiscard]] ValidationResult validate_routing(const RoutingNetwork& network,
                                                const CommSet& comms,
                                                const Routing& routing,
                                                const PowerModel& model,
                                                std::size_t max_paths);
void check_comm_set(const RoutingNetwork& network, const CommSet& comms);

/// `max_paths` is the routing rule's s (1 for XY/1-MP); pass 0 for
/// unbounded (max-MP).
[[nodiscard]] ValidationResult validate_routing(const Mesh& mesh, const CommSet& comms,
                                                const Routing& routing,
                                                const PowerModel& model,
                                                std::size_t max_paths = 1);

/// Structure-only variant: checks splitting and Manhattan paths but not
/// bandwidth (used while reasoning about intentionally infeasible routings).
[[nodiscard]] ValidationResult validate_structure(const Mesh& mesh, const CommSet& comms,
                                                  const Routing& routing,
                                                  std::size_t max_paths = 1);

/// Input validation for the public routing boundary (Router::route): every
/// communication must have in-bounds endpoints, distinct src and snk, and a
/// finite, strictly positive weight. Throws std::logic_error (via
/// PAMR_CHECK) naming the offending communication; does nothing on a valid
/// set. An empty CommSet is valid.
void check_comm_set(const Mesh& mesh, const CommSet& comms);

}  // namespace pamr

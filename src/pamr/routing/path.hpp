// Paths (paper §3.2): a path is a chain of communication links from the
// source core to the sink core (struct Path, topo/link.hpp). The library
// restricts itself to Manhattan (shortest, monotone) paths as the paper does
// (§3.3); Mesh::is_shortest verifies that property and the validator
// enforces it. The helpers below build and render mesh paths.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "pamr/mesh/mesh.hpp"
#include "pamr/topo/link.hpp"

namespace pamr {

/// Builds a path from the visited cores (size ≥ 1); consecutive cores must
/// be neighbours.
[[nodiscard]] Path path_from_cores(const Mesh& mesh, const std::vector<Coord>& cores);

/// Recovers the visited cores (length()+1 of them) from the link chain.
[[nodiscard]] std::vector<Coord> cores_of_path(const Mesh& mesh, const Path& path);

/// The XY route: horizontal first, then vertical (paper §1). Always exists.
[[nodiscard]] Path xy_path(const Mesh& mesh, Coord src, Coord snk);

/// xy_path's links written into `links`, which holds exactly
/// manhattan_distance(src, snk) of them.
void write_xy_path(const Mesh& mesh, Coord src, Coord snk, std::span<LinkId> links);

/// The YX route: vertical first, then horizontal (used by Lemma 2).
[[nodiscard]] Path yx_path(const Mesh& mesh, Coord src, Coord snk);

/// Human-readable rendering "C(0,0) E C(0,1) S C(1,1)".
[[nodiscard]] std::string to_string(const Mesh& mesh, const Path& path);

}  // namespace pamr

// Paths (paper §3.2): a path is a chain of communication links from the
// source core to the sink core. The library restricts itself to Manhattan
// (shortest, monotone) paths as the paper does (§3.3); is_manhattan()
// verifies that property and the validator enforces it.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pamr/mesh/mesh.hpp"

namespace pamr {

struct Path {
  Coord src;
  Coord snk;
  std::vector<LinkId> links;  ///< consecutive links, links.size() == hops

  [[nodiscard]] std::int32_t length() const noexcept {
    return static_cast<std::int32_t>(links.size());
  }

  friend bool operator==(const Path&, const Path&) = default;
};

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

/// True iff the chain is connected, starts at src, ends at snk, and is a
/// shortest (monotone Manhattan) path.
[[nodiscard]] bool is_manhattan(const Mesh& mesh, const Path& path);

/// Human-readable rendering "C(0,0) E C(0,1) S C(1,1)".
[[nodiscard]] std::string to_string(const Mesh& mesh, const Path& path);

}  // namespace pamr

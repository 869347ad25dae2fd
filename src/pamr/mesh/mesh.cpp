#include "pamr/mesh/mesh.hpp"

#include "pamr/mesh/diagonal.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

namespace {

void build_mesh_links(topo::LinkTable& table) {
  // Enumerate links in a fixed, documented order: per core (row-major), per
  // direction (E, W, S, N). The order is part of the library's determinism
  // contract — link loads serialized by one build are comparable across
  // runs.
  for (std::int32_t u = 0; u < table.p; ++u) {
    for (std::int32_t v = 0; v < table.q; ++v) {
      const Coord from{u, v};
      for (int d = 0; d < kNumLinkDirs; ++d) {
        const Coord to = step(from, static_cast<LinkDir>(d));
        if (to.u < 0 || to.u >= table.p || to.v < 0 || to.v >= table.q) continue;
        table.add(from, d, to);
      }
    }
  }
}

}  // namespace

Mesh::Mesh(std::int32_t p, std::int32_t q)
    : Topology(topo::TopoKind::kRect, p, q, kNumLinkDirs, build_mesh_links) {}

std::int32_t Mesh::distance(Coord a, Coord b) const {
  PAMR_CHECK(contains(a) && contains(b), "core outside topology");
  return manhattan_distance(a, b);
}

std::vector<topo::TopoStep> Mesh::next_steps(Coord at, Coord snk) const {
  PAMR_CHECK(contains(at) && contains(snk), "core outside topology");
  std::vector<topo::TopoStep> steps;
  steps.reserve(2);
  if (at.v != snk.v) {
    const LinkDir dir = snk.v > at.v ? LinkDir::kEast : LinkDir::kWest;
    steps.push_back(topo::TopoStep{link_from(at, dir), step(at, dir)});
  }
  if (at.u != snk.u) {
    const LinkDir dir = snk.u > at.u ? LinkDir::kSouth : LinkDir::kNorth;
    steps.push_back(topo::TopoStep{link_from(at, dir), step(at, dir)});
  }
  return steps;
}

bool Mesh::is_shortest(const Path& path) const {
  // A connected chain from src to snk whose every hop takes one of the
  // quadrant's two directions is monotone in both coordinates, so its length
  // is the Manhattan distance: the direction test is what rejects detours.
  const QuadrantSteps steps = quadrant_steps(quadrant_of(path.src, path.snk));
  Coord at = path.src;
  for (const LinkId id : path.links) {
    if (id < 0 || id >= num_links()) return false;
    const LinkInfo& info = link(id);
    if (info.from != at) return false;
    if (info.dir != steps.vertical && info.dir != steps.horizontal) return false;
    at = info.to;
  }
  return at == path.snk;
}

std::vector<std::int32_t> Mesh::vc_classes(const Path& path) const {
  return std::vector<std::int32_t>(
      path.links.size(),
      static_cast<std::int32_t>(quadrant_of(path.src, path.snk)));
}

}  // namespace pamr

#include "pamr/mesh/diagonal.hpp"
#include "pamr/topo/topologies.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {
namespace topo {

namespace {

struct DiagOffset {
  std::int32_t du;
  std::int32_t dv;
};

/// Unit offsets of the diagonal directions, indexed by dir - kDirSE (the
/// quadrant order SE, SW, NW, NE).
constexpr DiagOffset kDiagOffsets[] = {{1, 1}, {1, -1}, {-1, -1}, {-1, 1}};

Coord diag_step(Coord c, std::int32_t dir) noexcept {
  if (dir < DiagTopology::kDirSE) return step(c, static_cast<LinkDir>(dir));
  const DiagOffset offset = kDiagOffsets[dir - DiagTopology::kDirSE];
  return {c.u + offset.du, c.v + offset.dv};
}

std::int32_t chebyshev_distance(Coord a, Coord b) noexcept {
  const std::int32_t du = a.u > b.u ? a.u - b.u : b.u - a.u;
  const std::int32_t dv = a.v > b.v ? a.v - b.v : b.v - a.v;
  return du > dv ? du : dv;
}

/// Per core (row-major), per direction E, W, S, N, SE, SW, NW, NE — the
/// four LinkDir families first, then the four diagonal families in quadrant
/// order, skipping the mesh boundary.
void build_diag_links(LinkTable& table) {
  for (std::int32_t u = 0; u < table.p; ++u) {
    for (std::int32_t v = 0; v < table.q; ++v) {
      const Coord from{u, v};
      for (std::int32_t d = 0; d < 8; ++d) {
        const Coord to = diag_step(from, d);
        if (to.u >= 0 && to.u < table.p && to.v >= 0 && to.v < table.q) {
          table.add(from, d, to);
        }
      }
    }
  }
}

}  // namespace

DiagTopology::DiagTopology(std::int32_t p, std::int32_t q)
    : Topology(TopoKind::kDiag, p, q, 8, build_diag_links) {}

std::int32_t DiagTopology::distance(Coord a, Coord b) const {
  PAMR_CHECK(contains(a) && contains(b), "core outside topology");
  return chebyshev_distance(a, b);
}

std::vector<TopoStep> DiagTopology::next_steps(Coord at, Coord snk) const {
  PAMR_CHECK(contains(at) && contains(snk), "core outside topology");
  std::vector<TopoStep> steps;
  steps.reserve(2);
  const std::int32_t du = snk.u - at.u;
  const std::int32_t dv = snk.v - at.v;
  const auto push = [&](std::int32_t dir) {
    const LinkId id = link_from(at, dir);
    PAMR_ASSERT(id != kInvalidLink);
    steps.push_back(TopoStep{id, link(id).to});
  };
  if (du != 0 && dv != 0) {
    // The quadrant's diagonal always stays shortest and is canonical; the
    // dominant axis's straight step stays shortest only while that axis
    // strictly dominates (at |du| == |dv| a straight step leaves the
    // Chebyshev distance unchanged).
    const Quadrant quadrant = quadrant_of(at, snk);
    push(kDirSE + static_cast<std::int32_t>(quadrant));
    if (du > dv && du > -dv) push(static_cast<std::int32_t>(LinkDir::kSouth));
    if (-du > dv && -du > -dv) push(static_cast<std::int32_t>(LinkDir::kNorth));
    if (dv > du && dv > -du) push(static_cast<std::int32_t>(LinkDir::kEast));
    if (-dv > du && -dv > -du) push(static_cast<std::int32_t>(LinkDir::kWest));
  } else if (dv != 0) {
    push(static_cast<std::int32_t>(dv > 0 ? LinkDir::kEast : LinkDir::kWest));
  } else if (du != 0) {
    push(static_cast<std::int32_t>(du > 0 ? LinkDir::kSouth : LinkDir::kNorth));
  }
  return steps;
}

std::vector<std::int32_t> DiagTopology::vc_classes(const Path& path) const {
  return std::vector<std::int32_t>(
      path.links.size(),
      static_cast<std::int32_t>(quadrant_of(path.src, path.snk)));
}

}  // namespace topo
}  // namespace pamr

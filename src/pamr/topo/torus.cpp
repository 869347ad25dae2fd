#include "pamr/topo/topologies.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {
namespace topo {

namespace {

/// Coordinate one step in `dir` with wraparound.
Coord torus_step(Coord c, LinkDir dir, std::int32_t p, std::int32_t q) noexcept {
  Coord to = step(c, dir);
  if (to.v < 0) to.v = q - 1;
  if (to.v >= q) to.v = 0;
  if (to.u < 0) to.u = p - 1;
  if (to.u >= p) to.u = 0;
  return to;
}

/// Forward (positive-direction) offset from `a` to `b` on a ring of size n.
std::int32_t forward_offset(std::int32_t a, std::int32_t b, std::int32_t n) noexcept {
  const std::int32_t d = (b - a) % n;
  return d < 0 ? d + n : d;
}

std::int32_t ring_distance(std::int32_t a, std::int32_t b, std::int32_t n) noexcept {
  const std::int32_t forward = forward_offset(a, b, n);
  return forward < n - forward ? forward : n - forward;
}

/// Same enumeration discipline as Mesh: per core (row-major), per direction
/// (E, W, S, N). Unlike the mesh every direction exists at every core —
/// except along a dimension-1 axis, where stepping returns to the same core
/// and the link is omitted (no self-links).
void build_torus_links(LinkTable& table) {
  for (std::int32_t u = 0; u < table.p; ++u) {
    for (std::int32_t v = 0; v < table.q; ++v) {
      const Coord from{u, v};
      for (int d = 0; d < kNumLinkDirs; ++d) {
        const auto dir = static_cast<LinkDir>(d);
        if (is_horizontal(dir) ? table.q == 1 : table.p == 1) continue;
        table.add(from, d, torus_step(from, dir, table.p, table.q));
      }
    }
  }
}

}  // namespace

TorusTopology::TorusTopology(std::int32_t p, std::int32_t q)
    : Topology(TopoKind::kTorus, p, q, kNumLinkDirs, build_torus_links) {}

std::int32_t TorusTopology::distance(Coord a, Coord b) const {
  PAMR_CHECK(contains(a) && contains(b), "core outside topology");
  return ring_distance(a.u, b.u, p()) + ring_distance(a.v, b.v, q());
}

std::vector<TopoStep> TorusTopology::next_steps(Coord at, Coord snk) const {
  PAMR_CHECK(contains(at) && contains(snk), "core outside topology");
  std::vector<TopoStep> steps;
  steps.reserve(2);
  const auto push = [&](LinkDir dir) {
    const LinkId id = link_from(at, static_cast<std::int32_t>(dir));
    PAMR_ASSERT(id != kInvalidLink);
    steps.push_back(TopoStep{id, link(id).to});
  };
  // Horizontal first (the XY discipline), East before West: at exactly half
  // an even ring both directions are minimal and East is canonical.
  const std::int32_t forward_v = forward_offset(at.v, snk.v, q());
  if (forward_v != 0) {
    if (2 * forward_v <= q()) push(LinkDir::kEast);
    if (2 * forward_v >= q()) push(LinkDir::kWest);
  }
  // Vertical, South (the forward +u direction) before North.
  const std::int32_t forward_u = forward_offset(at.u, snk.u, p());
  if (forward_u != 0) {
    if (2 * forward_u <= p()) push(LinkDir::kSouth);
    if (2 * forward_u >= p()) push(LinkDir::kNorth);
  }
  return steps;
}

bool TorusTopology::wraps(const LinkInfo& link) const noexcept {
  switch (link.dir) {
    case LinkDir::kEast: return link.from.v == q() - 1;
    case LinkDir::kWest: return link.from.v == 0;
    case LinkDir::kSouth: return link.from.u == p() - 1;
    case LinkDir::kNorth: return link.from.u == 0;
  }
  return false;  // unreachable
}

std::vector<std::int32_t> TorusTopology::vc_classes(const Path& path) const {
  // A shortest torus path never mixes opposite directions on one axis, so
  // the travel sign per axis is a path constant; hops that do not move an
  // axis leave its bit at the default.
  std::int32_t dir_class = 0;
  for (const LinkId id : path.links) {
    const LinkInfo& info = link(id);
    if (info.dir == LinkDir::kWest) dir_class |= 1;
    if (info.dir == LinkDir::kNorth) dir_class |= 2;
  }
  std::vector<std::int32_t> classes;
  classes.reserve(path.links.size());
  std::int32_t wrapped_u = 0;
  std::int32_t wrapped_v = 0;
  for (const LinkId id : path.links) {
    // The wrap hop keeps the pre-wrap class (it completes that monotone
    // segment); the bumped class starts at the next hop.
    classes.push_back(dir_class + 4 * (wrapped_u + 2 * wrapped_v));
    const LinkInfo& info = link(id);
    if (wraps(info)) {
      if (info.horizontal()) {
        wrapped_v = 1;
      } else {
        wrapped_u = 1;
      }
    }
  }
  return classes;
}

}  // namespace topo
}  // namespace pamr

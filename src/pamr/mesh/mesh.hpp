// The CMP platform of the paper (§3.1): a p×q rectangular grid of
// homogeneous cores with two unidirectional links between every pair of
// neighbours. The Mesh is the rectangular topology (topo/topology.hpp): its
// link numbering — per core (row-major), per direction E, W, S, N — is the
// one link loads, routings and power evaluation index everywhere else, and
// it adds the inline lookups the §5 heuristics run on. Router::route runs
// the §5 policies when its topology is a Mesh (Topology::as_mesh).
#pragma once

#include <cstdint>
#include <vector>

#include "pamr/mesh/coord.hpp"
#include "pamr/topo/topology.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

class Mesh final : public topo::Topology {
 public:
  /// Builds a p×q mesh (p rows, q columns); both must be ≥ 1.
  Mesh(std::int32_t p, std::int32_t q);

  using Topology::link_from;

  /// The link leaving `from` in direction `dir`, or kInvalidLink at the mesh
  /// boundary or outside it: the base overload's answer, inline and without
  /// its direction CHECK (a LinkDir is always in range).
  [[nodiscard]] LinkId link_from(Coord from, LinkDir dir) const noexcept {
    return contains(from) ? slot_link(from, dir) : kInvalidLink;
  }

  /// The link from `from` to the *neighbouring* core `to`; CHECKs adjacency.
  /// Defined inline: XYI's candidate evaluation resolves two links per
  /// rotated step, making this one of the hottest calls in the library —
  /// the checks are a handful of integer compares, the cross-TU call they
  /// used to ride on was the real cost.
  [[nodiscard]] LinkId link_between(Coord from, Coord to) const {
    PAMR_CHECK(contains(from) && contains(to), "link endpoints outside mesh");
    PAMR_CHECK(manhattan_distance(from, to) == 1, "cores are not neighbours");
    const LinkId id = slot_link(from, step_dir(from, to));
    PAMR_ASSERT(id != kInvalidLink);
    return id;
  }

  /// link_between without the adjacency/bounds CHECKs, for callers whose
  /// arguments are adjacent in-mesh cores *by construction* — XYI's windowed
  /// candidate evaluation resolves two links per rotated step of a monotone
  /// staircase, whose every permutation stays inside the source/sink
  /// bounding rectangle, so the predicates can never fire there and their
  /// cost (four bounds compares plus a Manhattan test per call, hundreds of
  /// millions of calls per overloaded descent) is pure overhead. The
  /// precondition is enforced at the paranoid tier only — level-2 builds
  /// (sanitizer CI, the differential suites' l2 runs) keep the full checks;
  /// at the default level the call is what the name says.
  [[nodiscard]] LinkId link_between_unchecked(Coord from, Coord to) const {
#if PAMR_CHECK_LEVEL >= 2
    PAMR_DCHECK(contains(from) && contains(to) && manhattan_distance(from, to) == 1);
#endif
    const LinkId id = slot_link(from, step_dir(from, to));
#if PAMR_CHECK_LEVEL >= 2
    PAMR_DCHECK(id != kInvalidLink);
#endif
    return id;
  }

  /// Manhattan distance.
  [[nodiscard]] std::int32_t distance(Coord a, Coord b) const override;
  /// Pinned order: the horizontal step first, then the vertical one — so
  /// the canonical path is the XY path.
  [[nodiscard]] std::vector<topo::TopoStep> next_steps(Coord at,
                                                       Coord snk) const override;
  /// A monotone Manhattan path: every hop takes one of the two directions
  /// of the flow's quadrant.
  [[nodiscard]] bool is_shortest(const Path& path) const override;
  [[nodiscard]] std::int32_t num_vc_classes() const noexcept override { return 4; }
  /// Every hop carries the flow's quadrant class (deadlock.hpp's scheme).
  [[nodiscard]] std::vector<std::int32_t> vc_classes(const Path& path) const override;
  [[nodiscard]] const Mesh* as_mesh() const noexcept override { return this; }

 private:
  /// The direction of the step from `from` to its neighbour `to`.
  [[nodiscard]] static LinkDir step_dir(Coord from, Coord to) noexcept {
    if (to.v == from.v + 1) return LinkDir::kEast;
    if (to.v == from.v - 1) return LinkDir::kWest;
    return to.u == from.u + 1 ? LinkDir::kSouth : LinkDir::kNorth;
  }

  /// The (from, dir) slot of the link table; `from` must be in the mesh.
  [[nodiscard]] LinkId slot_link(Coord from, LinkDir dir) const noexcept {
    return link_of_core_dir_[static_cast<std::size_t>(core_index(from)) * kNumLinkDirs +
                             static_cast<std::size_t>(dir)];
  }
};

}  // namespace pamr

// The CMP platform of the paper (§3.1): a p×q rectangular grid of
// homogeneous cores with two unidirectional links between every pair of
// neighbours. The Mesh owns the link numbering used everywhere else — link
// loads, routings and power evaluation are all dense vectors indexed by
// LinkId.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pamr/mesh/coord.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

/// Dense link identifier, in [0, Mesh::num_links()).
using LinkId = std::int32_t;
inline constexpr LinkId kInvalidLink = -1;

struct LinkInfo {
  Coord from;
  Coord to;
  LinkDir dir = LinkDir::kEast;

  [[nodiscard]] bool horizontal() const noexcept { return is_horizontal(dir); }
};

class Mesh {
 public:
  /// Builds a p×q mesh (p rows, q columns); both must be ≥ 1.
  Mesh(std::int32_t p, std::int32_t q);

  [[nodiscard]] std::int32_t p() const noexcept { return p_; }
  [[nodiscard]] std::int32_t q() const noexcept { return q_; }
  [[nodiscard]] std::int32_t num_cores() const noexcept { return p_ * q_; }
  [[nodiscard]] std::int32_t num_links() const noexcept {
    return static_cast<std::int32_t>(links_.size());
  }

  [[nodiscard]] bool contains(Coord c) const noexcept {
    return c.u >= 0 && c.u < p_ && c.v >= 0 && c.v < q_;
  }

  [[nodiscard]] std::int32_t core_index(Coord c) const noexcept {
    return c.u * q_ + c.v;
  }
  [[nodiscard]] Coord core_coord(std::int32_t index) const noexcept {
    return {index / q_, index % q_};
  }

  /// The link leaving `from` in direction `dir`, or kInvalidLink at the mesh
  /// boundary.
  [[nodiscard]] LinkId link_from(Coord from, LinkDir dir) const noexcept;

  /// The link from `from` to the *neighbouring* core `to`; CHECKs adjacency.
  /// Defined inline: XYI's candidate evaluation resolves two links per
  /// rotated step, making this one of the hottest calls in the library —
  /// the checks are a handful of integer compares, the cross-TU call they
  /// used to ride on was the real cost.
  [[nodiscard]] LinkId link_between(Coord from, Coord to) const {
    PAMR_CHECK(contains(from) && contains(to), "link endpoints outside mesh");
    PAMR_CHECK(manhattan_distance(from, to) == 1, "cores are not neighbours");
    LinkDir dir = LinkDir::kEast;
    if (to.v == from.v + 1) {
      dir = LinkDir::kEast;
    } else if (to.v == from.v - 1) {
      dir = LinkDir::kWest;
    } else if (to.u == from.u + 1) {
      dir = LinkDir::kSouth;
    } else {
      dir = LinkDir::kNorth;
    }
    const LinkId id =
        link_of_core_dir_[static_cast<std::size_t>(core_index(from)) * kNumLinkDirs +
                          static_cast<std::size_t>(dir)];
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
    LinkDir dir = LinkDir::kEast;
    if (to.v == from.v + 1) {
      dir = LinkDir::kEast;
    } else if (to.v == from.v - 1) {
      dir = LinkDir::kWest;
    } else if (to.u == from.u + 1) {
      dir = LinkDir::kSouth;
    } else {
      dir = LinkDir::kNorth;
    }
    const LinkId id =
        link_of_core_dir_[static_cast<std::size_t>(core_index(from)) * kNumLinkDirs +
                          static_cast<std::size_t>(dir)];
#if PAMR_CHECK_LEVEL >= 2
    PAMR_DCHECK(id != kInvalidLink);
#endif
    return id;
  }

  /// Defined inline for the same reason as link_between: every prune and
  /// cut-cache loop resolves each cut link to its endpoints through here.
  [[nodiscard]] const LinkInfo& link(LinkId id) const {
    PAMR_CHECK(id >= 0 && id < num_links(), "link id out of range");
    return links_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::span<const LinkInfo> links() const noexcept { return links_; }

  /// Outgoing neighbours of a core (the paper's succ(u,v)): 2–4 cores.
  [[nodiscard]] std::vector<Coord> successors(Coord c) const;

  [[nodiscard]] std::string describe_link(LinkId id) const;

 private:
  std::int32_t p_;
  std::int32_t q_;
  // The link tables depend on (p, q) alone, so every mesh of one shape views
  // the same copy (mesh.cpp): a campaign holds a mesh per point, and the
  // tables of an 8×8 mesh take ~5.5 KB.
  std::span<const LinkInfo> links_;
  const LinkId* link_of_core_dir_ = nullptr;  // num_cores × 4, kInvalidLink at borders
};

}  // namespace pamr
